package gpu

import (
	"fmt"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// fenceHeavyTraces gives every warp rounds of a store and two loads
// followed by a fence, so most warps sit at a fence with accesses in
// flight most of the time.
func fenceHeavyTraces(warps, rounds int) []workload.Trace {
	traces := make([]workload.Trace, warps)
	for w := range traces {
		base := uint64(1000 * (w + 1))
		for r := 0; r < rounds; r++ {
			l := base + uint64(3*r)
			traces[w] = append(traces[w],
				workload.Instr{Op: workload.OpStore, Lines: []uint64{l}, Val: uint64(r)},
				workload.Instr{Op: workload.OpLoad, Lines: []uint64{l + 1}},
				workload.Instr{Op: workload.OpLoad, Lines: []uint64{l + 2}},
				workload.Instr{Op: workload.OpFence},
				workload.Instr{Op: workload.OpCompute, Lat: 2},
			)
		}
	}
	return traces
}

// mshrSaturatingTraces gives every warp 4-way divergent loads, far more
// line accesses than the fake L1's MSHR bound admits at once.
func mshrSaturatingTraces(warps, loads int) []workload.Trace {
	traces := make([]workload.Trace, warps)
	for w := range traces {
		for i := 0; i < loads; i++ {
			l := uint64(100000*(w+1) + 8*i)
			traces[w] = append(traces[w],
				workload.Instr{Op: workload.OpLoad, Lines: []uint64{l, l + 1, l + 2, l + 3}})
		}
	}
	return traces
}

// checkParkedOutOfCand asserts the WO scan-mask invariant after a Tick
// that issued nothing: no warp in cand is fence-stalled with accesses
// outstanding or holds a partial submit (the scan tried every candidate,
// and the L1 refused each submit it retried).
func checkParkedOutOfCand(t *testing.T, sm *SM, now timing.Cycle) {
	t.Helper()
	for i, w := range sm.warps {
		if !bitSet(sm.cand, i) {
			continue
		}
		if w.fenceStalled && w.outstanding > 0 {
			t.Fatalf("cycle %d: warp %d is in cand while fence-stalled with %d accesses outstanding", now, i, w.outstanding)
		}
		if w.subSlot >= 0 || bitSet(sm.park, i) {
			t.Fatalf("cycle %d: warp %d is in cand with a refused submit", now, i)
		}
	}
}

// TestWOScanWork bounds the host work the SM spends on warps that cannot
// issue, counted rather than timed so the bound holds on any host. Under
// both weak-ordering protocols it runs a fence-heavy and an
// MSHR-saturating program and bounds, per retired instruction, the issue
// attempts that made no progress and the L1 accesses refused. Retrying
// parked warps on every scan cost 6.6 (fence-heavy) and 13.8
// (MSHR-saturating) failed attempts and 14.8 refused accesses per
// instruction on these programs; parking them costs 0.2, 0.5 and 1.5. The
// simulated cycle counts are the same either way.
func TestWOScanWork(t *testing.T) {
	cases := []struct {
		name   string
		traces []workload.Trace
		mshrs  int
	}{
		{"fence-heavy", fenceHeavyTraces(16, 12), 0},
		{"mshr-saturating", mshrSaturatingTraces(16, 10), 8},
	}
	for _, p := range []config.Protocol{config.TCW, config.RCCWO} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", p, c.name), func(t *testing.T) {
				cfg := smConfig(p)
				cfg.WarpsPerSM = len(c.traces)
				sm, l1 := build(t, cfg, c.traces, nil)
				l1.mshrs = c.mshrs
				now := timing.Cycle(0)
				for ; !sm.Done(); now++ {
					if now > 100000 {
						t.Fatal("SM did not finish")
					}
					if !sm.Tick(now) {
						checkParkedOutOfCand(t, sm, now)
					}
					l1.Tick(now)
				}
				instrs := float64(sm.st.Instructions)
				failed := float64(sm.failedTries) / instrs
				refused := float64(l1.refused) / instrs
				t.Logf("%d instructions in %d cycles: %.2f failed issue attempts and %.2f refused accesses per instruction",
					sm.st.Instructions, now, failed, refused)
				if failed > 1 {
					t.Errorf("%.2f failed issue attempts per instruction, want ≤ 1", failed)
				}
				if refused > 2 {
					t.Errorf("%.2f refused L1 accesses per instruction, want ≤ 2", refused)
				}
				if c.mshrs > 0 && l1.refused == 0 {
					t.Error("the MSHR bound never refused an access; the case does not saturate")
				}
				if c.mshrs == 0 && sm.st.FenceStallCycles == 0 {
					t.Error("no fence ever stalled; the case is not fence-heavy")
				}
			})
		}
	}
}
