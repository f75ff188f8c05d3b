package check

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/sim"
	"rccsim/internal/timing"
)

// referenceFingerprint is the straightforward form of fingerprintMachine:
// it materialises the stats wire image and a joined, sorted copy of the
// observations and feeds them to an incremental hash. The streaming
// fingerprint must match it byte for byte, or model-checking state and
// run counts would move.
func referenceFingerprint(m *sim.Machine, p *Prog, rec *recorder) mcFP {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(uint64(m.Now()))
	h.Write(m.Stats().WireBytes())
	for l := 0; l < p.Lines; l++ {
		w64(m.ReadLine(Base + uint64(l)))
	}
	obs := append([]string(nil), rec.entries...)
	sort.Strings(obs)
	h.Write([]byte(strings.Join(obs, ";")))
	m.FoldInflight(func(at timing.Cycle, msg *coherence.Msg) {
		for _, v := range []uint64{uint64(at), uint64(msg.Type), msg.Line, uint64(msg.Src), uint64(msg.Dst),
			msg.ReqID, uint64(msg.Warp), msg.Now, msg.Exp, msg.Ver, msg.Val} {
			w64(v)
		}
		if msg.Atomic {
			w64(1)
		} else {
			w64(0)
		}
	})
	var fp mcFP
	copy(fp[:], h.Sum(nil))
	return fp
}

// TestFingerprintStreamsReferenceBytes runs generated programs under every
// model-checked protocol, alternating the jitter choices, and at every
// decision point compares the streaming fingerprint with the reference
// one and requires it to allocate nothing.
func TestFingerprintStreamsReferenceBytes(t *testing.T) {
	p := Generate(3, DefaultGenConfig())
	for _, proto := range mcProtocols {
		cfg := config.Small()
		cfg.Protocol = proto
		cfg.NumSMs, cfg.WarpsPerSM = p.MachineShape()
		cfg.NoCJitter = 0
		delays := make([]uint32, len(p.Threads))
		for i := range delays {
			delays[i] = []uint32{1, 420}[i%2]
		}
		wl, err := p.WorkloadDelays(cfg, delays)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(p, cfg.WarpsPerSM)
		m, err := sim.New(cfg, wl, rec)
		if err != nil {
			t.Fatal(err)
		}
		var s fpScratch
		points, withObs, worstAllocs := 0, 0, 0.0
		m.SetNoCDelayChooser(func() uint64 {
			points++
			if len(rec.entries) > 1 {
				withObs++
			}
			if got, want := s.fingerprintMachine(m, p, rec), referenceFingerprint(m, p, rec); got != want {
				t.Errorf("%v decision %d: streaming fingerprint %v, reference %v", proto, points, got, want)
			}
			if a := testing.AllocsPerRun(3, func() { s.fingerprintMachine(m, p, rec) }); a > worstAllocs {
				worstAllocs = a
			}
			return []uint64{0, 430}[points%2]
		})
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if points < 4 || withObs == 0 {
			t.Fatalf("%v: only %d decision points (%d with observations); the comparison proves little", proto, points, withObs)
		}
		if worstAllocs != 0 {
			t.Errorf("%v: fingerprint allocated %.0f times at a decision point, want 0", proto, worstAllocs)
		}
	}
}
