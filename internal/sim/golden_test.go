package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden digest files")

// goldenProtocols fixes the digest order; appending a protocol changes the
// digest, so regenerate with -update if the protocol set ever grows.
var goldenProtocols = []config.Protocol{
	config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal,
}

// TestCrossProtocolGoldenDigest pins the simulated results of every
// protocol on one inter-workgroup benchmark (DLB). Each protocol runs
// twice: the two stats.Run values must be bit-identical (determinism), and
// the digest over all protocols must match the checked-in value
// (testdata/golden_stats.digest) so scheduler or allocation-pool rewrites
// cannot silently change simulated behaviour. Regenerate with
//
//	go test ./internal/sim -run CrossProtocolGoldenDigest -update
//
// only when a change is *meant* to alter simulated cycles.
func TestCrossProtocolGoldenDigest(t *testing.T) {
	checkGoldenDigest(t, "golden_stats.digest", goldenProtocols, nil, "DLB")
}

// TestGTOWeakOrderingGoldenDigest pins the weak-ordering protocols under
// the greedy-then-oldest scheduler, which the cross-protocol digest (loose
// round-robin only) leaves unpinned. GTO takes its own branch through the
// SM's issue scan and scan masks. DLB stalls at fences; each benchmark
// also runs with a 16-entry L1 MSHR file, which the default Small machine
// never fills, so refused partial submits are covered too. Regenerate with
//
//	go test ./internal/sim -run GTOWeakOrderingGoldenDigest -update
//
// under the same rule as the cross-protocol digest.
func TestGTOWeakOrderingGoldenDigest(t *testing.T) {
	for _, mshrs := range []int{config.Small().L1MSHRs, 16} {
		file := fmt.Sprintf("golden_gto_wo_mshr%d.digest", mshrs)
		checkGoldenDigest(t, file, []config.Protocol{config.TCW, config.RCCWO}, func(c *config.Config) {
			c.Scheduler = config.GTO
			c.L1MSHRs = mshrs
		}, "DLB", "NDL")
	}
}

// TestMSHRStarvedGoldenDigest pins every protocol on a machine whose
// 8-entry L1 MSHR file is full most of the time, so partially submitted
// instructions and refused L1 accesses dominate the SM's issue path —
// a path the default-sized golden runs never reach. Regenerate with
//
//	go test ./internal/sim -run MSHRStarvedGoldenDigest -update
//
// under the same rule as the cross-protocol digest.
func TestMSHRStarvedGoldenDigest(t *testing.T) {
	checkGoldenDigest(t, "golden_mshr8.digest", goldenProtocols, func(c *config.Config) {
		c.L1MSHRs = 8
	}, "DLB", "NDL")
}

// checkGoldenDigest runs every (benchmark, protocol) pair twice on
// config.Small (adjusted by tweak, when non-nil), requires the two
// stats.Run values to be bit-identical, and compares the SHA-256 over all
// of them with testdata/<file> (or rewrites it under -update).
func checkGoldenDigest(t *testing.T, file string, protocols []config.Protocol, tweak func(*config.Config), benches ...string) {
	t.Helper()
	h := sha256.New()
	for _, name := range benches {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s not found", name)
		}
		for _, p := range protocols {
			cfg := config.Small()
			cfg.Protocol = p
			if tweak != nil {
				tweak(&cfg)
			}

			var snaps [2]string
			for i := range snaps {
				res, err := RunBenchmark(cfg, b)
				if err != nil {
					t.Fatalf("%s/%v run %d: %v", name, p, i, err)
				}
				snaps[i] = fmt.Sprintf("%+v", *res.Stats)
			}
			if snaps[0] != snaps[1] {
				t.Errorf("%s/%v: stats differ between two identical runs:\n run0: %s\n run1: %s", name, p, snaps[0], snaps[1])
			}
			fmt.Fprintf(h, "%v\n%s\n", p, snaps[0])
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digest (run with -update to create): %v", err)
	}
	if got, w := digest, strings.TrimSpace(string(want)); got != w {
		t.Errorf("stats digest %s changed:\n got  %s\n want %s\n"+
			"simulated results are pinned; if this change is intentional, regenerate with -update", file, got, w)
	}
}

// TestShardedGoldenDigest checks that a simulation's result does not depend
// on what else the process runs at the same time. The local -j pool (and
// the result cache keyed on the Config alone) rely on this: a sweep is
// sharded across worker goroutines, each building its own Machine. For
// every protocol, shards=N runs N DLB simulations of the same point
// concurrently and requires each stats snapshot to be byte-identical to a
// run made alone, so no package-level state (allocation pools, jitter
// sources, interned tables) leaks between Machines.
func TestShardedGoldenDigest(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	for _, p := range goldenProtocols {
		for _, shards := range []int{2, 4} {
			p, shards := p, shards
			t.Run(fmt.Sprintf("%v/shards=%d", p, shards), func(t *testing.T) {
				t.Parallel()
				cfg := config.Small()
				cfg.Protocol = p
				ref, err := RunBenchmark(cfg, b)
				if err != nil {
					t.Fatalf("lone run: %v", err)
				}
				want := fmt.Sprintf("%+v", *ref.Stats)

				got := make([]string, shards)
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := RunBenchmark(cfg, b)
						if err != nil {
							errs[i] = err
							return
						}
						got[i] = fmt.Sprintf("%+v", *res.Stats)
					}(i)
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatalf("concurrent run %d: %v", i, errs[i])
					}
					if got[i] != want {
						t.Errorf("concurrent run %d diverges from the lone run:\n concurrent: %s\n lone:       %s", i, got[i], want)
					}
				}
			})
		}
	}
}
