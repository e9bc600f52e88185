package multihash_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/multihash"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	tb  *multihash.Table
}

func newFixture(t testing.TB, scfg sched.Config, hcfg multihash.Config, nodes int, seed []uint64) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 17
	}
	s := sched.New(scfg)
	ar, err := arena.New(s.Mem(), nodes, hcfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := multihash.New(s.Mem(), ar, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		if err := tb.SeedKeys(seed); err != nil {
			t.Fatal(err)
		}
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, tb: tb}
}

func TestSequentialSemantics(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multihash.Config{Processors: 1, Procs: 1, Buckets: 4}, 64, nil)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		tb := fx.tb
		// Keys chosen to hit every bucket and collide within buckets.
		for _, k := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9} {
			if !tb.Insert(e, k, k*10) {
				t.Errorf("Insert(%d) failed", k)
			}
		}
		if tb.Insert(e, 5, 0) {
			t.Error("duplicate insert succeeded")
		}
		if !tb.Search(e, 9) || tb.Search(e, 13) {
			t.Error("search wrong")
		}
		if !tb.Delete(e, 4) || tb.Delete(e, 4) {
			t.Error("delete wrong")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.tb.Snapshot()
	want := []uint64{1, 2, 3, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("table = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table = %v, want %v", got, want)
		}
	}
}

func TestSeededTable(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
		multihash.Config{Processors: 2, Procs: 2, Buckets: 8}, 128,
		[]uint64{10, 20, 30, 40, 50, 17, 23})
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for _, k := range []uint64{10, 20, 30, 40, 50, 17, 23} {
			if !fx.tb.Search(e, k) {
				t.Errorf("Search(%d) failed on seeded table", k)
			}
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStressAllVariants: randomized cross-processor workloads, checked with
// the structural event-claiming checker (the table satisfies Snapshotter).
func TestStressAllVariants(t *testing.T) {
	for _, cc := range prim.All() {
		for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
			cc, mode := cc, mode
			t.Run(fmt.Sprintf("%s_%s", cc.Name(), mode), func(t *testing.T) {
				f := func(seed int64) bool {
					const (
						nCPU   = 3
						nProcs = 6
						nOps   = 8
					)
					fx := newFixture(t, sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 17},
						multihash.Config{Processors: nCPU, Procs: nProcs, Buckets: 4, CC: cc, Mode: mode},
						256, []uint64{2, 5, 9})
					chk := registry.NewStructChecker(registry.ModelSorted, fx.tb, fx.sim.Mem())
					rng := fx.sim.Rand()
					for p := 0; p < nProcs; p++ {
						p := p
						fx.sim.Spawn(sched.JobSpec{
							Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
							At: rng.Int63n(400), AfterSlices: -1,
							Body: func(e *sched.Env) {
								for op := 0; op < nOps; op++ {
									key := uint64(1 + e.Rand().Intn(12))
									var ok bool
									switch e.Rand().Intn(3) {
									case 0:
										chk.Begin(p, registry.Op{Code: registry.OpInsert, Key: key})
										ok = fx.tb.Insert(e, key, key)
									case 1:
										chk.Begin(p, registry.Op{Code: registry.OpDelete, Key: key})
										ok = fx.tb.Delete(e, key)
									default:
										chk.Begin(p, registry.Op{Code: registry.OpSearch, Key: key})
										ok = fx.tb.Search(e, key)
									}
									chk.End(p, registry.Result{OK: ok})
								}
							},
						})
					}
					if err := fx.sim.Run(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					chk.Finish()
					if err := chk.Err(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBucketSpeedup: with the same total key count, a search costs Θ(T/K):
// more buckets, shorter scans.
func TestBucketSpeedup(t *testing.T) {
	cost := func(buckets int) int64 {
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 18},
			multihash.Config{Processors: 1, Procs: 1, Buckets: buckets}, 300, keys)
		var elapsed int64
		fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			start := e.Now()
			// Probe a key hashing to the end of its bucket.
			fx.tb.Search(e, 256)
			elapsed = e.Now() - start
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	c1, c16 := cost(1), cost(16)
	if c16*4 > c1 {
		t.Errorf("16 buckets did not speed up the scan: K=1 cost %d, K=16 cost %d", c1, c16)
	}
}

// TestNoLeaksUnderContention: node conservation across a contended run.
func TestNoLeaksUnderContention(t *testing.T) {
	const nProcs = 4
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 9, MemWords: 1 << 17},
		multihash.Config{Processors: 2, Procs: nProcs, Buckets: 4}, 64, nil)
	usable := 0
	for p := 0; p < nProcs; p++ {
		usable += fx.ar.FreeCount(p)
	}
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{Name: "", CPU: p % 2, Prio: sched.Priority(p / 2), Slot: p, At: int64(p) * 7, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 25; i++ {
				key := uint64(1 + e.Rand().Intn(8))
				if e.Rand().Intn(2) == 0 {
					fx.tb.Insert(e, key, 0)
				} else {
					fx.tb.Delete(e, key)
				}
			}
		}})
	}
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	free := 0
	for p := 0; p < nProcs; p++ {
		free += fx.ar.FreeCount(p)
	}
	if free+len(fx.tb.Snapshot()) != usable {
		t.Errorf("node conservation violated: %d free + %d stored != %d usable",
			free, len(fx.tb.Snapshot()), usable)
	}
}

func TestConfigValidation(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	ar, err := arena.New(s.Mem(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multihash.New(s.Mem(), ar, multihash.Config{Processors: 1, Procs: 0, Buckets: 4}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := multihash.New(s.Mem(), ar, multihash.Config{Processors: 1, Procs: 1, Buckets: 0}); err == nil {
		t.Error("zero buckets accepted")
	}
}
