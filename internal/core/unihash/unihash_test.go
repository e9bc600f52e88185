package unihash_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/unihash"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	tb  *unihash.Table
}

func newFixture(t testing.TB, cfg sched.Config, n, k, nodes int, seed []uint64) *fixture {
	t.Helper()
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 16
	}
	s := sched.New(cfg)
	ar, err := arena.New(s.Mem(), nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := unihash.New(s.Mem(), ar, n, k)
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
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 4, 64, nil)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for _, k := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
			if !fx.tb.Insert(e, k, k) {
				t.Errorf("Insert(%d) failed", k)
			}
		}
		if fx.tb.Insert(e, 6, 0) {
			t.Error("duplicate insert succeeded")
		}
		if !fx.tb.Search(e, 8) || fx.tb.Search(e, 12) {
			t.Error("search wrong")
		}
		if !fx.tb.Delete(e, 4) || fx.tb.Delete(e, 4) {
			t.Error("delete wrong")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.tb.Snapshot()
	want := []uint64{1, 2, 3, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("table = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table = %v, want %v", got, want)
		}
	}
}

// newChecker attaches a SerialChecker with a set model seeded from the
// table's current contents.
func newChecker(fx *fixture, n int) *registry.SerialChecker {
	model := registry.Lookup0("unihash").NewModel(registry.Config{SeedKeys: fx.tb.Snapshot()})
	return registry.NewSerialChecker(fx.sim.Mem(), fx.tb.Engine().AnnPidAddr(), n, fx.tb,
		model, registry.KeyedPeek(fx.tb))
}

// TestPreemptionPointSweep: adversaries at every slice, checked against the
// set model, with colliding and non-colliding buckets.
func TestPreemptionPointSweep(t *testing.T) {
	for k := int64(0); k < 100; k += 1 {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 3, 4, 64, []uint64{5, 9})
		chk := newChecker(fx, 3)
		fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			chk.End(0, registry.Result{OK: fx.tb.Insert(e, 13, 1)}) // collides with 5, 9 (mod 4 = 1)
			chk.End(0, registry.Result{OK: fx.tb.Delete(e, 5)})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: k, Body: func(e *sched.Env) {
			chk.End(1, registry.Result{OK: fx.tb.Insert(e, 17, 2)}) // same bucket
			chk.End(1, registry.Result{OK: fx.tb.Delete(e, 13)})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: k + 6, Body: func(e *sched.Env) {
			chk.End(2, registry.Result{OK: fx.tb.Search(e, 9)})
			chk.End(2, registry.Result{OK: fx.tb.Insert(e, 10, 3)}) // different bucket
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestStressWithChecker: randomized prioritized jobs against the set model.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const nProcs = 4
		fx := newFixture(t, sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 17}, nProcs, 4, 256, nil)
		chk := newChecker(fx, nProcs)
		rng := fx.sim.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			fx.sim.Spawn(sched.JobSpec{
				Name: "", CPU: 0, Prio: sched.Priority(rng.Intn(6)), Slot: p,
				At: rng.Int63n(300), AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < 12; op++ {
						key := uint64(1 + e.Rand().Intn(12))
						var ok bool
						switch e.Rand().Intn(3) {
						case 0:
							ok = fx.tb.Insert(e, key, key)
						case 1:
							ok = fx.tb.Delete(e, key)
						default:
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	ar, err := arena.New(s.Mem(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unihash.New(s.Mem(), ar, 0, 4); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := unihash.New(s.Mem(), ar, 1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}
