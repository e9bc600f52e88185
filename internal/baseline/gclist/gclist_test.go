package gclist_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/baseline/gclist"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim  *sched.Sim
	ar   *arena.Arena
	list *gclist.List
}

func newFixture(t testing.TB, scfg sched.Config, n, nodes int, seed []uint64) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 17
	}
	s := sched.New(scfg)
	ar, err := arena.New(s.Mem(), nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	l, err := gclist.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		if err := l.SeedAscending(seed); err != nil {
			t.Fatal(err)
		}
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, list: l}
}

func TestSequentialSemantics(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 32, nil)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		l := fx.list
		if !l.Insert(e, 10, 0) || !l.Insert(e, 5, 0) || !l.Insert(e, 15, 0) {
			t.Error("inserts failed")
		}
		if l.Insert(e, 10, 0) {
			t.Error("duplicate insert succeeded")
		}
		if !l.Search(e, 15) || l.Search(e, 11) {
			t.Error("search wrong")
		}
		if !l.Delete(e, 5) || l.Delete(e, 5) {
			t.Error("delete wrong")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.list.Snapshot()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Errorf("final list = %v, want [10 15]", got)
	}
	if s := fx.list.TotalStats(); s.Ops != 8 {
		t.Errorf("stats recorded %d ops, want 8", s.Ops)
	}
}

// TestStressWithChecker: the generic list checker validates gclist under
// cross-processor contention with preemption.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const (
			nCPU   = 3
			nProcs = 6
			nOps   = 10
		)
		fx := newFixture(t, sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 17},
			nProcs, 256, []uint64{2, 4, 6})
		chk := registry.NewStructChecker(registry.ModelSorted, fx.list, fx.sim.Mem())
		rng := fx.sim.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			fx.sim.Spawn(sched.JobSpec{
				Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(5)), Slot: p,
				At: rng.Int63n(400), AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < nOps; op++ {
						key := uint64(1 + e.Rand().Intn(10))
						var ok bool
						switch e.Rand().Intn(3) {
						case 0:
							chk.Begin(p, registry.Op{Code: registry.OpInsert, Key: key})
							ok = fx.list.Insert(e, key, key)
						case 1:
							chk.Begin(p, registry.Op{Code: registry.OpDelete, Key: key})
							ok = fx.list.Delete(e, key)
						default:
							chk.Begin(p, registry.Op{Code: registry.OpSearch, Key: key})
							ok = fx.list.Search(e, key)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRetriesUnderContention: concurrent updaters on other processors force
// retries (the behaviour the paper's worst-case comparison is about), while
// an uncontended run needs none.
func TestRetriesUnderContention(t *testing.T) {
	uncontended := func() int {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 64, nil)
		fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			for i := 1; i <= 20; i++ {
				fx.list.Insert(e, uint64(i), 0)
			}
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return fx.list.TotalStats().WorstRetries
	}()
	if uncontended != 0 {
		t.Errorf("uncontended run had %d retries, want 0", uncontended)
	}

	contended := func() int {
		fx := newFixture(t, sched.Config{Processors: 4, Seed: 2, MemWords: 1 << 18}, 4, 512, []uint64{50})
		for cpu := 0; cpu < 4; cpu++ {
			cpu := cpu
			fx.sim.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				for i := 0; i < 30; i++ {
					key := uint64(1 + e.Rand().Intn(40))
					if e.Rand().Intn(2) == 0 {
						fx.list.Insert(e, key, 0)
					} else {
						fx.list.Delete(e, key)
					}
				}
			}})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return fx.list.TotalStats().WorstRetries
	}()
	if contended == 0 {
		t.Error("contended 4-processor run had zero retries; contention instrumentation broken")
	}
}

// TestNodeConservation: immediate recycling never loses or duplicates nodes.
func TestNodeConservation(t *testing.T) {
	const nProcs = 4
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 3, MemWords: 1 << 17}, nProcs, 64, nil)
	usable := 0
	for p := 0; p < nProcs; p++ {
		usable += fx.ar.FreeCount(p)
	}
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{Name: "", CPU: p % 2, Prio: sched.Priority(p / 2), Slot: p, At: int64(p * 5), AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 30; i++ {
				key := uint64(1 + e.Rand().Intn(8))
				if e.Rand().Intn(2) == 0 {
					fx.list.Insert(e, key, 0)
				} else {
					fx.list.Delete(e, key)
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
	if free+len(fx.list.Snapshot()) != usable {
		t.Errorf("node conservation violated: %d free + %d listed != %d usable", free, len(fx.list.Snapshot()), usable)
	}
}
