package multistack_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/multistack"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	st  *multistack.Stack
}

func newFixture(t testing.TB, scfg sched.Config, cfg multistack.Config, nodes int) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 16
	}
	s := sched.New(scfg)
	ar, err := arena.New(s.Mem(), nodes, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := multistack.New(s.Mem(), ar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, st: st}
}

func TestSequentialLIFO(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multistack.Config{Processors: 1, Procs: 1}, 32)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for v := uint64(1); v <= 8; v++ {
			fx.st.Push(e, v)
		}
		for v := uint64(8); v >= 1; v-- {
			got, ok := fx.st.Pop(e)
			if !ok || got != v {
				t.Errorf("Pop = (%d, %v), want (%d, true)", got, ok, v)
			}
		}
		if _, ok := fx.st.Pop(e); ok {
			t.Error("Pop on empty stack returned ok")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStressAllVariants: cross-processor pushers/poppers under all CCAS
// implementations and helping modes, validated by the LIFO checker.
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
						multistack.Config{Processors: nCPU, Procs: nProcs, CC: cc, Mode: mode}, 256)
					chk := registry.NewStructChecker(registry.ModelLIFO, fx.st, fx.sim.Mem())
					rng := fx.sim.Rand()
					for p := 0; p < nProcs; p++ {
						p := p
						fx.sim.Spawn(sched.JobSpec{
							Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
							At: rng.Int63n(400), AfterSlices: -1,
							Body: func(e *sched.Env) {
								for op := 0; op < nOps; op++ {
									if e.Rand().Intn(2) == 0 {
										val := uint64(1000*p + op + 1)
										chk.Begin(p, registry.Op{Code: registry.OpPush, Val: val})
										fx.st.Push(e, val)
										chk.End(p, registry.Result{OK: true})
									} else {
										chk.Begin(p, registry.Op{Code: registry.OpPop})
										v, ok := fx.st.Pop(e)
										chk.End(p, registry.Result{OK: ok, Val: v})
									}
								}
							},
						})
					}
					if err := fx.sim.Run(); err != nil {
						t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
					}
					chk.Finish()
					if err := chk.Err(); err != nil {
						t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
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

// TestNodeConservation under contention.
func TestNodeConservation(t *testing.T) {
	const nProcs = 4
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 9, MemWords: 1 << 17},
		multistack.Config{Processors: 2, Procs: nProcs}, 64)
	usable := 0
	for p := 0; p < nProcs; p++ {
		usable += fx.ar.FreeCount(p)
	}
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{Name: "", CPU: p % 2, Prio: sched.Priority(p / 2), Slot: p, At: int64(p) * 7, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 25; i++ {
				if e.Rand().Intn(2) == 0 {
					fx.st.Push(e, uint64(100*p+i))
				} else {
					fx.st.Pop(e)
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
	if free+len(fx.st.Snapshot()) != usable {
		t.Errorf("node conservation violated: %d free + %d stacked != %d usable",
			free, len(fx.st.Snapshot()), usable)
	}
}

// TestPreemptedPushHelped: a preempted push completes via helping before the
// preemptor's pop.
func TestPreemptedPushHelped(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multistack.Config{Processors: 1, Procs: 2}, 32)
	var got uint64
	var ok bool
	fx.sim.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.st.Push(e, 42)
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 25, Body: func(e *sched.Env) {
		got, ok = fx.st.Pop(e)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Errorf("pop = (%d, %v), want (42, true)", got, ok)
	}
}
