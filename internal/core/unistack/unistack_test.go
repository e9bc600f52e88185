package unistack_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/unistack"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	st  *unistack.Stack
}

func newFixture(t testing.TB, cfg sched.Config, n, nodes int) *fixture {
	t.Helper()
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 15
	}
	s := sched.New(cfg)
	ar, err := arena.New(s.Mem(), nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	st, err := unistack.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, st: st}
}

func TestLIFOOrder(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 32)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for v := uint64(1); v <= 8; v++ {
			fx.st.Push(e, v*10)
		}
		for v := uint64(8); v >= 1; v-- {
			got, ok := fx.st.Pop(e)
			if !ok || got != v*10 {
				t.Errorf("Pop = (%d, %v), want (%d, true)", got, ok, v*10)
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

func TestNodeConservation(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 8)
	free := fx.ar.FreeCount(0)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for i := 0; i < 50; i++ {
			fx.st.Push(e, uint64(i))
			if _, ok := fx.st.Pop(e); !ok {
				t.Fatal("pop failed")
			}
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fx.ar.FreeCount(0); got != free {
		t.Errorf("free count = %d, want %d (no leaks)", got, free)
	}
}

// newChecker attaches a SerialChecker with a LIFO model.
func newChecker(fx *fixture, n int) *registry.SerialChecker {
	return registry.NewSerialChecker(fx.sim.Mem(), fx.st.Engine().AnnPidAddr(), n, fx.st,
		registry.Lookup0("unistack").NewModel(registry.Config{}),
		registry.ValuePeek(fx.sim.Mem(), fx.ar, registry.ModelLIFO, fx.st))
}

// TestPreemptionPointSweep: adversaries at every slice, fully checked.
func TestPreemptionPointSweep(t *testing.T) {
	for k := int64(0); k < 90; k++ {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 3, 32)
		chk := newChecker(fx, 3)
		fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			fx.st.Push(e, 100)
			chk.End(0, registry.Result{OK: true})
			fx.st.Push(e, 200)
			chk.End(0, registry.Result{OK: true})
			v, ok := fx.st.Pop(e)
			chk.End(0, registry.Result{OK: ok, Val: v})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: k, Body: func(e *sched.Env) {
			fx.st.Push(e, 300)
			chk.End(1, registry.Result{OK: true})
			v, ok := fx.st.Pop(e)
			chk.End(1, registry.Result{OK: ok, Val: v})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: k + 5, Body: func(e *sched.Env) {
			v, ok := fx.st.Pop(e)
			chk.End(2, registry.Result{OK: ok, Val: v})
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

// TestStressWithChecker: randomized prioritized jobs against the LIFO model.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const nProcs = 4
		fx := newFixture(t, sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 16}, nProcs, 128)
		chk := newChecker(fx, nProcs)
		rng := fx.sim.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			fx.sim.Spawn(sched.JobSpec{
				Name: "", CPU: 0, Prio: sched.Priority(rng.Intn(6)), Slot: p,
				At: rng.Int63n(300), AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < 10; op++ {
						if e.Rand().Intn(2) == 0 {
							fx.st.Push(e, uint64(100*p+op))
							chk.End(p, registry.Result{OK: true})
						} else {
							v, ok := fx.st.Pop(e)
							chk.End(p, registry.Result{OK: ok, Val: v})
						}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPopEmptyDuringHelp: an empty-stack pop and a push racing across
// priorities still agree with the serialized model (covered broadly by the
// sweep; this pins the simplest instance).
func TestPopEmptyDuringHelp(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 16)
	var popOK bool
	var popVal uint64
	fx.sim.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.st.Push(e, 7)
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 20, Body: func(e *sched.Env) {
		popVal, popOK = fx.st.Pop(e)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// The high-priority pop runs after helping the push to completion,
	// so it must observe the pushed value.
	if !popOK || popVal != 7 {
		t.Errorf("pop = (%d, %v), want (7, true)", popVal, popOK)
	}
	if got := fx.st.Snapshot(); len(got) != 0 {
		t.Errorf("final stack = %v, want empty", got)
	}
}
