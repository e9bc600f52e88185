package uniqueue_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/uniqueue"
	"repro/internal/registry"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	q   *uniqueue.Queue
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
	q, err := uniqueue.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, q: q}
}

func TestFIFOOrder(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 32)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for v := uint64(1); v <= 8; v++ {
			fx.q.Enqueue(e, v*10)
		}
		for v := uint64(1); v <= 8; v++ {
			got, ok := fx.q.Dequeue(e)
			if !ok || got != v*10 {
				t.Errorf("Dequeue #%d = (%d, %v), want (%d, true)", v, got, ok, v*10)
			}
		}
		if _, ok := fx.q.Dequeue(e); ok {
			t.Error("Dequeue on empty queue returned ok")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fx.q.Snapshot(); len(got) != 0 {
		t.Errorf("final queue = %v, want empty", got)
	}
}

func TestInterleavedEnqDeq(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 16)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		fx.q.Enqueue(e, 1)
		fx.q.Enqueue(e, 2)
		if v, _ := fx.q.Dequeue(e); v != 1 {
			t.Errorf("got %d, want 1", v)
		}
		fx.q.Enqueue(e, 3)
		if v, _ := fx.q.Dequeue(e); v != 2 {
			t.Errorf("got %d, want 2", v)
		}
		if v, _ := fx.q.Dequeue(e); v != 3 {
			t.Errorf("got %d, want 3", v)
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
			fx.q.Enqueue(e, uint64(i))
			if _, ok := fx.q.Dequeue(e); !ok {
				t.Fatal("dequeue failed")
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

// newChecker attaches a SerialChecker with a FIFO model.
func newChecker(fx *fixture, n int) *registry.SerialChecker {
	return registry.NewSerialChecker(fx.sim.Mem(), fx.q.Engine().AnnPidAddr(), n, fx.q,
		registry.Lookup0("uniqueue").NewModel(registry.Config{}),
		registry.ValuePeek(fx.sim.Mem(), fx.ar, registry.ModelFIFO, fx.q))
}

// TestPreemptionPointSweep releases higher-priority adversaries at every
// slice of a victim's queue operations, fully checked — covering the stale
// helper windows (spurious bit set/clear, victim fixing) exhaustively at
// small scale.
func TestPreemptionPointSweep(t *testing.T) {
	for k := int64(0); k < 110; k++ {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 3, 32)
		chk := newChecker(fx, 3)
		fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			fx.q.Enqueue(e, 100)
			chk.End(0, registry.Result{OK: true})
			fx.q.Enqueue(e, 200)
			chk.End(0, registry.Result{OK: true})
			v, ok := fx.q.Dequeue(e)
			chk.End(0, registry.Result{OK: ok, Val: v})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: k, Body: func(e *sched.Env) {
			fx.q.Enqueue(e, 300)
			chk.End(1, registry.Result{OK: true})
			v, ok := fx.q.Dequeue(e)
			chk.End(1, registry.Result{OK: ok, Val: v})
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: k + 7, Body: func(e *sched.Env) {
			v, ok := fx.q.Dequeue(e)
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

// TestStressWithChecker runs randomized prioritized jobs against the FIFO
// model.
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
							fx.q.Enqueue(e, uint64(100*p+op))
							chk.End(p, registry.Result{OK: true})
						} else {
							v, ok := fx.q.Dequeue(e)
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

// TestHelpedCompletion: a preempted enqueue is finished by its preemptor.
func TestHelpedCompletion(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1, EnableTrace: true}, 2, 32)
	fx.sim.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.q.Enqueue(e, 1)
		fx.q.Enqueue(e, 2)
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 30, Body: func(e *sched.Env) {
		fx.q.Enqueue(e, 3)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fx.sim.Trace().FindNote(0, "help p=0") < 0 {
		t.Skip("no helping occurred at this release point")
	}
	got := fx.q.Snapshot()
	// Order: the preempted op completes (helped) before the preemptor's.
	if len(got) != 3 {
		t.Fatalf("queue = %v, want 3 values", got)
	}
}
