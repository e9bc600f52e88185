package valois_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/baseline/valois"
	"repro/internal/registry"
	"repro/internal/sched"
)

func newList(t testing.TB, s *sched.Sim, n, nodes int, seed []uint64) (*arena.Arena, *valois.List) {
	t.Helper()
	ar, err := arena.New(s.Mem(), nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	l, err := valois.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		if err := l.SeedAscending(seed); err != nil {
			t.Fatal(err)
		}
	}
	ar.Freeze()
	return ar, l
}

func TestSequentialSemantics(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16})
	_, l := newList(t, s, 1, 64, nil)
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
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
		// Reinsert after delete: a fresh node is used (deferred
		// reclamation), and the key is visible again.
		if !l.Insert(e, 5, 0) {
			t.Error("reinsert after delete failed")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := l.Snapshot()
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 15 {
		t.Errorf("final list = %v, want [5 10 15]", got)
	}
}

// TestStressWithChecker validates the CAS-only list under cross-processor
// contention with the generic structural checker.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const (
			nCPU   = 3
			nProcs = 6
			nOps   = 10
		)
		s := sched.New(sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 18})
		_, l := newList(t, s, nProcs, 1024, []uint64{2, 4, 6})
		chk := registry.NewStructChecker(registry.ModelSorted, l, s.Mem())
		rng := s.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			s.Spawn(sched.JobSpec{
				Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(5)), Slot: p,
				At: rng.Int63n(400), AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < nOps; op++ {
						key := uint64(1 + e.Rand().Intn(10))
						var ok bool
						switch e.Rand().Intn(3) {
						case 0:
							chk.Begin(p, registry.Op{Code: registry.OpInsert, Key: key})
							ok = l.Insert(e, key, key)
						case 1:
							chk.Begin(p, registry.Op{Code: registry.OpDelete, Key: key})
							ok = l.Delete(e, key)
						default:
							chk.Begin(p, registry.Op{Code: registry.OpSearch, Key: key})
							ok = l.Search(e, key)
						}
						chk.End(p, registry.Result{OK: ok})
					}
				},
			})
		}
		if err := s.Run(); err != nil {
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

// TestMarkedNodesInvisible: a logically deleted node disappears from
// snapshots even before physical unlinking.
func TestMarkedNodesInvisible(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16})
	_, l := newList(t, s, 1, 32, []uint64{10, 20, 30})
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		if !l.Delete(e, 20) {
			t.Error("Delete(20) failed")
		}
		if l.Search(e, 20) {
			t.Error("deleted key still found")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := l.Snapshot()
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("list = %v, want [10 30]", got)
	}
}
