package multilist_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/core/multilist"
	"repro/internal/registry"
	"repro/internal/sched"
)

// TestConcurrentSlotSharingDetected documents the process-slot discipline:
// two jobs that run CONCURRENTLY (different processors) with the same slot
// violate the model — the slot's Par/Rv records are per-operation state —
// and the structural checker catches the resulting misbehaviour. (Sequential
// slot reuse, which the workload layer performs, is fine.)
func TestConcurrentSlotSharingDetected(t *testing.T) {
	violated := false
	for seed := int64(0); seed < 40 && !violated; seed++ {
		s := sched.New(sched.Config{Processors: 2, Seed: seed, MemWords: 1 << 16})
		ar, err := arena.New(s.Mem(), 128, 2)
		if err != nil {
			t.Fatal(err)
		}
		l, err := multilist.New(s.Mem(), ar, multilist.Config{Processors: 2, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		ar.Freeze()
		chk := registry.NewStructChecker(registry.ModelSorted, l, s.Mem())
		body := func(base uint64) func(*sched.Env) {
			return func(e *sched.Env) {
				for i := uint64(0); i < 10; i++ {
					key := base + i
					chk.Begin(int(base), registry.Op{Code: registry.OpInsert, Key: key})
					ok := l.Insert(e, key, key)
					chk.End(int(base), registry.Result{OK: ok})
				}
			}
		}
		// Both jobs use slot 0 — the violation.
		s.Spawn(sched.JobSpec{Name: "a", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: body(100)})
		s.Spawn(sched.JobSpec{Name: "b", CPU: 1, Prio: 1, Slot: 0, AfterSlices: -1, Body: body(200)})
		if err := s.Run(); err != nil {
			violated = true // a panic (pool exhaustion, cycle) also counts
			break
		}
		chk.Finish()
		if chk.Err() != nil {
			violated = true
		}
		// Silent data loss also counts: 20 unique inserts must yield 20 keys.
		if len(l.Snapshot()) != 20 {
			violated = true
		}
	}
	if !violated {
		t.Skip("no violation surfaced in 40 seeds; slot sharing happened to serialize")
	}
}
