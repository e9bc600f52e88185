package uniqueue_test

import (
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/registry"
	"repro/internal/sched"
)

// TestPreemptionWindowSweepFIFO drives a nested two-adversary release-point
// sweep through the explore library, validating every schedule with the
// structural FIFO checker: each splice must append at the tail, each
// unsplice must remove the head, and every structural event must be claimed
// by exactly one operation inside its window. This covers the helper
// windows (spurious bit set/clear, helper-completes-victim) that the
// single-adversary sweep in uniqueue_test.go cannot reach.
func TestPreemptionWindowSweepFIFO(t *testing.T) {
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 30, Gap: 8},
		func(rel []int64) error {
			fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 3, 32)
			chk := registry.NewStructChecker(registry.ModelFIFO, fx.q, fx.sim.Mem())
			fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				chk.Begin(0, registry.Op{Code: registry.OpEnqueue, Val: 100})
				fx.q.Enqueue(e, 100)
				chk.End(0, registry.Result{OK: true})
				chk.Begin(0, registry.Op{Code: registry.OpEnqueue, Val: 200})
				fx.q.Enqueue(e, 200)
				chk.End(0, registry.Result{OK: true})
				chk.Begin(0, registry.Op{Code: registry.OpDequeue})
				v, ok := fx.q.Dequeue(e)
				chk.End(0, registry.Result{OK: ok, Val: v})
			}})
			fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: rel[0], Body: func(e *sched.Env) {
				chk.Begin(1, registry.Op{Code: registry.OpEnqueue, Val: 300})
				fx.q.Enqueue(e, 300)
				chk.End(1, registry.Result{OK: true})
				chk.Begin(1, registry.Op{Code: registry.OpDequeue})
				v, ok := fx.q.Dequeue(e)
				chk.End(1, registry.Result{OK: ok, Val: v})
			}})
			fx.sim.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: rel[1], Body: func(e *sched.Env) {
				chk.Begin(2, registry.Op{Code: registry.OpDequeue})
				v, ok := fx.q.Dequeue(e)
				chk.End(2, registry.Result{OK: ok, Val: v})
			}})
			if err := fx.sim.Run(); err != nil {
				return err
			}
			chk.Finish()
			if err := chk.Err(); err != nil {
				return err
			}
			// Independent FIFO assertion: the victim enqueued 100 before
			// 200, so pops must respect that order.
			i100, i200 := -1, -1
			for i, v := range chk.PopOrder() {
				switch v {
				case 100:
					i100 = i
				case 200:
					i200 = i
				}
			}
			if i100 >= 0 && i200 >= 0 && i200 < i100 {
				return fmt.Errorf("FIFO violated: 200 popped at %d before 100 at %d (pops %v)",
					i200, i100, chk.PopOrder())
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d two-adversary queue schedules", n)
}
