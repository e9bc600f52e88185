package unistack_test

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/registry"
	"repro/internal/sched"
)

// TestPreemptionWindowSweepLIFO is the stack analog of the queue's
// explore-driven sweep: two nested adversaries released at every pair of
// victim slices (within the Gap window), every schedule validated by the
// structural LIFO checker — pushes must prepend at the top, pops must
// remove the top, and every structural event must be claimed by exactly one
// operation inside its window.
func TestPreemptionWindowSweepLIFO(t *testing.T) {
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 30, Gap: 8},
		func(rel []int64) error {
			fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 3, 32)
			chk := registry.NewStructChecker(registry.ModelLIFO, fx.st, fx.sim.Mem())
			fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				chk.Begin(0, registry.Op{Code: registry.OpPush, Val: 100})
				fx.st.Push(e, 100)
				chk.End(0, registry.Result{OK: true})
				chk.Begin(0, registry.Op{Code: registry.OpPush, Val: 200})
				fx.st.Push(e, 200)
				chk.End(0, registry.Result{OK: true})
				chk.Begin(0, registry.Op{Code: registry.OpPop})
				v, ok := fx.st.Pop(e)
				chk.End(0, registry.Result{OK: ok, Val: v})
			}})
			fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: rel[0], Body: func(e *sched.Env) {
				chk.Begin(1, registry.Op{Code: registry.OpPush, Val: 300})
				fx.st.Push(e, 300)
				chk.End(1, registry.Result{OK: true})
				chk.Begin(1, registry.Op{Code: registry.OpPop})
				v, ok := fx.st.Pop(e)
				chk.End(1, registry.Result{OK: ok, Val: v})
			}})
			fx.sim.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: rel[1], Body: func(e *sched.Env) {
				chk.Begin(2, registry.Op{Code: registry.OpPop})
				v, ok := fx.st.Pop(e)
				chk.End(2, registry.Result{OK: ok, Val: v})
			}})
			if err := fx.sim.Run(); err != nil {
				return err
			}
			chk.Finish()
			return chk.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d two-adversary stack schedules", n)
}
