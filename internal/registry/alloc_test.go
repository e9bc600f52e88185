package registry

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/sched"
)

// sweepAllocsCap bounds the allocations one swept schedule may perform
// (instance Build + checker state; the sweeper itself must contribute
// nothing per schedule). The burn-down that introduced the sweeper brought
// the real figures to 19–87 allocs/schedule (object-dependent; unimwcas's
// universal-construction Build is the ceiling) from several hundred; the
// cap has headroom for noise but fails long before the old per-schedule
// construction pattern — a metrics.Report, op scripts, or a fresh Sim per
// schedule — can sneak back in.
const sweepAllocsCap = 100

// TestSweepAllocsPerSchedule pins the per-schedule allocation count of the
// sweep driver for every core object: op scripts, job specs, body closures,
// signature computation and the pooled Sim are all per-sweep costs, so a
// schedule pays only for its object instance.
func TestSweepAllocsPerSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is exact but slow across all objects")
	}
	vecs, err := explore.Vectors(exploreConfig(SweepConfig{Max: 16}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CoreNames() {
		t.Run(name, func(t *testing.T) {
			d := Lookup0(name)
			cfg := SweepConfig{Max: 16, Observe: func(rel []int64, sig uint64) {}}
			sw, err := d.newSweeper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.close()
			i := 0
			avg := testing.AllocsPerRun(len(vecs)*2, func() {
				if _, err := sw.runOne(vecs[i%len(vecs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%s: %.1f allocs/schedule", name, avg)
			if avg > sweepAllocsCap {
				t.Errorf("%s: %.1f allocs per swept schedule, cap %d — per-schedule work crept back into the sweep loop",
					name, avg, sweepAllocsCap)
			}
		})
	}
}

// sweepHandoffs pins, per core object, the scheduler-to-coroutine handoffs
// and the slices of a Max: 16 sweep (32 schedules) under the default
// policy with run-ahead on. The uni family's victim-plus-adversaries cast
// batches between releases (under five handoffs a schedule); the multi
// family's two workers alternate slice by slice across CPUs, so nearly
// every slice is a handoff.
var sweepHandoffs = []struct {
	name             string
	handoffs, slices uint64
}{
	{"multihash", 15128, 15906},
	{"multilist", 17716, 18922},
	{"multimwcas", 17526, 17926},
	{"multiqueue", 11307, 11855},
	{"multistack", 11108, 11554},
	{"unihash", 156, 5241},
	{"unilist", 156, 7444},
	{"unimwcas", 156, 3110},
	{"uniqueue", 156, 3360},
	{"unistack", 156, 3783},
}

// TestSweepHandoffs pins the handoff and slice counts of every core
// object's Max: 16 sweep exactly: with run-ahead on they must equal the
// table, and with the serial loop (SetRunAhead(false)) every slice must be
// one handoff, over the same slices.
func TestSweepHandoffs(t *testing.T) {
	vecs, err := explore.Vectors(exploreConfig(SweepConfig{Max: 16}))
	if err != nil {
		t.Fatal(err)
	}
	count := func(t *testing.T, name string, runAhead bool) (handoffs, slices uint64) {
		sched.SetRunAhead(runAhead)
		defer sched.SetRunAhead(true)
		sw, err := Lookup0(name).newSweeper(SweepConfig{Max: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer sw.close()
		for _, v := range vecs {
			if _, err := sw.runOne(v); err != nil {
				t.Fatal(err)
			}
			handoffs += sw.sim.Handoffs()
			slices += sw.sim.Slices()
		}
		return handoffs, slices
	}
	if len(sweepHandoffs) != len(CoreNames()) {
		t.Fatalf("handoff table covers %d objects, registry has %d core objects", len(sweepHandoffs), len(CoreNames()))
	}
	for _, want := range sweepHandoffs {
		t.Run(want.name, func(t *testing.T) {
			if h, sl := count(t, want.name, true); h != want.handoffs || sl != want.slices {
				t.Errorf("run-ahead on: %d handoffs over %d slices, want %d over %d", h, sl, want.handoffs, want.slices)
			}
			if h, sl := count(t, want.name, false); h != want.slices || sl != want.slices {
				t.Errorf("serial loop: %d handoffs over %d slices, want one per slice (%d)", h, sl, want.slices)
			}
		})
	}
}
