package main

// Swarm mode: -swarm -budget N does seeded stratified sampling over the
// (release-vector × policy × arrival) space. The budget is split evenly
// across strata — one stratum per (core object, policy template, arrival
// template) triple, the remainder going one schedule each to the earliest
// strata — and every stratum samples its release vectors from its own
// deterministic seed. A stratum's outcome is therefore a pure function of
// the invocation's flags, independent of scheduling order, so the merged
// report keeps wfcheck's byte-identity contract at any -par: strata fan out
// over internal/harness, results merge in strata order, and signatures fold
// post-merge exactly as the sweep mode's do.
//
// Unlike the exhaustive sweep, the swarm's job is volume: millions of
// checked schedules in one invocation, with -cover's saturation curve
// reporting how much behavioral novelty the extra volume still buys.

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/sched"
)

// stratum is one cell of the sampling grid.
type stratum struct {
	object  string
	policy  string // "" = the paper's strict-priority default
	arrival string // "" = immediate release
	seed    int64
	n       int // schedules allotted from the budget
}

// swarmPolicies is the policy axis: the default discipline plus every
// registered template except "priority", which names the same discipline as
// the default and would sample the stratum twice under a different label.
func swarmPolicies() []string {
	out := []string{""}
	for _, p := range sched.PolicyNames() {
		if p != "priority" {
			out = append(out, p)
		}
	}
	return out
}

// swarmStrata builds the grid in its canonical order — object-major, then
// policy, then arrival — and splits the budget. Strata beyond the budget
// get zero schedules and are dropped, so tiny smoke budgets still touch the
// earliest strata deterministically.
func swarmStrata(objects []string, budget int) []stratum {
	policies := swarmPolicies()
	arrivals := append([]string{""}, arrival.Names()...)
	grid := make([]stratum, 0, len(objects)*len(policies)*len(arrivals))
	for _, obj := range objects {
		for _, pol := range policies {
			for _, arr := range arrivals {
				grid = append(grid, stratum{object: obj, policy: pol, arrival: arr,
					seed: int64(1 + len(grid))})
			}
		}
	}
	per, rem := budget/len(grid), budget%len(grid)
	out := grid[:0]
	for i := range grid {
		grid[i].n = per
		if i < rem {
			grid[i].n++
		}
		if grid[i].n > 0 {
			out = append(out, grid[i])
		}
	}
	return out
}

// swarmMain runs the stratified sampling campaign and renders the merged
// report. Returns the process exit code.
func swarmMain(objects []string, budget, par int, maxSlice int64, coverage, progress bool) int {
	strata := swarmStrata(objects, budget)
	policies, arrivals := swarmPolicies(), append([]string{""}, arrival.Names()...)
	fmt.Printf("%-10s %8d schedules over %d strata (%d objects × %d policies × %d arrivals), max %d\n",
		"swarm", budget, len(strata), len(objects), len(policies), len(arrivals), maxSlice)

	var meter *cover.Meter
	if progress {
		meter = cover.NewMeter(os.Stderr, "wfcheck -swarm", budget, 0)
	}
	observing := coverage || progress

	type outcome struct {
		n     int
		sigs  []uint64
		fails explore.Failures
	}
	results, err := harness.Map(len(strata), harness.Options{Workers: par}, func(i int) (outcome, error) {
		st := strata[i]
		var o outcome
		cfg := registry.SwarmConfig{
			Schedules: st.n, Seed: st.seed, Max: maxSlice,
			Policy: st.policy, Arrival: st.arrival,
		}
		if observing {
			cfg.Observe = func(rel []int64, sig uint64) {
				if coverage {
					o.sigs = append(o.sigs, sig)
				}
				meter.Note(sig)
				meter.Done()
			}
		}
		n, err := registry.Lookup0(st.object).Swarm(cfg)
		o.n = n
		if err != nil {
			var fs explore.Failures
			if !errors.As(err, &fs) {
				return o, fmt.Errorf("%s policy=%q arrival=%q seed=%d: %w", st.object, st.policy, st.arrival, st.seed, err)
			}
			o.fails = fs
			// Failed schedules never reach Observe; keep the meter's
			// progress numerator honest anyway.
			for range fs {
				meter.Done()
			}
		}
		return o, nil
	})
	meter.Finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfcheck: %v\n", err)
		return 1
	}

	// Merge in strata order: per-object totals (strata are object-major, so
	// each object's cells are contiguous), failures to stderr as perfect
	// reproducers, signatures folded per object and into the aggregate.
	total, violations := 0, 0
	acc := cover.NewAccumulator()
	objAcc := cover.NewAccumulator()
	objN, objViol := 0, 0
	flush := func(object string) {
		fmt.Printf("%-10s %8d schedules sampled, %d violations\n", object, objN, objViol)
		if coverage {
			printCover(object, objAcc, false)
		}
		objAcc = cover.NewAccumulator()
		objN, objViol = 0, 0
	}
	for i, o := range results {
		st := strata[i]
		if i > 0 && strata[i-1].object != st.object {
			flush(strata[i-1].object)
		}
		total += o.n
		objN += o.n
		violations += len(o.fails)
		objViol += len(o.fails)
		for _, sig := range o.sigs {
			objAcc.Add(sig)
			acc.Add(sig)
		}
		for _, f := range o.fails {
			fmt.Fprintf(os.Stderr, "wfcheck: swarm %s policy=%q arrival=%q seed=%d rel=%v: %v\n",
				st.object, st.policy, st.arrival, st.seed, f.Vector, f.Err)
		}
	}
	flush(strata[len(strata)-1].object)
	fmt.Printf("%-10s %8d schedules total, %d violations\n", "all", total, violations)
	if coverage {
		printCover("all", acc, true)
	}
	if violations > 0 {
		return 1
	}
	return 0
}
