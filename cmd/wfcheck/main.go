// Command wfcheck exhaustively explores release-point schedules of small
// scenarios against the linearizability checkers.
//
// The scheduler's deterministic slice-triggered releases make "preempt the
// victim at exactly its k-th step" a first-class scheduling handle; wfcheck
// sweeps pairs of release points across entire operations, checking every
// resulting schedule. This covers, exhaustively at small scale, the
// preemption-window arguments the paper makes in prose (e.g. "if p is
// preempted between lines 37 and 48...").
//
// The object suites come from internal/registry: every core object (all ten)
// is swept through one generic driver, so registering a new object adds a
// suite with no wfcheck change. The extra "workload" suite drives the
// checked multiprocessor list workload across seeds.
//
// A second mode, -linz, trades exhaustiveness for randomized breadth: seeded
// adversary schedules (internal/linz/adversary) drive every registered
// object — baselines included — and the recorded histories are judged by
// the black-box linearizability engine (internal/linz), which needs nothing
// from the object but its sequential model. A failing (object, seed,
// strategy) triple is a perfect reproducer, replayable with wftrace -linz.
//
// Two scale levers ride on the sweep mode. -prune turns on quiescence
// pruning (explore.SweepPruned): schedules provably equivalent to an
// already-explored one are skipped and reported as a pruned count — the
// failure set is provably identical to the full sweep's (DESIGN.md §15).
// -swarm -budget N replaces exhaustion with seeded stratified sampling
// over the (release-vector × policy × arrival) grid, splitting the budget
// across one stratum per (object, policy, arrival) triple; a single
// invocation scales to millions of checked schedules (see swarm.go).
//
// -cover adds schedule-space coverage to any mode: every executed
// schedule is signed (internal/cover) and the suite lines are followed by
// "cover" lines reporting distinct-behavior counts and the saturation
// curve. Signatures are collected per suite and folded post-merge in suite
// order, so coverage output is byte-identical at any -par setting.
// -progress streams live schedules/sec, coverage-so-far and an ETA to
// stderr (wall-clock, deliberately outside the byte-identity contract).
//
// Usage:
//
//	wfcheck                  # all suites, default depth
//	wfcheck -suite uniqueue  # one object
//	wfcheck -max 200         # widen the release-point range
//	wfcheck -par 0           # sweep objects in parallel on all cores
//	wfcheck -cover -progress # coverage accounting + live progress
//	wfcheck -prune           # skip provably-equivalent schedules
//	wfcheck -swarm -budget 1000000 -cover -par 0  # sample a million schedules
//	wfcheck -linz -rand 200  # 200 randomized schedules per object, black-box checked
//	wfcheck -policy fcfs -arrival bursty   # sweep under another discipline/arrival shape
//	wfcheck -linz -policy reverse-priority # randomized schedules under the stressor policy
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/linz"
	"repro/internal/linz/adversary"
	"repro/internal/prof"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func main() {
	suite := flag.String("suite", "all", "suite: any core registry object, workload, or all")
	maxSlice := flag.Int64("max", 120, "largest release point swept")
	keepGoing := flag.Bool("keepgoing", false, "explore past failures and report every failing vector")
	prune := flag.Bool("prune", false, "skip schedules provably equivalent to an explored one (quiescence pruning)")
	swarm := flag.Bool("swarm", false, "stratified sampling over the (release × policy × arrival) space instead of the exhaustive sweep")
	budget := flag.Int("budget", 100_000, "total schedules sampled across all strata in -swarm mode")
	policy := flag.String("policy", "", "scheduling policy for every schedule (default: the paper's strict-priority model)")
	arrivalName := flag.String("arrival", "", "arrival trace shaping the base workers' releases (default: immediate)")
	par := flag.Int("par", 1, "workers for sweeping suites in parallel (0 = all cores); output is identical at any setting")
	traceFailures := flag.Bool("trace", false, "record traces and write wfcheck_fail.trace.json for a failing schedule")
	coverage := flag.Bool("cover", false, "sign every schedule and report distinct-behavior coverage per suite")
	progress := flag.Bool("progress", false, "stream live progress (schedules/sec, coverage, ETA) to stderr")
	linzMode := flag.Bool("linz", false, "black-box mode: randomized adversary schedules judged by the history-based engine")
	randN := flag.Int("rand", 200, "randomized schedules per object in -linz mode (seeds 1..N, strategies alternating)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a block (contention) profile to this file on exit")
	flag.Parse()

	names, err := selectSuites(options{
		suite: *suite, policy: *policy, arrival: *arrivalName,
		linz: *linzMode, swarm: *swarm, randN: *randN, budget: *budget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfcheck: %v\n", err)
		os.Exit(1)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *blockprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfcheck: %v\n", err)
		os.Exit(1)
	}
	// The stop function is idempotent: deferring it covers error panics,
	// and the exit wrapper still flushes ahead of os.Exit, which skips
	// deferred calls.
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if *linzMode {
		exit(linzMain(names, *randN, *par, *coverage, *progress, *policy))
	}
	if *swarm {
		exit(swarmMain(names, *budget, *par, *maxSlice, *coverage, *progress))
	}
	if *suite == "all" && (*policy != "" || *arrivalName != "") {
		// The workload suite builds its own simulator configuration; under
		// a non-default policy or arrival trace it is skipped (loudly, not
		// silently passed over).
		fmt.Fprintf(os.Stderr, "wfcheck: skipping workload suite under -policy/-arrival (registry sweeps only)\n")
	}

	var meter *cover.Meter
	if *progress {
		meter = cover.NewMeter(os.Stderr, "wfcheck", sweepTotal(names, *maxSlice), 0)
	}

	type outcome struct {
		n      int
		pruned int
		sigs   []uint64
		err    error
	}
	observing := *coverage || *progress
	// Suites are independent simulations; fan them out and report in name
	// order so -par only changes wall-clock, never output. Signatures are
	// collected per suite (enumeration order within each) and folded after
	// the merge, which keeps the cover lines inside the same contract.
	results, _ := harness.Map(len(names), harness.Options{Workers: *par}, func(i int) (outcome, error) {
		var o outcome
		observe := func(sig uint64) {
			if *coverage {
				o.sigs = append(o.sigs, sig)
			}
			meter.Note(sig)
			meter.Done()
		}
		if names[i] == "workload" {
			var obs func(uint64)
			if observing {
				obs = observe
			}
			o.n, o.err = workloadSweep(*maxSlice, obs)
			return o, nil
		}
		cfg := registry.SweepConfig{Max: *maxSlice, KeepGoing: *keepGoing, Trace: *traceFailures,
			Policy: *policy, Arrival: *arrivalName, Prune: *prune}
		if observing {
			cfg.Observe = func(rel []int64, sig uint64) { observe(sig) }
		}
		d := registry.Lookup0(names[i])
		si, err := d.SweepStats(cfg)
		o.n, o.pruned, o.err = si.Explored, si.Pruned, err
		return o, nil
	})
	meter.Finish()

	total, totalPruned := 0, 0
	failed := false
	acc := cover.NewAccumulator()
	for i, o := range results {
		if o.err != nil {
			var fs explore.Failures
			if errors.As(o.err, &fs) {
				// KeepGoing sweep: every failing vector is a reproducer;
				// report them all and keep going.
				fmt.Fprintf(os.Stderr, "wfcheck: %s: %d schedules explored: %v\n", names[i], o.n, o.err)
				failed = true
				continue
			}
			fmt.Fprintf(os.Stderr, "wfcheck: %s: %v\n", names[i], o.err)
			exit(1)
		}
		if *prune {
			// The pruned count rides along only when asked for, so the
			// default output (and its committed golden) is untouched.
			fmt.Printf("%-10s %6d schedules explored (%d pruned), 0 violations\n", names[i], o.n, o.pruned)
		} else {
			fmt.Printf("%-10s %6d schedules explored, 0 violations\n", names[i], o.n)
		}
		if *coverage {
			suiteAcc := cover.NewAccumulator()
			for _, sig := range o.sigs {
				suiteAcc.Add(sig)
				acc.Add(sig)
			}
			printCover(names[i], suiteAcc, false)
		}
		total += o.n
		totalPruned += o.pruned
	}
	if *prune {
		fmt.Printf("%-10s %6d schedules total (%d pruned)\n", "all", total, totalPruned)
	} else {
		fmt.Printf("%-10s %6d schedules total\n", "all", total)
	}
	if *coverage {
		printCover("all", acc, true)
	}
	if failed {
		exit(1)
	}
}

// sweepTotal prices the whole campaign up front (the progress meter's ETA
// denominator): the exact per-object schedule counts via SweepSpace plus
// one workload run per seed.
func sweepTotal(names []string, maxSlice int64) int {
	total := 0
	for _, name := range names {
		if name == "workload" {
			total += int(maxSlice)
			continue
		}
		n, err := registry.Lookup0(name).SweepSpace(registry.SweepConfig{Max: maxSlice})
		if err != nil {
			return 0 // unpriceable: the meter just drops the ETA
		}
		total += n
	}
	return total
}

// printCover renders one suite's coverage line; the saturation curve rides
// along on the aggregate line only (per-suite curves would be noise).
func printCover(name string, a *cover.Accumulator, curve bool) {
	st := a.Stats()
	if st.Schedules == 0 {
		fmt.Printf("%-10s cover  no schedules signed\n", name)
		return
	}
	fmt.Printf("%-10s cover  %6d distinct behaviors / %d schedules (%.1f%%)\n",
		name, st.Distinct, st.Schedules, 100*st.Coverage)
	if !curve {
		return
	}
	fmt.Printf("%-10s curve ", name)
	for _, p := range st.Saturation {
		fmt.Printf(" %d:%d", p.Schedules, p.Distinct)
	}
	fmt.Println()
}

// options carries the flag values selectSuites checks.
type options struct {
	suite, policy, arrival string
	linz, swarm            bool
	randN, budget          int
}

// selectSuites checks the flag combination before any schedule runs and
// resolves -suite to the suites the chosen mode covers, in report order. A
// typo'd name or a combination one mode would silently ignore is an error,
// so it cannot pass for a run that checked nothing.
func selectSuites(o options) ([]string, error) {
	// Resolve the policy and arrival names first so a typo fails with the
	// known template lists.
	if _, err := sched.PolicyByName(o.policy); err != nil {
		return nil, err
	}
	if o.arrival != "" {
		if _, err := arrival.ByName(o.arrival); err != nil {
			return nil, err
		}
	}
	if o.linz {
		if o.arrival != "" {
			return nil, errors.New("-arrival shapes the sweep cast; -linz generates its own randomized releases")
		}
		if o.swarm {
			return nil, errors.New("-swarm samples the sweep space; -linz generates its own randomized schedules")
		}
		if o.randN < 1 {
			return nil, fmt.Errorf("-rand %d: -linz needs at least one randomized schedule per object", o.randN)
		}
		if o.suite == "all" {
			return registry.Names(), nil
		}
		if _, err := registry.Lookup(o.suite); err != nil {
			return nil, err
		}
		return []string{o.suite}, nil
	}
	if o.swarm {
		// The swarm enumerates the policy and arrival axes itself; a fixed
		// -policy/-arrival would silently shadow most of its grid.
		if o.policy != "" || o.arrival != "" {
			return nil, errors.New("-swarm spans every policy and arrival template; -policy/-arrival apply to the exhaustive sweep")
		}
		objects := registry.CoreNames()
		if o.suite != "all" {
			if !slices.Contains(objects, o.suite) {
				return nil, fmt.Errorf("-swarm covers the core objects (have %v), not %q", objects, o.suite)
			}
			objects = []string{o.suite}
		}
		if o.budget < 1 {
			return nil, errors.New("-swarm needs a positive -budget")
		}
		return objects, nil
	}
	offDefault := o.policy != "" || o.arrival != ""
	names := append(registry.CoreNames(), "workload")
	if o.suite == "all" {
		if offDefault {
			return names[:len(names)-1], nil
		}
		return names, nil
	}
	if !slices.Contains(names, o.suite) {
		return nil, fmt.Errorf("unknown suite %q (have %v)", o.suite, names)
	}
	if o.suite == "workload" && offDefault {
		return nil, errors.New("the workload suite drives its own scheduler config; -policy/-arrival apply to the registry sweeps only")
	}
	return []string{o.suite}, nil
}

// linzMain is the -linz mode: randN seeded adversary schedules per object
// (seeds 1..N, strategies alternating uniform/pct), every recorded history
// judged by the black-box engine. Covers all registered objects, baselines
// included — black-box checking needs only the sequential model. With
// coverage on, every run is signed by its interleaving shape (Run.Sig).
func linzMain(names []string, randN, par int, coverage, progress bool, policy string) int {
	var meter *cover.Meter
	if progress {
		meter = cover.NewMeter(os.Stderr, "wfcheck -linz", len(names)*randN, 0)
	}

	type outcome struct {
		runs, ops, states int
		sigs              []uint64
		err               error
	}
	results, _ := harness.Map(len(names), harness.Options{Workers: par}, func(i int) (outcome, error) {
		var o outcome
		for n := 0; n < randN; n++ {
			strat := adversary.Uniform
			if n%2 == 1 {
				strat = adversary.PCT
			}
			cfg := adversary.Config{Object: names[i], Seed: int64(n + 1), Strategy: strat, Policy: policy}
			r, err := adversary.Execute(cfg)
			if err != nil {
				o.err = err
				return o, nil
			}
			out, err := r.Check(linz.Options{})
			if err != nil {
				o.err = fmt.Errorf("%s seed=%d strategy=%s: %w", names[i], cfg.Seed, strat, err)
				return o, nil
			}
			if !out.OK {
				o.err = fmt.Errorf("%s seed=%d strategy=%s: NOT linearizable\n%s\n%s",
					names[i], cfg.Seed, strat, r.History.Text(), out.Counterexample.Tree(r.History))
				return o, nil
			}
			if coverage || progress {
				sig := r.Sig()
				if coverage {
					o.sigs = append(o.sigs, sig)
				}
				meter.Note(sig)
			}
			meter.Done()
			o.runs++
			o.ops += len(r.History.Ops)
			o.states += out.States
			r.Close()
		}
		return o, nil
	})
	meter.Finish()

	total := 0
	acc := cover.NewAccumulator()
	for i, o := range results {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "wfcheck: %v\n", o.err)
			return 1
		}
		fmt.Printf("%-10s %6d schedules, %6d ops, %8d states, linearizable\n", names[i], o.runs, o.ops, o.states)
		if coverage {
			suiteAcc := cover.NewAccumulator()
			for _, sig := range o.sigs {
				suiteAcc.Add(sig)
				acc.Add(sig)
			}
			printCover(names[i], suiteAcc, false)
		}
		total += o.runs
	}
	fmt.Printf("%-10s %6d randomized schedules total\n", "all", total)
	if coverage {
		printCover("all", acc, true)
	}
	return 0
}

// workloadSweep drives the checked multiprocessor workload across many
// seeds (each seed is a distinct schedule of cross-processor interleavings
// and preemptions). observe, when non-nil, receives one behavioral
// signature per seed.
func workloadSweep(maxSlice int64, observe func(sig uint64)) (int, error) {
	n := 0
	for seed := int64(0); seed < maxSlice; seed++ {
		res, err := scenario.RunList(scenario.ListConfig{
			Kind: scenario.WaitFree, Processors: 3, BurstsPerCPU: 2, BurstOps: 4,
			TotalOps: 120, ListSize: 16, Seed: seed, Check: true,
			Granularity: sched.Fine,
		})
		if err != nil {
			return n, fmt.Errorf("seed %d: %w", seed, err)
		}
		if res.Livelocked {
			return n, fmt.Errorf("seed %d: livelocked", seed)
		}
		if observe != nil {
			h := cover.NewHasher()
			h.String("workload")
			h.Word(uint64(res.Ops))
			h.Word(uint64(res.Makespan))
			h.Word(uint64(res.WorstOp))
			h.Word(uint64(res.Retries))
			h.Word(uint64(res.Final))
			observe(h.Sum())
		}
		n++
	}
	return n, nil
}
