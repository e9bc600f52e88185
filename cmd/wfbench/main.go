// Command wfbench regenerates the paper's tables and figures at full scale
// and prints them as text tables.
//
// Usage:
//
//	wfbench -exp all                 # everything (a few minutes)
//	wfbench -exp fig1                # Figure 1 worst-case time table
//	wfbench -exp sec34 -ops 50000    # Section 3.4 throughput comparison
//	wfbench -exp retries             # Section 3.4 worst-case comparison
//	wfbench -exp valois              # the [7]-cited CAS-only comparison
//	wfbench -exp ablations           # A1-A4 design-choice ablations
//	wfbench -exp native              # real-hardware ops/sec vs a sync.Mutex
//	wfbench -exp service             # hot-key counter & rate limiter, both backends
//
// All numbers are virtual time units (one unit per memory operation; see
// internal/sched). The shapes — linearity in W/T/P, wait-free/lock-free
// ratios, bounded worst cases — are the reproduction targets; see
// EXPERIMENTS.md for the paper-versus-measured record.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	waitfree "repro"
	"repro/internal/arrival"
	"repro/internal/baseline/valois"
	"repro/internal/core/multimwcas"
	"repro/internal/core/unimwcas"
	"repro/internal/cover"
	"repro/internal/harness"
	"repro/internal/helping"
	"repro/internal/metrics"
	"repro/internal/prim"
	"repro/internal/prof"
	"repro/internal/registry"
	"repro/internal/rt"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/trace"
	"repro/internal/tracex"
)

// withTrace is the -trace flag: record the report runs' event logs and
// write span-model exports next to the BENCH_*.json files. withProgress is
// the -progress flag: live sweep progress on stderr. benchPolicy and
// benchArrival are the -policy/-arrival flags: the scheduling discipline
// and arrival trace for the report and sweep experiments (empty = the
// paper's strict-priority model with the legacy release shapes, keeping
// every BENCH_*.json byte-identical). The service* vars are the -exp
// service knobs: which service object, which variant, and the keyed
// traffic shape (hot-key count, Zipf skew, tenant count).
var (
	withTrace         bool
	withProgress      bool
	benchPolicy       string
	benchArrival      string
	serviceSel        string
	serviceVariantSel string
	serviceKeys       int
	serviceTenants    int
	serviceZipf       float64
)

func main() {
	var p params
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), "|")+"|all")
	flag.IntVar(&p.ops, "ops", 50000, "total operations for the sec34 experiments (the paper used 50000)")
	flag.IntVar(&p.procs, "procs", 4, "processors for the sec34 experiments (the paper used 4)")
	flag.Int64Var(&p.seed, "seed", 11, "random seed")
	flag.IntVar(&p.sweepSeeds, "sweepseeds", 3, "seeds per cell for the -exp sweep matrix (at least 1)")
	flag.StringVar(&p.outdir, "outdir", ".", "directory for the BENCH_<object>.json run reports")
	flag.StringVar(&p.coreBaseline, "corebaseline", "", "with -exp core: committed BENCH_core.json to gate ns/slice regressions against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a block (contention) profile to this file on exit")
	flag.BoolVar(&withProgress, "progress", false, "with -exp sweep: stream live progress (cells/sec, coverage, ETA) to stderr")
	flag.BoolVar(&withTrace, "trace", false, "with -exp report: also write TRACE_<object>.trace.json span exports (Perfetto)")
	flag.StringVar(&benchPolicy, "policy", "", "with -exp report/sweep: scheduling policy (default: the paper's strict-priority model)")
	flag.StringVar(&benchArrival, "arrival", "", "with -exp report/sweep: arrival trace for the burst releases (default: the legacy shapes)")
	flag.StringVar(&serviceSel, "service", "both", "with -exp service: service object (counter|limiter|both)")
	flag.StringVar(&serviceVariantSel, "variant", "all", "with -exp service: store variant (waitfree|atomic|lock|sharded|all)")
	flag.IntVar(&serviceKeys, "keys", 64, "with -exp service: hot-key space size")
	flag.IntVar(&serviceTenants, "tenants", 4, "with -exp service: tenant count for the rate limiter")
	flag.Float64Var(&serviceZipf, "zipf", 1.2, "with -exp service: Zipf skew of the key popularity (>1; <=1 disables skew)")
	flag.Parse()

	sel, err := selectExperiments(*exp, p.sweepSeeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(2)
	}
	if _, err := sched.PolicyByName(benchPolicy); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
	if benchArrival != "" {
		if _, err := arrival.ByName(benchArrival); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
			os.Exit(1)
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *blockprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
	// Idempotent: the defer covers error returns, the exit wrapper covers
	// os.Exit (which skips defers).
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if err := os.MkdirAll(p.outdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		exit(1)
	}

	for _, x := range sel {
		if err := x.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", x.name, err)
			exit(1)
		}
	}
	stopProf()
}

// params carries the flag values the experiments read.
type params struct {
	ops, procs   int
	seed         int64
	sweepSeeds   int
	outdir       string
	coreBaseline string
}

// experiment is one -exp choice.
type experiment struct {
	name string
	run  func(p params) error
}

// experiments lists every -exp choice in the order -exp all runs them.
var experiments = []experiment{
	{"fig1", func(p params) error { return fig1(p.seed) }},
	{"ext", func(p params) error { return extensions(p.seed) }},
	{"mwcas", func(p params) error { return mwcasTable(p.seed) }},
	{"sec34", func(p params) error { return sec34(p.ops, p.procs, p.seed) }},
	{"retries", func(p params) error { return retries(p.ops, p.procs, p.seed) }},
	{"valois", func(p params) error { return valoisCmp(p.seed) }},
	{"ablations", func(p params) error { return ablations(p.seed) }},
	{"report", func(p params) error { return reports(p.outdir, p.seed) }},
	{"sweep", func(p params) error { return sweep(p.outdir, p.sweepSeeds) }},
	{"core", func(p params) error { return coreBench(p.outdir, p.coreBaseline) }},
	{"native", func(p params) error { return nativeBench(p.outdir, p.ops, p.procs, p.seed) }},
	{"service", func(p params) error { return serviceBench(p.outdir, p.ops, p.procs, p.seed) }},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

// selectExperiments resolves -exp (one name, or "all") and validates
// -sweepseeds; an unknown name is an error listing the valid ones, so a
// typo cannot pass for a run that printed nothing.
func selectExperiments(exp string, sweepSeeds int) ([]experiment, error) {
	if sweepSeeds < 1 {
		return nil, fmt.Errorf("-sweepseeds %d: need at least one seed per cell", sweepSeeds)
	}
	if exp == "all" {
		return experiments, nil
	}
	for _, x := range experiments {
		if x.name == exp {
			return []experiment{x}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s|all)", exp, strings.Join(experimentNames(), "|"))
}

func table(title string, header []string, rows [][]string) {
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
	}
}

// tens returns the n keys 10, 20, ..., 10n: a seeded list whose gaps take
// the probe keys 10n+5 at the far end.
func tens(n int) []uint64 {
	keys := make([]uint64, n)
	for j := range keys {
		keys[j] = uint64(10 * (j + 1))
	}
	return keys
}

// fig1 regenerates the Figure 1 summary table: worst-case operation times
// for the four implementations, demonstrating Θ(W), Θ(2T), Θ(2PW), Θ(2PT).
func fig1(seed int64) error {
	var rows [][]string

	// Row 1: uniprocessor MWCAS vs W.
	for _, w := range []int{2, 4, 8, 16, 32} {
		s := sched.New(sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 12})
		obj, err := unimwcas.New(s.Mem(), 2, w)
		if err != nil {
			return err
		}
		base := s.Mem().MustAlloc("app", w)
		addrs := make([]shmem.Addr, w)
		old := make([]uint32, w)
		next := make([]uint32, w)
		for j := range addrs {
			addrs[j] = base + shmem.Addr(j)
			obj.InitWord(addrs[j], 0)
			next[j] = 1
		}
		var cost int64
		s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			start := e.Now()
			obj.MWCAS(e, addrs, old, next)
			cost = e.Now() - start
		})
		if err := s.Run(); err != nil {
			return err
		}
		rows = append(rows, []string{"uni MWCAS (CAS)", fmt.Sprintf("W=%d", w), fmt.Sprint(cost), "Θ(W)"})
	}

	// Row 2: uniprocessor list vs T (with one helped preemption: 2T).
	for _, size := range []int{100, 200, 400, 800} {
		s := sched.New(sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 17})
		l, err := registry.Build(s, "unilist", registry.Config{Procs: 2, Capacity: size + 16, SeedKeys: tens(size)})
		if err != nil {
			return err
		}
		key := uint64(10*size + 5)
		var cost int64
		s.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			start := e.Now()
			l.Apply(e, 0, registry.Op{Code: registry.OpInsert, Key: key})
			cost = e.Now() - start
		}})
		s.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: int64(size), Body: func(e *sched.Env) {
			l.Apply(e, 1, registry.Op{Code: registry.OpSearch, Key: key})
		}})
		if err := s.Run(); err != nil {
			return err
		}
		rows = append(rows, []string{"uni list (CAS)", fmt.Sprintf("T=%d", size), fmt.Sprint(cost), "Θ(2T)"})
	}

	// Row 3: multiprocessor MWCAS vs P and W.
	for _, pw := range []struct{ p, w int }{{2, 8}, {4, 8}, {8, 8}, {4, 4}, {4, 16}} {
		s := sched.New(sched.Config{Processors: pw.p, Seed: seed, MemWords: 1 << 14})
		obj, err := multimwcas.New(s.Mem(), multimwcas.Config{Processors: pw.p, Procs: pw.p, Width: pw.w})
		if err != nil {
			return err
		}
		base := s.Mem().MustAlloc("app", pw.w)
		addrs := make([]shmem.Addr, pw.w)
		old := make([]uint64, pw.w)
		next := make([]uint64, pw.w)
		for j := range addrs {
			addrs[j] = base + shmem.Addr(j)
			obj.InitWord(addrs[j], 0)
			next[j] = 1
		}
		worst := make([]int64, pw.p)
		for cpu := 0; cpu < pw.p; cpu++ {
			cpu := cpu
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				start := e.Now()
				obj.MWCAS(e, addrs, old, next)
				worst[cpu] = e.Now() - start
			}})
		}
		if err := s.Run(); err != nil {
			return err
		}
		var m int64
		for _, v := range worst {
			if v > m {
				m = v
			}
		}
		rows = append(rows, []string{"multi MWCAS (CAS+CCAS)", fmt.Sprintf("P=%d W=%d", pw.p, pw.w), fmt.Sprint(m), "Θ(2PW)"})
	}

	// Row 4: multiprocessor list vs P and T.
	for _, pt := range []struct{ p, t int }{{2, 200}, {4, 200}, {8, 200}, {4, 100}, {4, 400}} {
		s := sched.New(sched.Config{Processors: pt.p, Seed: seed, MemWords: 1 << 18})
		l, err := registry.Build(s, "multilist", registry.Config{
			Processors: pt.p, Procs: pt.p, Capacity: pt.t + 16, Stride: 1, SeedKeys: tens(pt.t),
		})
		if err != nil {
			return err
		}
		worst := make([]int64, pt.p)
		for cpu := 0; cpu < pt.p; cpu++ {
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				start := e.Now()
				l.Apply(e, cpu, registry.Op{Code: registry.OpSearch, Key: uint64(10*pt.t + 5)})
				worst[cpu] = e.Now() - start
			}})
		}
		if err := s.Run(); err != nil {
			return err
		}
		var m int64
		for _, v := range worst {
			if v > m {
				m = v
			}
		}
		rows = append(rows, []string{"multi list (CAS+CCAS)", fmt.Sprintf("P=%d T=%d", pt.p, pt.t), fmt.Sprint(m), "Θ(2PT)"})
	}

	table("Figure 1 — worst-case operation time (virtual units)",
		[]string{"implementation", "parameters", "worst-case time", "paper bound"}, rows)
	return nil
}

// sec34 regenerates the Section 3.4 throughput experiment: total time for
// ops insertion/deletion operations on sorted lists of 200-2,000 elements,
// wait-free vs lock-free, on `procs` processors.
func sec34(ops, procs int, seed int64) error {
	ratios := func(sizes []int, searchPercent int) ([][]string, error) {
		var rows [][]string
		for _, size := range sizes {
			mk := map[scenario.ListKind]int64{}
			for _, kind := range []scenario.ListKind{scenario.WaitFree, scenario.LockFreeGC} {
				res, err := scenario.RunList(scenario.ListConfig{
					Kind: kind, Processors: procs, BurstsPerCPU: 4, BurstOps: 25,
					TotalOps: ops, ListSize: size, Seed: seed, SearchPercent: searchPercent,
				})
				if err != nil {
					return nil, err
				}
				mk[kind] = res.Makespan
			}
			rows = append(rows, []string{
				fmt.Sprint(size),
				fmt.Sprint(mk[scenario.WaitFree]),
				fmt.Sprint(mk[scenario.LockFreeGC]),
				fmt.Sprintf("%.2f", float64(mk[scenario.WaitFree])/float64(mk[scenario.LockFreeGC])),
			})
		}
		return rows, nil
	}
	header := []string{"list size", "wait-free", "lock-free [7]", "ratio"}
	rows, err := ratios([]int{200, 500, 1000, 1500, 2000}, 0)
	if err != nil {
		return err
	}
	table(fmt.Sprintf("Section 3.4 — total time, %d ins/del ops, %d processors (paper: ratio 1.5-2, \"1.5 more typical\")", ops, procs),
		header, rows)

	// Supplementary: a read-heavy mix (kernels mostly look things up).
	if rows, err = ratios([]int{200, 1000}, 80); err != nil {
		return err
	}
	table("Section 3.4 supplement — 80% searches (read-heavy kernel mix)", header, rows)
	return nil
}

// retries regenerates the Section 3.4 worst-case comparison: lock-free
// retry counts vs the wait-free bounded response.
func retries(ops, procs int, seed int64) error {
	var rows [][]string
	for _, size := range []int{200, 500, 1000} {
		lf, err := scenario.RunList(scenario.ListConfig{
			Kind: scenario.LockFreeGC, Processors: procs, BurstsPerCPU: 4, BurstOps: 25,
			TotalOps: ops, ListSize: size, Seed: seed,
		})
		if err != nil {
			return err
		}
		wf, err := scenario.RunList(scenario.ListConfig{
			Kind: scenario.WaitFree, Processors: procs, BurstsPerCPU: 3, BurstOps: 1,
			TotalOps: ops, ListSize: size, Seed: seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(size),
			fmt.Sprint(lf.WorstRetries),
			fmt.Sprintf("%.1f", float64(wf.WorstOp)/float64(wf.BaseOp)),
		})
	}
	table(fmt.Sprintf("Section 3.4 — worst cases on %d processors (paper: retries 10-30 common, 30-50 frequent; wait-free <= %d x interference-free)", procs, 2*procs),
		[]string{"list size", "lock-free worst retries", "wait-free worst/interference-free"}, rows)
	return nil
}

// valoisCmp regenerates the [7]-cited comparison: CAS2 lock-free vs
// CAS-only (Valois) under high contention.
func valoisCmp(seed int64) error {
	runList := func(name string, refCounted bool) (int64, error) {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18, Granularity: sched.Coarse, SyncCost: 8})
		l, err := registry.Build(s, name, registry.Config{Procs: 4, Capacity: 1 << 14})
		if err != nil {
			return 0, err
		}
		if v, ok := l.Underlying().(*valois.List); ok {
			v.SetRefCounted(refCounted)
		}
		for cpu := 0; cpu < 4; cpu++ {
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				for op := 0; op < 1000; op++ {
					o := registry.Op{Code: registry.OpDelete, Key: uint64(1 + e.Rand().Intn(64))}
					if e.Rand().Intn(2) == 0 {
						o.Code, o.Val = registry.OpInsert, o.Key
					}
					l.Apply(e, cpu, o)
				}
			}})
		}
		if err := s.Run(); err != nil {
			return 0, err
		}
		return s.Elapsed(), nil
	}
	gc, err := runList("gclist", false)
	if err != nil {
		return err
	}
	vr, err := runList("valois", true)
	if err != nil {
		return err
	}
	vh, err := runList("valois", false)
	if err != nil {
		return err
	}
	table("Section 3.4 — CAS2 lock-free vs CAS-only under high contention, sync cost 8 ([7] reports ~10x)",
		[]string{"implementation", "total time", "vs lock-free"},
		[][]string{
			{"lock-free CAS2 [7]", fmt.Sprint(gc), "1.00"},
			{"CAS-only, Valois cost model [13]", fmt.Sprint(vr), fmt.Sprintf("%.2f", float64(vr)/float64(gc))},
			{"CAS-only, modern mark-bit (no reclamation)", fmt.Sprint(vh), fmt.Sprintf("%.2f", float64(vh)/float64(gc))},
		})
	return nil
}

// ablations regenerates the design-choice ablations A1-A4.
func ablations(seed int64) error {
	// A1: 2PT vs 2NT.
	var rows [][]string
	for _, n := range []int{4, 8, 16, 32} {
		// Every process inserts its own key once.
		insertAll := func(name string, cfg registry.Config) int64 {
			s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18})
			obj, err := registry.Build(s, name, cfg)
			if err != nil {
				return -1
			}
			for p := 0; p < n; p++ {
				s.Spawn(sched.JobSpec{Name: "", CPU: p % 4, Prio: sched.Priority(p / 4), Slot: p, AfterSlices: -1, Body: func(e *sched.Env) {
					obj.Apply(e, p, registry.Op{Code: registry.OpInsert, Key: uint64(p + 1)})
				}})
			}
			if err := s.Run(); err != nil {
				return -1
			}
			return s.Elapsed()
		}
		wf := insertAll("multilist", registry.Config{Processors: 4, Procs: n, Capacity: 256, Stride: 1})
		uc := insertAll("herlihy", registry.Config{Procs: n, Capacity: 40})
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprint(wf), fmt.Sprint(uc), fmt.Sprintf("%.2f", float64(uc)/float64(wf))})
	}
	table("A1 — processor-indexed helping (2PT, this paper) vs process-indexed (2NT, Herlihy [8]); P=4",
		[]string{"N processes", "wait-free list", "universal construction", "UC/WF"}, rows)

	// A2: cyclic vs priority helping for a late high-priority op.
	rows = nil
	for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18})
		l, err := registry.Build(s, "multilist", registry.Config{
			Processors: 4, Procs: 4, Capacity: 340, Mode: mode, Stride: 1, SeedKeys: tens(300),
		})
		if err != nil {
			return err
		}
		search := registry.Op{Code: registry.OpSearch, Key: 3005}
		var hi int64
		for cpu := 1; cpu < 4; cpu++ {
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				for k := 0; k < 3; k++ {
					l.Apply(e, cpu, search)
				}
			}})
		}
		s.Spawn(sched.JobSpec{Name: "hi", CPU: 0, Prio: 9, Slot: 0, At: 700, AfterSlices: -1, Body: func(e *sched.Env) {
			start := e.Now()
			l.Apply(e, 0, search)
			hi = e.Now() - start
		}})
		if err := s.Run(); err != nil {
			return err
		}
		rows = append(rows, []string{mode.String(), fmt.Sprint(hi)})
	}
	table("A2 — response time of a late high-priority operation (paper: priority helping \"very effective\")",
		[]string{"helping mode", "hi-priority op response"}, rows)

	// A3: one vs two helping rounds ([1]).
	rows = nil
	for _, oneRound := range []bool{false, true} {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 14})
		obj, err := registry.Build(s, "multimwcas", registry.Config{Processors: 4, Procs: 4, Width: 2, Words: 2, OneRound: oneRound})
		if err != nil {
			return err
		}
		for cpu := 0; cpu < 4; cpu++ {
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				for k := 0; k < 25; k++ {
					obj.Apply(e, cpu, registry.Op{Code: registry.OpMWCAS, Words: []int{0, 1}, Delta: 1})
				}
			}})
		}
		if err := s.Run(); err != nil {
			return err
		}
		name := "two rounds (general)"
		if oneRound {
			name = "one round ([1], RT scheduler)"
		}
		rows = append(rows, []string{name, fmt.Sprint(s.Elapsed())})
	}
	table("A3 — helping rounds per operation", []string{"mode", "total time"}, rows)

	// A6: priority-helping starvation (the Section 3.4 caveat).
	rows = nil
	lowResp := func(mode helping.Mode, burst int) (int64, error) {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 19})
		l, err := registry.Build(s, "multilist", registry.Config{
			Processors: 4, Procs: 4, Capacity: 1024, Mode: mode, Stride: 1, SeedKeys: tens(200),
		})
		if err != nil {
			return 0, err
		}
		search := registry.Op{Code: registry.OpSearch, Key: 2005}
		var low int64
		s.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			start := e.Now()
			l.Apply(e, 0, search)
			low = e.Now() - start
		}})
		for cpu := 1; cpu < 4; cpu++ {
			s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 9, Slot: cpu, At: int64(cpu), AfterSlices: -1, Body: func(e *sched.Env) {
				for i := 0; i < burst; i++ {
					l.Apply(e, cpu, search)
				}
			}})
		}
		if err := s.Run(); err != nil {
			return 0, err
		}
		return low, nil
	}
	for _, burst := range []int{2, 4, 8} {
		c, err := lowResp(helping.Cyclic, burst)
		if err != nil {
			return err
		}
		pr, err := lowResp(helping.Priority, burst)
		if err != nil {
			return err
		}
		rows = append(rows, []string{fmt.Sprint(burst), fmt.Sprint(c), fmt.Sprint(pr)})
	}
	table("A6 — low-priority starvation under priority helping (paper's Section 3.4 caveat): cyclic bounds the wait, priority helping grows with the high-priority stream",
		[]string{"high-prio ops per cpu", "cyclic low response", "priority low response"}, rows)

	// A4: Findpos stride under cheap vs expensive synchronization.
	rows = nil
	for _, syncCost := range []int64{1, 8} {
		for _, stride := range []int{1, 10, 100} {
			res, err := waitfree.RunListExperiment(waitfree.ListExperiment{
				Kind: waitfree.KindWaitFree, Processors: 4, BurstsPerCPU: 2, BurstOps: 10,
				TotalOps: 500, ListSize: 400, Seed: seed, Stride: stride, SyncCost: syncCost,
			})
			if err != nil {
				return err
			}
			rows = append(rows, []string{fmt.Sprint(syncCost), fmt.Sprint(stride), fmt.Sprint(res.Makespan)})
		}
	}
	table("A4 — Findpos checkpoint stride (paper used k=100; pays off when synchronization is expensive)",
		[]string{"sync cost", "stride k", "total time"}, rows)
	return nil
}

// extensions measures the Section 4 extension structures (queue, stack,
// hash table) and the real-time schedulability story built on the paper's
// bounds.
func extensions(seed int64) error {
	var rows [][]string

	// Queue/stack/hash worst-case op costs under one helped preemption.
	// Each of victim and adversary runs the op pair once.
	uniCost := func(name string, pair ...registry.Op) (int64, error) {
		s := sched.New(sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 18})
		obj, err := registry.Build(s, name, registry.Config{Procs: 2, Capacity: 64})
		if err != nil {
			return 0, err
		}
		op := func(e *sched.Env, slot int) {
			for _, o := range pair {
				obj.Apply(e, slot, o)
			}
		}
		var cost int64
		s.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			start := e.Now()
			op(e, 0)
			cost = e.Now() - start
		}})
		s.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 20, Body: func(e *sched.Env) {
			op(e, 1)
		}})
		if err := s.Run(); err != nil {
			return 0, err
		}
		return cost, nil
	}

	qCost, err := uniCost("uniqueue", registry.Op{Code: registry.OpEnqueue, Val: 1}, registry.Op{Code: registry.OpDequeue})
	if err != nil {
		return err
	}
	stCost, err := uniCost("unistack", registry.Op{Code: registry.OpPush, Val: 1}, registry.Op{Code: registry.OpPop})
	if err != nil {
		return err
	}
	rows = append(rows,
		[]string{"uni queue (enq+deq, helped once)", fmt.Sprint(qCost)},
		[]string{"uni stack (push+pop, helped once)", fmt.Sprint(stCost)})

	// Hash bucket speedup: search cost vs bucket count at 256 keys.
	for _, k := range []int{1, 4, 16} {
		s := sched.New(sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 19})
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		tb, err := registry.Build(s, "multihash", registry.Config{Processors: 1, Procs: 1, Capacity: 320, Buckets: k, SeedKeys: keys})
		if err != nil {
			return err
		}
		var cost int64
		s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			start := e.Now()
			tb.Apply(e, 0, registry.Op{Code: registry.OpSearch, Key: 256})
			cost = e.Now() - start
		})
		if err := s.Run(); err != nil {
			return err
		}
		rows = append(rows, []string{fmt.Sprintf("hash search, 256 keys, K=%d buckets", k), fmt.Sprint(cost)})
	}
	table("Section 4 extensions — queue, stack, hash table (virtual units)",
		[]string{"operation", "cost"}, rows)

	// Real-time schedulability with the 2T helping surcharge.
	tasks := rt.AssignRateMonotonic([]rt.Task{
		{Name: "sensor", Period: 4000, BaseCost: 300, Ops: 2, OpCost: 140},
		{Name: "control", Period: 9000, BaseCost: 800, Ops: 3, OpCost: 140},
		{Name: "logger", Period: 20000, BaseCost: 2000, Ops: 4, OpCost: 140},
	})
	as, err := rt.ResponseTimeAnalysis(tasks)
	if err != nil {
		return err
	}
	rows = nil
	for _, a := range as {
		rows = append(rows, []string{a.Task.Name, fmt.Sprint(a.Task.Period), fmt.Sprint(a.WCET),
			fmt.Sprint(a.Response), fmt.Sprintf("%v", a.Schedulable)})
	}
	table(fmt.Sprintf("Real-time response-time analysis with wait-free helping surcharge (utilization %.2f, Liu-Layland bound %.2f)",
		rt.TotalUtilization(tasks), rt.LiuLaylandBound(len(tasks))),
		[]string{"task", "period", "WCET (2T ops)", "response bound", "schedulable"}, rows)
	return nil
}

// reports runs a small adversarial workload over each core object and
// writes one machine-readable run report per object as
// <outdir>/BENCH_<object>.json: per-process step counts, CAS-failure
// counts, helping and preemption accounting, and response-time summaries.
// The runs are deterministic for a fixed seed, so the files are diffable
// across commits (see EXPERIMENTS.md "Run reports").
func reports(outdir string, seed int64) error {
	var written []string
	writeReport := func(r *metrics.Report) error {
		path := filepath.Join(outdir, "BENCH_"+string(r.Object)+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}
	writeTrace := func(object string, log *trace.Log) error {
		if !withTrace || log == nil {
			return nil
		}
		b, err := tracex.Build(log).Perfetto()
		if err != nil {
			return err
		}
		path := filepath.Join(outdir, "TRACE_"+object+".trace.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// The list kinds run the Section 3.4 workload at report scale. The
	// workload suite accepts the disciplines its interference model
	// covers (priority/fcfs/priority-fcfs); under any other policy, or a
	// non-default arrival trace (the workload driver owns its release
	// points), these reports are skipped (loudly) and only the registry
	// objects are measured.
	listKinds := []struct {
		kind  scenario.ListKind
		procs int
	}{
		{scenario.WaitFree, 4},
		{scenario.WaitFreeUni, 1},
		{scenario.LockFreeGC, 4},
	}
	if benchArrival != "" || !scenario.PolicyAccepted(benchPolicy) {
		listKinds = nil
		fmt.Fprintf(os.Stderr, "wfbench: skipping workload list reports (workload policies: %v, no -arrival override); registry objects only\n",
			scenario.AcceptedPolicies())
	}
	for _, lk := range listKinds {
		res, err := scenario.RunList(scenario.ListConfig{
			Kind: lk.kind, Processors: lk.procs, BurstsPerCPU: 2, BurstOps: 10,
			TotalOps: 400, ListSize: 100, Seed: seed, EnableTrace: withTrace,
			Policy: benchPolicy,
		})
		if err != nil {
			return err
		}
		if err := writeReport(res.Report); err != nil {
			return err
		}
		if err := writeTrace(string(lk.kind), res.TraceLog); err != nil {
			return err
		}
	}

	// Every core object runs a priority-burst workload generated from its
	// registry descriptor: uniprocessor objects get a base worker plus two
	// staggered higher-priority bursts; multiprocessor objects one worker
	// per processor plus a burst per processor.
	for _, name := range registry.CoreNames() {
		s, err := objectReportRun(name, seed)
		if err != nil {
			return err
		}
		rep := s.Report(name)
		// Report stamps the (off-default) policy itself; the arrival trace
		// is driver knowledge. Both are empty on default runs, keeping the
		// committed BENCH_*.json goldens byte-identical.
		rep.Arrival = benchArrival
		if err := writeReport(rep); err != nil {
			return err
		}
		if err := writeTrace(name, s.Trace()); err != nil {
			return err
		}
	}

	for _, p := range written {
		fmt.Printf("wrote %s\n", p)
	}
	return nil
}

// objectReportRun executes the report workload for one core object and
// returns the completed simulation.
func objectReportRun(name string, seed int64) (*sched.Sim, error) {
	d := registry.Lookup0(name)
	procs := 1
	if d.Family == registry.FamilyMulti {
		procs = 2
	}
	pol, err := sched.PolicyByName(benchPolicy)
	if err != nil {
		return nil, err
	}
	// The burst releases come from the named arrival trace; the legacy
	// shape (slices 25 and 60) is kept verbatim when no trace is named.
	burstRel := []arrival.Release{{AfterSlices: 25}, {AfterSlices: 60}}
	if benchArrival != "" {
		trc, err := arrival.ByName(benchArrival)
		if err != nil {
			return nil, err
		}
		burstRel = trc.Releases(2, seed)
	}
	s := sched.New(sched.Config{Processors: procs, Seed: seed, MemWords: 1 << 18, EnableTrace: withTrace, Policy: pol})
	cfg := registry.Config{Procs: 4, Capacity: 128, Buckets: 4, Words: 4, Width: 2}
	if d.Model == registry.ModelSorted {
		cfg.SeedKeys = []uint64{2, 4, 6, 8, 10, 12, 14, 16}
	}
	inst, err := registry.Build(s, name, cfg)
	if err != nil {
		return nil, err
	}
	run := func(slot, n int) func(e *sched.Env) {
		ops := d.Ops(cfg, seed, slot, n)
		return func(e *sched.Env) {
			for _, op := range ops {
				start := e.Now()
				inst.Apply(e, slot, op)
				e.RecordOp(e.Now() - start)
			}
		}
	}
	if d.Family == registry.FamilyUni {
		s.Spawn(sched.JobSpec{Name: "base", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Cost: 20, Body: run(0, 20)})
		s.Spawn(sched.JobSpec{Name: "burst1", CPU: 0, Prio: 5, Slot: 1, AfterSlices: burstRel[0].AfterSlices, At: burstRel[0].At, Cost: 5, Body: run(1, 5)})
		s.Spawn(sched.JobSpec{Name: "burst2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: burstRel[1].AfterSlices, At: burstRel[1].At, Cost: 5, Body: run(2, 5)})
	} else {
		s.Spawn(sched.JobSpec{Name: "w0", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Cost: 20, Body: run(0, 20)})
		s.Spawn(sched.JobSpec{Name: "w1", CPU: 1, Prio: 1, Slot: 1, AfterSlices: -1, Cost: 20, Body: run(1, 20)})
		s.Spawn(sched.JobSpec{Name: "burst0", CPU: 0, Prio: 9, Slot: 2, AfterSlices: burstRel[0].AfterSlices, At: burstRel[0].At, Cost: 5, Body: run(2, 5)})
		s.Spawn(sched.JobSpec{Name: "burst1", CPU: 1, Prio: 9, Slot: 3, AfterSlices: burstRel[1].AfterSlices, At: burstRel[1].At, Cost: 5, Body: run(3, 5)})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepCell identifies one cell of the full-matrix sweep: an object, a CCAS
// implementation and helping mode (multiprocessor objects only), a
// preemption pattern and a seed.
type sweepCell struct {
	Object  string `json:"object"`
	CC      string `json:"cc,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Pattern string `json:"pattern"`
	Seed    int64  `json:"seed"`
	// Policy and Arrival carry the -policy/-arrival flags into the cell
	// (empty on the default matrix, so cell identities are unchanged).
	Policy  string `json:"policy,omitempty"`
	Arrival string `json:"arrival,omitempty"`
}

// sweepCells enumerates the matrix over every core registry object. A
// -arrival flag replaces the legacy pattern axis with that single trace; a
// -policy flag runs every cell under that discipline.
func sweepCells(seeds int) []sweepCell {
	patterns := scenario.Patterns()
	if benchArrival != "" {
		patterns = []string{benchArrival}
	}
	var out []sweepCell
	for _, name := range registry.CoreNames() {
		d := registry.Lookup0(name)
		for _, pat := range patterns {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				if d.Family != registry.FamilyMulti {
					out = append(out, sweepCell{Object: name, Pattern: pat, Seed: seed, Policy: benchPolicy, Arrival: benchArrival})
					continue
				}
				for _, cc := range prim.All() {
					for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
						out = append(out, sweepCell{Object: name, CC: cc.Name(), Mode: mode.String(), Pattern: pat, Seed: seed, Policy: benchPolicy, Arrival: benchArrival})
					}
				}
			}
		}
	}
	return out
}

// sweepOut is one cell's canonical report bytes plus its behavioral
// signature (the coverage unit: cover.ReportSig of the same report).
type sweepOut struct {
	b   []byte
	sig uint64
}

// runSweepCell executes one cell and returns its canonical report bytes
// and coverage signature.
func runSweepCell(c sweepCell) (sweepOut, error) {
	cfg := scenario.Config{Object: c.Object, Seed: c.Seed, Pattern: c.Pattern, Policy: c.Policy}
	if c.CC != "" {
		impl, err := prim.ByName(c.CC)
		if err != nil {
			return sweepOut{}, err
		}
		cfg.CC = impl
	}
	if c.Mode == helping.Priority.String() {
		cfg.Mode = helping.Priority
	}
	s, err := scenario.Run(cfg)
	if err != nil {
		return sweepOut{}, err
	}
	rep := s.Report(c.Object)
	// Key the report (and so its signature) by the explicit arrival trace;
	// empty on the default matrix keeps the bytes and sigs unchanged.
	rep.Arrival = c.Arrival
	b, err := rep.JSON()
	out := sweepOut{b: b, sig: cover.ReportSig(rep)}
	sched.Release(s)
	return out, err
}

// sweep runs the full object × CCAS × helping-mode × pattern × seed matrix
// twice — serially and fanned out across all cores via internal/harness —
// asserts the merged outputs are byte-identical, and records both wall-clock
// times (the repo's first real-parallelism figure) plus the campaign's
// schedule-space coverage (internal/cover, folded from the merged results
// in input order so it is identical at any worker count) in
// <outdir>/BENCH_sweep.json.
func sweep(outdir string, seeds int) error {
	cells := sweepCells(seeds)
	timed := func(workers int, label string) ([]sweepOut, time.Duration, error) {
		var meter *cover.Meter
		if withProgress {
			meter = cover.NewMeter(os.Stderr, "sweep "+label, len(cells), 0)
		}
		start := time.Now()
		out, err := harness.Map(len(cells),
			harness.Options{Workers: workers, OnDone: func(int) { meter.Done() }},
			func(i int) (sweepOut, error) {
				o, err := runSweepCell(cells[i])
				meter.Note(o.sig)
				return o, err
			})
		meter.Finish()
		return out, time.Since(start), err
	}
	serial, serialDur, err := timed(1, "serial")
	if err != nil {
		return fmt.Errorf("serial sweep: %w", err)
	}
	// At least two workers even on a single-core host, so the concurrent
	// dispatch/merge path is always exercised; on >= 2 cores the same
	// setting is where the wall-clock speedup comes from.
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	parallel, parallelDur, err := timed(workers, "parallel")
	if err != nil {
		return fmt.Errorf("parallel sweep: %w", err)
	}
	for i := range cells {
		if !bytes.Equal(serial[i].b, parallel[i].b) || serial[i].sig != parallel[i].sig {
			return fmt.Errorf("sweep cell %+v: parallel report differs from serial report", cells[i])
		}
	}
	// Coverage folds from the merged (input-order) results, so the two
	// runs produce one identical Stats; the byte-identity loop above has
	// already proven per-cell signature agreement.
	acc := cover.NewAccumulator()
	for i := range cells {
		acc.Add(serial[i].sig)
	}
	cov := acc.Stats()
	doc := struct {
		Cells      int     `json:"cells"`
		Workers    int     `json:"workers"`
		SerialMs   float64 `json:"serial_ms"`
		ParallelMs float64 `json:"parallel_ms"`
		Speedup    float64 `json:"speedup"`
		Identical  bool    `json:"byte_identical"`
		// Policy and Arrival record the matrix's scheduling discipline and
		// arrival trace when off the defaults (omitted otherwise, keeping
		// the committed BENCH_sweep.json stable).
		Policy   string      `json:"policy,omitempty"`
		Arrival  string      `json:"arrival,omitempty"`
		Coverage cover.Stats `json:"coverage"`
	}{
		Cells:      len(cells),
		Workers:    workers,
		SerialMs:   float64(serialDur.Microseconds()) / 1000,
		ParallelMs: float64(parallelDur.Microseconds()) / 1000,
		Speedup:    float64(serialDur) / float64(parallelDur),
		Identical:  true,
		Policy:     benchPolicy,
		Arrival:    benchArrival,
		Coverage:   cov,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_sweep.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	table("Full-matrix sweep — serial vs parallel harness (byte-identical merged reports)",
		[]string{"cells", "workers", "serial ms", "parallel ms", "speedup", "distinct behaviors"},
		[][]string{{
			fmt.Sprint(doc.Cells), fmt.Sprint(doc.Workers),
			fmt.Sprintf("%.1f", doc.SerialMs), fmt.Sprintf("%.1f", doc.ParallelMs),
			fmt.Sprintf("%.2fx", doc.Speedup),
			fmt.Sprintf("%d (%.1f%%)", cov.Distinct, 100*cov.Coverage),
		}})
	fmt.Printf("wrote %s\n", path)
	return nil
}

// mwcasTable is a supplementary table: MWCAS transaction throughput under
// priority preemption (the read-compute-MWCAS usage of Section 3.1), across
// processors and widths.
func mwcasTable(seed int64) error {
	var rows [][]string
	for _, pw := range []struct{ p, w int }{{1, 2}, {1, 4}, {2, 2}, {4, 2}, {4, 4}} {
		kind := scenario.MWCASMulti
		if pw.p == 1 {
			kind = scenario.MWCASUni
		}
		res, err := scenario.RunMWCAS(scenario.MWCASConfig{
			Kind: kind, Processors: pw.p, Words: 8, Width: pw.w,
			TotalCommits: 2000, BurstsPerCPU: 2, BurstCommits: 20, Seed: seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			string(kind), fmt.Sprint(pw.p), fmt.Sprint(pw.w),
			fmt.Sprint(res.Makespan), fmt.Sprint(res.Failures), fmt.Sprint(res.WorstOp),
		})
	}
	table("MWCAS transactions — 2000 commits, 8 shared words, preemption bursts",
		[]string{"kind", "P", "W", "total time", "conflict retries", "worst op"}, rows)
	return nil
}
