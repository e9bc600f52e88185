// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the simulator, the
// linearizability checker and the native backend, checks every output,
// and prints the measured metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload sweep-uni --seed 1 --seconds 10 --trace 0
//	perfbench compare old.jsonl new.jsonl
//
// Each run does a fixed amount of work: the number of passes is the
// workload's fixed pass rate times --seconds, so at one seed every count
// repeats exactly and only time varies. End-to-end figures are medians
// over passes, which keeps a short stall from moving them. --trace 1 is
// a separate, traced invocation: it reports the per-layer metrics, the
// self time of every layer and the tracing overhead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// maxTracedUnits caps the units a traced run records spans for.
const maxTracedUnits = 20_000

// heapPasses is how many passes, from the first, probe the heap: the
// probes repeat closely and each costs two collections.
const heapPasses = 3

// setupBatches is how many set-up batches a run times; setup_s is the
// median batch's mean set-up time.
const setupBatches = 9

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 0, "input seed (>= 0); the program receives only inputs generated from it")
	fs.IntVar(&o.seconds, "seconds", 10, "run length; sets the fixed pass count (1..600)")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced invocation and reports per-layer metrics")
	fs.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(o.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	case o.seed < 0:
		fmt.Fprintf(stderr, "perfbench: --seed must be >= 0, got %d\n", o.seed)
		return 2
	case o.seconds < 1 || o.seconds > 600:
		fmt.Fprintf(stderr, "perfbench: --seconds must be in 1..600, got %d\n", o.seconds)
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1

	res, err := run(def, o, stderr)
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	if err != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %v\n", o.workload, err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one invocation: set-up, the timed passes and, when traced,
// the layer battery.
func run(def workloadDef, o options, stderr io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	// Everything runs on one P but native's concurrent runs and the
	// mutex reference. With a second P, the runtime's idle GC workers
	// and spinning threads use the other CPU, so timings would depend on
	// whether the host lends it (README.md, "Noise").
	runtime.GOMAXPROCS(1)
	setups, rawSetups, w, err := setUp(def, o.seed)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	// The inputs' own heap, which heap_live_mb leaves out.
	inputsMB, _ := heapProbe()
	passes := passCount(def, o.seconds)
	if o.trace {
		// The traced run splits its budget: untraced passes, traced
		// passes, then the layer battery.
		passes = max(1, passes/4)
	}
	ps, err := runPasses(w, passes, nil)
	res.Attempted, res.Failed = ps.attempted, ps.failed
	if err != nil {
		return res, err
	}
	if sw, ok := w.(*sweepWorkload); ok {
		if err := sw.serialCheck(); err != nil {
			return res, err
		}
	}
	ref := median(ps.refMs)
	rate, distinct, p50 := median(ps.rates), median(ps.distinctRates), median(ps.p50s)/1e3
	fmt.Fprintf(stderr, "perfbench: %s seed=%d passes=%d units=%d latency samples=%d distinct per pass=%d\n", o.workload, o.seed, passes, ps.attempted, ps.samples, ps.distinct)
	fmt.Fprintf(stderr, "perfbench: raw work_per_s=%.6g distinct_per_s=%.6g unit_p50_us=%.6g setup_s=%.6g; host.ref_ms=%.4f (nominal %.1f)\n",
		rate, distinct, p50, median(rawSetups), ref, refNominalMs)

	if !o.trace {
		res.Metrics["norm_work_per_s"] = metric{median(ps.normRates), "1/s"}
		res.Metrics["norm_distinct_per_s"] = metric{median(ps.normDistinct), "1/s"}
		res.Metrics["norm_unit_p50_us"] = metric{median(ps.normP50s) / 1e3, "us"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["heap_live_mb"] = metric{median(ps.heapMB) - inputsMB, "MB"}
		res.Correct = true
		return res, checkNames(res.Metrics, endToEnd)
	}

	// Spans stay in memory: cap the traced units.
	traced := max(1, min(passes, maxTracedUnits/max(1, ps.attempted/passes)))
	tr := newTracer()
	tps, err := runPasses(w, traced, tr)
	res.Attempted += tps.attempted
	res.Failed += tps.failed
	if err != nil {
		return res, err
	}
	layers, n, err := battery(o.seed, tr)
	res.Attempted += n
	if err != nil {
		return res, err
	}
	layers["host.ref_ms"] = ref
	// Overhead: how much slower the same passes ran with spans recorded.
	layers["trace.overhead_pct"] = (median(ps.normRates)/median(tps.normRates) - 1) * 100
	for name, v := range layers {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	if err := checkNames(res.Metrics, perLayer()); err != nil {
		return res, err
	}
	tr.printSelfTimes(stderr)
	fmt.Fprintf(stderr, "perfbench: tracing overhead %.2f%% (median work_per_s of %d untraced vs %d traced passes)\n",
		layers["trace.overhead_pct"], passes, traced)
	path, err := tr.write(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err != nil {
		return res, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.count(), path)
	res.Correct = true
	return res, nil
}

// setUp builds the workload's inputs once untimed, then times
// setupBatches batches of def.setupReps set-ups. Each batch starts after
// a forced collection and runs with the collector off, so no collection
// lands inside it; the reference kernel runs right before and right after
// it, and the batch's mean set-up time is scaled to the nominal host by
// the two samples' mean. It returns the scaled and the raw times, in
// seconds, and the inputs.
func setUp(def workloadDef, seed int64) (times, raw []float64, w workload, err error) {
	if w, err = def.setup(seed); err != nil {
		return nil, nil, nil, err
	}
	for b := 0; b < setupBatches; b++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		before := refKernelMs()
		start := time.Now()
		for i := 0; i < def.setupReps && err == nil; i++ {
			_, err = def.setup(seed)
		}
		mean := time.Since(start).Seconds() / float64(def.setupReps)
		after := refKernelMs()
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, nil, nil, err
		}
		raw = append(raw, mean)
		times = append(times, mean*refNominalMs/((before+after)/2))
	}
	return times, raw, w, nil
}

// passSeries is what a sequence of passes measured.
type passSeries struct {
	rates, distinctRates, p50s []float64
	// refMs holds each pass's median reference kernel time; the norm
	// series are the pass figures scaled to the nominal host.
	refMs                             []float64
	normRates, normDistinct, normP50s []float64
	// heapMB holds the heapMB of the first heapPasses passes.
	heapMB                     []float64
	attempted, failed, samples int
	// distinct is the last pass's distinct behaviour count.
	distinct int
}

// runPasses runs the workload's passes, checks that simulator outputs
// repeat exactly from pass to pass, and collects per-pass figures.
//
// Host speed drifts by up to a quarter over seconds on a shared machine.
// The reference kernel runs between the timed calls of every pass, about
// every refInterval, and each call's time is scaled by the latest kernel
// time over refNominalMs (latencies by the pass's median kernel time):
// the drift moves both alike, so the scaled figures keep only the
// program's own changes (README.md, "Noise").
func runPasses(w workload, passes int, tr *tracer) (passSeries, error) {
	var ps passSeries
	var first uint64
	tb := tr.buf()
	for i := 0; i < passes; i++ {
		host := newHostRef()
		sp := tb.open("bench.pass", 0, uint64(i))
		st, err := w.pass(tb, sp.ID, host, i < heapPasses)
		tb.close(sp)
		ps.attempted += st.units + st.untimed
		ps.failed += st.failed
		ps.samples += st.samples
		ps.distinct = st.distinct
		if err != nil {
			return ps, fmt.Errorf("pass %d: %w", i, err)
		}
		if st.failed > 0 {
			return ps, fmt.Errorf("pass %d: %d of %d units failed their check", i, st.failed, st.units+st.untimed)
		}
		if i == 0 {
			first = st.print
		} else if st.print != first {
			return ps, fmt.Errorf("pass %d: outputs differ from pass 0 (fingerprint %#x, want %#x)", i, st.print, first)
		}
		secs, normSecs := st.elapsed.Seconds(), st.normElapsed.Seconds()
		ref := median(host.samples)
		ps.rates = append(ps.rates, float64(st.units)/secs)
		ps.distinctRates = append(ps.distinctRates, float64(st.distinct)/secs)
		ps.p50s = append(ps.p50s, st.p50)
		ps.refMs = append(ps.refMs, ref)
		ps.normRates = append(ps.normRates, float64(st.units)/normSecs)
		ps.normDistinct = append(ps.normDistinct, float64(st.distinct)/normSecs)
		ps.normP50s = append(ps.normP50s, st.p50*refNominalMs/ref)
		if i < heapPasses {
			ps.heapMB = append(ps.heapMB, st.heapMB)
		}
	}
	return ps, nil
}

// passCount is the fixed number of passes for a run length.
func passCount(def workloadDef, seconds int) int {
	return max(1, int(math.Round(def.passesPerSecond*float64(seconds))))
}

// checkNames fails when the reported metric set is not exactly the
// declared one.
func checkNames(got map[string]metric, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	return nil
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapProbe forces two collections and returns the heap the second
// marked live, in MB, and the time both took. The first collection moves
// sync.Pool contents to the pools' victim caches and the second frees
// them, so idle pooled objects do not count, whichever of them unforced
// collections happened to leave. A workload calls it at fixed points of a
// pass where the program's working state (simulation, instance, history)
// is still reachable, outside its timed calls or with the probe's time
// taken out of them; read after a run, when that state is garbage, it
// would hold none of it.
func heapProbe() (float64, time.Duration) {
	start := time.Now()
	runtime.GC()
	runtime.GC()
	metrics.Read(liveHeap)
	took := time.Since(start)
	if liveHeap[0].Value.Kind() != metrics.KindUint64 {
		return 0, took
	}
	return float64(liveHeap[0].Value.Uint64()) / 1e6, took
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// centralMean sorts xs in place and returns the mean of its samples from
// the 45th to the 55th percentile: a median estimate that does not
// snap to the clock's whole nanoseconds and moves less between runs.
func centralMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	lo, hi := len(xs)*45/100, max(len(xs)*55/100, len(xs)*45/100+1)
	var s float64
	for _, x := range xs[lo:hi] {
		s += float64(x)
	}
	return s / float64(hi-lo)
}
