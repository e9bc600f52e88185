package registry

// The native-backend run harness: one function that builds any registered
// object on real hardware (internal/native) and drives it with real
// goroutines, so the race stress suite, the off-simulator differential
// tests and cmd/wfbench's native experiment all share one spawn/join
// protocol instead of three.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// NativeRun parameterizes one native execution of a descriptor.
type NativeRun struct {
	// Procs is the number of process goroutines; Ops the operations each
	// one performs, drawn from the descriptor's deterministic generator
	// with Seed.
	Procs, Ops int
	Seed       int64
	// Shards overrides the shard count for the multiprocessor family
	// (default GOMAXPROCS). The uniprocessor family always runs on one
	// shard; the baselines always run free.
	Shards int
	// Cfg sizes the instance. The harness fills Procs and, when zero,
	// a Capacity large enough that no process exhausts its node pool
	// (arena exhaustion panics by design).
	Cfg Config
	// Wrap optionally wraps the built instance before the run (the linz
	// history recorder). The wrapper must be safe for concurrent Apply.
	Wrap func(Instance) Instance
	// Obs enables the native metrics layer (per-goroutine counter blocks
	// and latency histograms, aggregated into NativeResult.Report);
	// Recorder enables the flight recorder (per-goroutine ring buffers
	// drained into NativeResult.TraceLog); RingCap overrides the
	// per-goroutine ring capacity (default native.DefaultRingCap). Both
	// are off by default: an unobserved run pays nothing.
	Obs      bool
	Recorder bool
	RingCap  int
}

// NativeResult is what one native run observed.
type NativeResult struct {
	// Inst is the (unwrapped) instance; quiescent after the join, so
	// Snapshot and CheckErr are safe.
	Inst Instance
	// World is the finished execution (help counters).
	World *native.World
	// Results holds each process's per-op outcomes, index-aligned with
	// the generator's op stream.
	Results [][]Result
	// Elapsed is the wall-clock spawn-to-join time; Counts the summed
	// memory-operation tallies of all processes.
	Elapsed time.Duration
	Counts  metrics.OpCounts
	// PerProc holds each process's own tally.
	PerProc []metrics.OpCounts
	// Report is the run's aggregated metrics.Report (nil unless
	// NativeRun.Obs): the same shape the simulator produces, with
	// Granularity "native", wall-clock nanoseconds in the virtual-time
	// fields, and the native-only histogram/depth/retry fields set.
	Report *metrics.Report
	// TraceLog is the drained flight recording (nil unless
	// NativeRun.Recorder); DroppedEvents counts ring overwrites.
	TraceLog      *trace.Log
	DroppedEvents uint64
}

// OpsDone returns the total operations applied.
func (r *NativeResult) OpsDone() int {
	n := 0
	for _, rs := range r.Results {
		n += len(rs)
	}
	return n
}

// nativeLayout maps a descriptor's family onto a world and a per-process
// (cpu, priority) assignment:
//
//   - uni: one shard, priorities slot%8 — ties interleave at operation
//     boundaries, strict inequalities preempt mid-operation, which is the
//     paper's uniprocessor model and exercises incremental helping;
//   - multi: Shards priority-disciplined shards, processes dealt
//     round-robin with distinct priorities within each shard (Figures 6-7:
//     one announce ring, P processors);
//   - baseline: free-running goroutines — the anything-goes scheduling the
//     lock-free and lock-based baselines are designed for.
func nativeLayout(d *Descriptor, mem *native.Mem, shards int) (*native.World, func(slot int) (cpu int, prio shmem.Priority)) {
	switch d.Family {
	case FamilyUni:
		w := native.NewWorld(mem, 1)
		return w, func(slot int) (int, shmem.Priority) { return 0, shmem.Priority(slot % 8) }
	case FamilyMulti:
		w := native.NewWorld(mem, shards)
		return w, func(slot int) (int, shmem.Priority) {
			return slot % shards, shmem.Priority(slot / shards)
		}
	default:
		w := native.NewFreeWorld(mem)
		return w, func(slot int) (int, shmem.Priority) { return 0, 0 }
	}
}

// RunNative builds the object on a fresh native world and drives it to
// quiescence: Procs goroutines, each applying its generated op stream with
// one Begin/End shard window per operation.
func (d *Descriptor) RunNative(r NativeRun) (*NativeResult, error) {
	if r.Procs <= 0 || r.Ops < 0 {
		return nil, fmt.Errorf("registry: native run needs Procs >= 1 and Ops >= 0 (got %d, %d)", r.Procs, r.Ops)
	}
	if r.Procs > native.MaxSlots {
		return nil, fmt.Errorf("registry: native run needs Procs <= %d, a native world's slot bound (got %d)", native.MaxSlots, r.Procs)
	}
	shards := r.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg := r.Cfg
	cfg.Procs = r.Procs
	if cfg.Capacity == 0 {
		// Worst case every op of every process allocates a node and frees
		// go to the freeing slot's pool, so size per-slot pools to the
		// full op budget plus the seeds.
		cfg.Capacity = r.Procs*(r.Ops+4) + 2*len(cfg.SeedKeys) + 8
	}
	mem := native.NewMem(1<<15 + cfg.Capacity*8 + r.Procs*64)
	w, place := nativeLayout(d, mem, shards)
	if r.Obs || r.Recorder {
		// Before BuildOn/NewProc: procs created earlier collect nothing.
		w.EnableObs(native.ObsConfig{Metrics: r.Obs, Recorder: r.Recorder, RingCap: r.RingCap})
	}
	inst, err := BuildOn(NativeBackend(w), d.Name, cfg)
	if err != nil {
		return nil, err
	}
	driven := inst
	if r.Wrap != nil {
		driven = r.Wrap(inst)
	}
	procs := make([]*native.Proc, r.Procs)
	for i := range procs {
		cpu, prio := place(i)
		procs[i] = w.NewProc(i, cpu, prio)
	}
	res := &NativeResult{Inst: inst, World: w, Results: make([][]Result, r.Procs)}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range procs {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p := procs[slot]
			ops := d.Ops(cfg, r.Seed, slot, r.Ops)
			out := make([]Result, len(ops))
			for j, op := range ops {
				p.Begin()
				out[j] = driven.Apply(p, slot, op)
				p.End()
			}
			res.Results[slot] = out
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.PerProc = make([]metrics.OpCounts, r.Procs)
	for i, p := range procs {
		res.PerProc[i] = p.Counts
		res.Counts.Add(p.Counts)
	}
	if r.Obs {
		res.Report = buildNativeReport(d, w, procs, r.Seed, res)
	}
	if r.Recorder {
		res.TraceLog = w.DrainTrace()
		res.DroppedEvents = w.DroppedEvents()
	}
	return res, nil
}

// buildNativeReport aggregates the per-goroutine observability blocks into
// the simulator's report shape, so AssertWaitFree and the BENCH JSON
// consumers read native runs through the same fields. Mapping:
// Granularity is "native"; every *VT field carries wall-clock nanoseconds;
// Slices/Dispatches count shard-runner tenures; OpTime digests the per-op
// latency histogram (Begin→End, shard wait included — the response-time
// figure the "practically wait-free" question asks about); Interference
// uses the simulator's rule (own preemptions plus processes on other
// shards). The native-only fields (Latency, OpLatency, MaxPreemptDepth,
// CAS2GuardRetries) are the omitempty extras the simulator never sets.
func buildNativeReport(d *Descriptor, w *native.World, procs []*native.Proc, seed int64, res *NativeResult) *metrics.Report {
	return NativeReport(d.Name, seed, w, procs, res.Elapsed, res.Counts)
}

// NativeReport is the exported form of the aggregation for drivers that
// spawn their own goroutines against a native world (internal/service)
// instead of going through RunNative: same mapping, same report shape.
func NativeReport(object string, seed int64, w *native.World, procs []*native.Proc, elapsed time.Duration, counts metrics.OpCounts) *metrics.Report {
	rep := &metrics.Report{
		Object:      object,
		Seed:        seed,
		Processors:  w.Processors(),
		Granularity: "native",
		SyncCost:    1,
		ElapsedVT:   elapsed.Nanoseconds(),
		Mem:         counts,
		OpLatency:   &metrics.Hist{},
	}
	for i, p := range procs {
		s := p.Stats()
		pr := metrics.ProcReport{
			ID:               i,
			Name:             fmt.Sprintf("g%d", i),
			CPU:              p.CPU(),
			Prio:             int(p.Prio()),
			Slot:             p.Slot(),
			Mem:              p.Counts,
			HelpGiven:        int(p.HelpGiven),
			HelpReceived:     int(w.HelpReceived(p.Slot())),
			Slices:           s.Dispatches,
			Dispatches:       int(s.Dispatches),
			Preemptions:      int(s.Preemptions),
			OpTime:           s.Latency.Summary(),
			Latency:          s.Latency,
			MaxPreemptDepth:  int(s.MaxPreemptDepth),
			CAS2GuardRetries: s.CAS2GuardRetries,
		}
		pr.Interference = int(s.Preemptions)
		for _, q := range procs {
			if q != p && q.CPU() != p.CPU() {
				pr.Interference++
			}
		}
		rep.Slices += s.Dispatches
		rep.OpLatency.Add(s.Latency)
		rep.CAS2GuardRetries += s.CAS2GuardRetries
		rep.Procs = append(rep.Procs, pr)
	}
	rep.Finalize()
	rep.OpTime = rep.OpLatency.Summary()
	return rep
}
