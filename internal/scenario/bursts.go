package scenario

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/baseline/gclist"
	"repro/internal/baseline/valois"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ListKind selects a list implementation for RunList.
type ListKind string

// The list implementations RunList can drive.
const (
	// WaitFree is the paper's multiprocessor wait-free list (Figure 7).
	WaitFree ListKind = "waitfree"
	// WaitFreeUni is the paper's uniprocessor wait-free list (Figure 5);
	// requires Processors == 1.
	WaitFreeUni ListKind = "waitfree-uni"
	// LockFreeGC is the Greenwald–Cheriton CAS2 lock-free list [7].
	LockFreeGC ListKind = "lockfree-gc"
	// CASOnly is the Valois-lineage CAS-only lock-free list [13].
	CASOnly ListKind = "casonly-valois"
	// LockBased is the test-and-set spin-lock list.
	LockBased ListKind = "lockbased"
)

// ListKinds lists all runnable list kinds.
func ListKinds() []ListKind {
	return []ListKind{WaitFree, WaitFreeUni, LockFreeGC, CASOnly, LockBased}
}

// MWCASKind selects the MWCAS implementation for RunMWCAS.
type MWCASKind string

// The MWCAS implementations RunMWCAS can drive.
const (
	// MWCASUni is the uniprocessor Figure 3 algorithm (requires P=1).
	MWCASUni MWCASKind = "mwcas-uni"
	// MWCASMulti is the multiprocessor Figure 6 algorithm.
	MWCASMulti MWCASKind = "mwcas-multi"
)

// kindObject resolves the kinds — the labels the tables and report goldens
// print — to registry names.
var kindObject = map[string]string{
	string(WaitFree):    "multilist",
	string(WaitFreeUni): "unilist",
	string(LockFreeGC):  "gclist",
	string(CASOnly):     "valois",
	string(LockBased):   "locklist",
	string(MWCASUni):    "unimwcas",
	string(MWCASMulti):  "multimwcas",
}

// ListConfig parameterizes one list run.
type ListConfig struct {
	Kind ListKind
	// Processors is P. BurstsPerCPU higher-priority bursts of BurstOps
	// operations each are injected per processor over the run.
	Processors   int
	BurstsPerCPU int
	BurstOps     int
	// TotalOps is the total operation count across all jobs (the paper
	// used 50,000).
	TotalOps int
	// ListSize is the seeded list length (the paper used 200-2,000).
	// Keys are drawn from [1, 2*ListSize] so roughly half the operations
	// hit present keys.
	ListSize int
	Seed     int64
	// Stride is the wait-free list's checkpoint stride (ignored by the
	// other kinds); it defaults to 100, the paper's measured setup.
	Stride int
	// Granularity defaults to Coarse (preemption at synchronizing
	// operations), which the big sweeps need for speed; correctness
	// tests use Fine.
	Granularity sched.Granularity
	// SyncCost prices synchronizing operations (sched.Config.SyncCost).
	SyncCost int64
	// SearchPercent is the percentage of operations that are searches
	// (the remainder splits evenly between inserts and deletes). The
	// paper's workload used none; real kernels are read-heavy.
	SearchPercent int
	// Policy names the scheduling discipline ("" = strict priority). The
	// runs accept the disciplines their helping-protocol model is sound
	// for (see PolicyAccepted) and refuse the rest with a wrapped
	// sched.ErrNonPriorityPolicy.
	Policy string
	// Check attaches the object's linearizability checker (slower).
	Check bool
	// EnableTrace records the run's event log (ListResult.TraceLog) for
	// span reconstruction with internal/tracex. Emission charges no
	// virtual time, so traced and untraced runs measure identically.
	EnableTrace bool
}

// ListResult is the measured outcome of one list run.
type ListResult struct {
	Cfg      ListConfig
	Ops      int
	Makespan int64
	// WorstOp and AvgOp are operation response times (virtual units),
	// including preemption and helping delay.
	WorstOp int64
	AvgOp   float64
	// BaseOp is the interference-free cost of one operation at this list
	// size, measured in a separate single-process run. WorstOp/BaseOp is
	// the paper's "at most eight times that of an interference-free
	// operation" metric.
	BaseOp int64
	// Retries/WorstRetries are retry statistics for the lock-free kinds
	// (zero for wait-free: wait-free operations never retry).
	Retries      int
	WorstRetries int
	// Final is the final list length (sanity).
	Final int
	// Livelocked is set when the run tripped the step watchdog — the
	// expected outcome for the lock-based list under priority
	// preemption (unbounded priority inversion), and a hard failure for
	// every other kind.
	Livelocked bool
	// Report is the run's full observability report: per-process step
	// counts, CAS-failure counts, helping and preemption accounting, and
	// response-time histograms. On a livelocked run it is the snapshot at
	// watchdog time.
	Report *metrics.Report
	// TraceLog is the run's event log when Cfg.EnableTrace was set, nil
	// otherwise; feed it to tracex.Build for the span model.
	TraceLog *trace.Log
}

// MWCASConfig parameterizes an MWCAS run: processes perform
// read-compute-MWCAS transactions over a shared word set, retrying on
// conflict, under priority preemption bursts.
type MWCASConfig struct {
	Kind MWCASKind
	// Processors is P; Words is the shared word count; Width is the
	// number of words each transaction updates.
	Processors, Words, Width int
	// TotalCommits is the total number of committed transactions to
	// perform across all workers.
	TotalCommits int
	// BurstsPerCPU higher-priority jobs of BurstCommits each preempt the
	// base workers.
	BurstsPerCPU, BurstCommits int
	Seed                       int64
	// Granularity defaults to Coarse.
	Granularity sched.Granularity
	// Policy names the scheduling discipline; the same accept/refuse
	// gate as ListConfig.Policy applies (see PolicyAccepted).
	Policy string
}

// MWCASResult is the measured outcome of one MWCAS run.
type MWCASResult struct {
	Cfg      MWCASConfig
	Commits  int
	Failures int // failed attempts (application-level retries)
	Makespan int64
	WorstOp  int64 // worst single MWCAS call response
}

// PolicyAccepted reports whether the burst runs accept the named policy
// ("" = the strict-priority default). Their measurement model leans on two
// properties: a dispatched job keeps its processor until a
// *higher-priority* release preempts it (so the burst jobs are the only
// interference source), and the base workers are never starved outright
// (so every run terminates with its budget spent). Strict priority is the
// paper's model; fcfs and priority-fcfs are non-preemptive, which only
// removes preemption edges — the helping protocol stays sound and the
// bursts still serialize against the base workers. The remaining
// disciplines (sjf, age-slo, reverse-priority) reorder or invert dispatch
// in ways the burst-interference accounting does not model, so they are
// refused rather than silently mismeasured.
func PolicyAccepted(name string) bool {
	return name == "" || slices.Contains(AcceptedPolicies(), name)
}

// AcceptedPolicies lists the non-empty accepted policy names, sorted.
func AcceptedPolicies() []string { return []string{"fcfs", "priority", "priority-fcfs"} }

// layout is the job layout of a burst run. One priority-1 base worker per
// processor splits the base budget (processor 0 takes the remainder); then
// each processor gets perCPU bursts of perBurst units at priorities
// 2+b%3 (a few nested levels), released across an estimated run length
// with seeded jitter. Every job has its own slot: slots never execute
// concurrently within a job, and distinct jobs have distinct slots.
type layout struct {
	procs, perCPU, perBurst, total int
}

func (l layout) slots() int { return l.procs * (1 + l.perCPU) }

func (l layout) burstUnits() int { return l.procs * l.perCPU * l.perBurst }

// resolve validates the layout (unit names its budget in errors) and
// resolves the run's kind to a registry name and its policy, refusing a
// uniprocessor object on more than one processor and a policy outside
// PolicyAccepted (with a wrapped sched.ErrNonPriorityPolicy).
func (l layout) resolve(kind, policy, unit string) (string, sched.Policy, error) {
	if l.procs < 1 {
		return "", nil, fmt.Errorf("scenario: processors %d out of range", l.procs)
	}
	if l.perCPU < 0 || l.perBurst < 0 {
		return "", nil, fmt.Errorf("scenario: negative burst configuration")
	}
	if b := l.burstUnits(); b > l.total {
		return "", nil, fmt.Errorf("scenario: burst %s %d exceed total %d", unit, b, l.total)
	}
	pol, err := sched.PolicyByName(policy)
	if err != nil {
		return "", nil, fmt.Errorf("scenario: %w", err)
	}
	if !PolicyAccepted(policy) {
		return "", nil, fmt.Errorf("scenario: %w: the burst runs model interference under priority/fcfs/priority-fcfs only, not policy %q",
			sched.ErrNonPriorityPolicy, pol.Name())
	}
	name, ok := kindObject[kind]
	if !ok {
		return "", nil, fmt.Errorf("scenario: unknown kind %q", kind)
	}
	if registry.Lookup0(name).Family == registry.FamilyUni && l.procs != 1 {
		return "", nil, fmt.Errorf("scenario: %s requires one processor, got %d", kind, l.procs)
	}
	return name, pol, nil
}

// spawn adds the layout's jobs to s; body performs units of work as slot.
// est is the estimated run length in slices: late triggers fire at
// quiescence, early ones merely shift the preemption pattern, so a rough
// estimate suffices.
func (l layout) spawn(s *sched.Sim, est int64, body func(e *sched.Env, slot, units int)) {
	baseTotal := l.total - l.burstUnits()
	basePer := baseTotal / l.procs
	for cpu := 0; cpu < l.procs; cpu++ {
		units := basePer
		if cpu == 0 {
			units += baseTotal - basePer*l.procs
		}
		s.Spawn(sched.JobSpec{
			Name: fmt.Sprintf("base%d", cpu), CPU: cpu, Prio: 1, Slot: cpu,
			AfterSlices: -1,
			Body:        func(e *sched.Env) { body(e, cpu, units) },
		})
	}
	gap := est / int64(l.perCPU+1)
	job := 0
	for cpu := 0; cpu < l.procs; cpu++ {
		for b := 0; b < l.perCPU; b++ {
			slot := l.procs + job
			release := est*int64(b+1)/int64(l.perCPU+1) + s.Rand().Int63n(gap+1)
			s.Spawn(sched.JobSpec{
				Name: fmt.Sprintf("burst%d", job), CPU: cpu, Prio: sched.Priority(2 + b%3), Slot: slot,
				AfterSlices: release,
				Body:        func(e *sched.Env) { body(e, slot, l.perBurst) },
			})
			job++
		}
	}
}

// listObject is the registry configuration of a list run's object: the
// even keys 2..2*ListSize seeded, room for every insert.
func listObject(cfg ListConfig, procs, slots, ops int) registry.Config {
	keys := make([]uint64, cfg.ListSize)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1))
	}
	return registry.Config{
		Processors: procs,
		Procs:      slots,
		Capacity:   cfg.ListSize + ops + 4*slots + 8,
		SeedKeys:   keys,
		Stride:     cfg.Stride,
		Check:      cfg.Check,
	}
}

// RunList executes one list run and returns its measurements.
func RunList(cfg ListConfig) (*ListResult, error) {
	if cfg.Granularity == 0 {
		cfg.Granularity = sched.Coarse
	}
	if cfg.SearchPercent < 0 || cfg.SearchPercent > 100 {
		return nil, fmt.Errorf("scenario: search percentage %d out of range", cfg.SearchPercent)
	}
	lay := layout{procs: cfg.Processors, perCPU: cfg.BurstsPerCPU, perBurst: cfg.BurstOps, total: cfg.TotalOps}
	name, pol, err := lay.resolve(string(cfg.Kind), cfg.Policy, "ops")
	if err != nil {
		return nil, err
	}

	slots := lay.slots()
	obj := listObject(cfg, cfg.Processors, slots, cfg.TotalOps)
	s := sched.New(sched.Config{
		Processors:  cfg.Processors,
		Seed:        cfg.Seed,
		MemWords:    3*obj.Capacity + 64*slots + 1<<13,
		Granularity: cfg.Granularity,
		SyncCost:    cfg.SyncCost,
		MaxSteps:    uint64(cfg.TotalOps)*uint64(cfg.ListSize+64)*8*uint64(max(cfg.SyncCost, 1)) + 1<<22,
		EnableTrace: cfg.EnableTrace,
		Policy:      pol,
	})
	inst, err := registry.Build(s, name, obj)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	res := &ListResult{Cfg: cfg, BaseOp: 1}
	keyRange := 2 * cfg.ListSize
	var totalOpTime int64
	lay.spawn(s, int64(cfg.TotalOps*(8+cfg.ListSize/16)), func(e *sched.Env, slot, ops int) {
		for i := 0; i < ops; i++ {
			op := registry.Op{Key: uint64(1 + e.Rand().Intn(keyRange))}
			switch {
			case e.Rand().Intn(100) < cfg.SearchPercent:
				op.Code = registry.OpSearch
			case e.Rand().Intn(2) == 0:
				op.Code, op.Val = registry.OpInsert, op.Key
			default:
				op.Code = registry.OpDelete
			}
			start := e.Now()
			inst.Apply(e, slot, op)
			elapsed := e.Now() - start
			e.RecordOp(elapsed)
			totalOpTime += elapsed
			res.WorstOp = max(res.WorstOp, elapsed)
			res.Ops++
		}
	})

	err = s.Run()
	res.Makespan = s.Elapsed()
	res.Report = s.Report(string(cfg.Kind))
	res.TraceLog = s.Trace()
	if errors.Is(err, sched.ErrWatchdog) {
		// Livelock: report it as a measurement (the paper's motivating
		// failure mode for lock-based objects).
		res.Livelocked = true
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := inst.CheckErr(); err != nil {
		return nil, err
	}
	if res.Ops > 0 {
		res.AvgOp = float64(totalOpTime) / float64(res.Ops)
	}
	res.Final = len(inst.Snapshot())
	switch v := inst.Underlying().(type) {
	case *gclist.List:
		st := v.TotalStats()
		res.Retries, res.WorstRetries = st.Retries, st.WorstRetries
	case *valois.List:
		st := v.TotalStats()
		res.Retries, res.WorstRetries = st.Retries, st.WorstRetries
	}
	if res.BaseOp, err = measureBaseOp(cfg, name, pol); err != nil {
		return nil, err
	}
	return res, nil
}

// measureBaseOp runs a single-process, interference-free insert/delete
// probe on the same object to obtain the baseline per-operation cost at
// this list size.
func measureBaseOp(cfg ListConfig, name string, pol sched.Policy) (int64, error) {
	const probeOps = 32
	obj := listObject(cfg, 1, 1, probeOps)
	obj.Check = false
	s := sched.New(sched.Config{
		Processors:  1,
		Seed:        cfg.Seed + 1,
		MemWords:    3*(cfg.ListSize+probeOps+32) + 1<<13,
		Granularity: cfg.Granularity,
		Policy:      pol,
	})
	inst, err := registry.Build(s, name, obj)
	if err != nil {
		return 0, fmt.Errorf("scenario: base-op probe: %w", err)
	}
	var worst int64 = 1
	s.SpawnAt(0, 0, 1, "probe", func(e *sched.Env) {
		for i := 0; i < probeOps; i++ {
			op := registry.Op{Code: registry.OpDelete, Key: uint64(1 + e.Rand().Intn(2*cfg.ListSize))}
			if e.Rand().Intn(2) == 0 {
				op.Code, op.Val = registry.OpInsert, op.Key
			}
			start := e.Now()
			inst.Apply(e, 0, op)
			worst = max(worst, e.Now()-start)
		}
	})
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("scenario: base-op probe: %w", err)
	}
	return worst, nil
}

// RunMWCAS executes one MWCAS run and returns its measurements.
func RunMWCAS(cfg MWCASConfig) (*MWCASResult, error) {
	if cfg.Width < 1 || cfg.Width > cfg.Words {
		return nil, fmt.Errorf("scenario: width %d out of range [1,%d]", cfg.Width, cfg.Words)
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = sched.Coarse
	}
	lay := layout{procs: cfg.Processors, perCPU: cfg.BurstsPerCPU, perBurst: cfg.BurstCommits, total: cfg.TotalCommits}
	name, pol, err := lay.resolve(string(cfg.Kind), cfg.Policy, "commits")
	if err != nil {
		return nil, err
	}

	s := sched.New(sched.Config{
		Processors:  cfg.Processors,
		Seed:        cfg.Seed,
		MemWords:    1 << 16,
		Granularity: cfg.Granularity,
		MaxSteps:    uint64(cfg.TotalCommits)*uint64(cfg.Words+64)*64 + 1<<22,
		Policy:      pol,
	})
	inst, err := registry.Build(s, name, registry.Config{
		Processors: cfg.Processors, Procs: lay.slots(), Words: cfg.Words, Width: cfg.Width,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	res := &MWCASResult{Cfg: cfg}
	lay.spawn(s, int64(cfg.TotalCommits*(16+4*cfg.Width)), func(e *sched.Env, slot, commits int) {
		for done := 0; done < commits; {
			start := e.Now()
			op := registry.Op{Code: registry.OpMWCAS, Words: pick(e.Rand().Intn, cfg.Words, cfg.Width), Delta: 1}
			ok := inst.Apply(e, slot, op).OK
			res.WorstOp = max(res.WorstOp, e.Now()-start)
			if ok {
				done++
				res.Commits++
			} else {
				res.Failures++
			}
		}
	})
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	res.Makespan = s.Elapsed()

	// Conservation check: every committed transaction incremented Width
	// words by one, so the word sum equals Commits * Width.
	var sum uint64
	for _, v := range inst.Snapshot() {
		sum += v
	}
	if sum != uint64(res.Commits*cfg.Width) {
		return nil, errors.New("scenario: MWCAS conservation violated (lost or doubled commits)")
	}
	return res, nil
}

// pick chooses width distinct indices in [0, words).
func pick(rng func(int) int, words, width int) []int {
	idx := make([]int, 0, width)
	used := make(map[int]bool, width)
	for len(idx) < width {
		i := rng(words)
		if !used[i] {
			used[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}
