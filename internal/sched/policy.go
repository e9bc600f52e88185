package sched

import (
	"fmt"
	"sort"
)

// JobInfo is the policy-visible view of a job at release time. Key
// computation sees only fixed spec fields plus the release clock, so a
// job's key never changes while it sits in the ready set — every policy is
// a static-key discipline and the ready heap stays a strict total order.
type JobInfo struct {
	// ID is the process identifier (dense, in spawn order).
	ID int
	// CPU and Slot mirror JobSpec.
	CPU  int
	Slot int
	// Prio is the job's fixed priority (larger = more urgent under the
	// default policy).
	Prio Priority
	// Cost is the workload's advance estimate of the job's length
	// (JobSpec.Cost — op counts in the registry drivers); 0 when the
	// workload provided none. Only cost-aware policies (sjf) read it.
	Cost int64
	// Released is the virtual time on the job's processor at release.
	Released int64
}

// Policy is the scheduling discipline: it maps each released job to an
// ordering key (smaller keys dispatch first) and decides whether a newly
// ready job preempts the running one.
//
// Deterministic tie-breaking is part of the contract, not the policy's
// problem: the scheduler breaks equal keys by enqueue order (the same
// (Prio, enqueueNo) rule the original strict-priority readyHeap used), so
// every policy induces a strict total order and a policy whose keys all
// collide degrades exactly to FIFO. A preempted process keeps its original
// enqueue number, so it resumes in the position a stable sort would have
// kept it in.
//
// Preempts must be a strict order on keys (irreflexive: equal keys never
// preempt — no time slicing, exactly as the paper's model demands of equal
// priorities). Policies whose Preempts is strictly "ready < current" are
// order-isomorphic to the paper's strict-priority discipline under a
// relabelling of priorities, so the wait-freedom bounds carry over; see
// DESIGN.md §13 for what the bounds mean under the others.
type Policy interface {
	// Name is the flag-facing identifier (wfcheck/wfbench/wftrace -policy).
	Name() string
	// Key orders the ready queue: smaller dispatches first.
	Key(j JobInfo) int64
	// Preempts reports whether a newly ready job with key ready preempts
	// the running job with key current. It must be irreflexive:
	// Preempts(k, k) == false.
	Preempts(ready, current int64) bool
}

// ageSLOSlack is the age-slo policy's exchange rate: one priority level is
// worth this many virtual-time units of waiting. A job released t units
// after a one-level-higher job overtakes it once t > ageSLOSlack.
const ageSLOSlack = 24

// priorityPolicy is the paper's discipline and the default: strict fixed
// priority (higher Prio first), preempt-on-higher-priority, FIFO among
// equals. Its key order reproduces the original readyHeap comparator
// (Prio descending, enqueueNo ascending) exactly.
type priorityPolicy struct{}

func (priorityPolicy) Name() string                       { return "priority" }
func (priorityPolicy) Key(j JobInfo) int64                { return -int64(j.Prio) }
func (priorityPolicy) Preempts(ready, current int64) bool { return ready < current }

// fcfsPolicy ignores priorities entirely: pure arrival order, never
// preempting. Every key is zero, so the scheduler's enqueue-order tie-break
// IS the policy.
type fcfsPolicy struct{}

func (fcfsPolicy) Name() string                       { return "fcfs" }
func (fcfsPolicy) Key(JobInfo) int64                  { return 0 }
func (fcfsPolicy) Preempts(ready, current int64) bool { return false }

// prioFcfsPolicy dispatches by priority but never preempts: a running job
// always finishes its access (run-to-completion per dispatch), then the
// highest-priority waiter goes next.
type prioFcfsPolicy struct{}

func (prioFcfsPolicy) Name() string                       { return "priority-fcfs" }
func (prioFcfsPolicy) Key(j JobInfo) int64                { return -int64(j.Prio) }
func (prioFcfsPolicy) Preempts(ready, current int64) bool { return false }

// sjfPolicy is non-preemptive shortest-job-first on the workload's declared
// Cost hint. Jobs without a hint (Cost 0) sort first; equal costs fall back
// to FIFO, so an unhinted job set degrades to fcfs.
type sjfPolicy struct{}

func (sjfPolicy) Name() string                       { return "sjf" }
func (sjfPolicy) Key(j JobInfo) int64                { return j.Cost }
func (sjfPolicy) Preempts(ready, current int64) bool { return false }

// ageSLOPolicy trades priority against waiting time: the key is the release
// clock minus a per-priority-level slack, so high-priority jobs go first
// when releases are close together, but a job that has aged past the slack
// window overtakes fresher higher-priority arrivals. Preemptive, like the
// deadline-ish schedulers real SLO systems run.
type ageSLOPolicy struct{}

func (ageSLOPolicy) Name() string                       { return "age-slo" }
func (ageSLOPolicy) Key(j JobInfo) int64                { return j.Released - ageSLOSlack*int64(j.Prio) }
func (ageSLOPolicy) Preempts(ready, current int64) bool { return ready < current }

// reversePolicy is the pathological stressor: strict priority inverted, so
// the LOWEST priority is the most urgent and preempts. It manufactures the
// priority-inversion shapes the paper's discipline can never produce (a
// prio-1 arrival evicting a running prio-9 operation), which is exactly
// what the helping machinery should survive.
type reversePolicy struct{}

func (reversePolicy) Name() string                       { return "reverse-priority" }
func (reversePolicy) Key(j JobInfo) int64                { return int64(j.Prio) }
func (reversePolicy) Preempts(ready, current int64) bool { return ready < current }

// defaultPolicy is the discipline used when Config.Policy is nil.
var defaultPolicy Policy = priorityPolicy{}

// DefaultPolicy returns the paper's strict-priority discipline (the
// "priority" template).
func DefaultPolicy() Policy { return defaultPolicy }

// policies is the template registry, keyed by Name.
var policies = map[string]Policy{}

func init() {
	for _, p := range []Policy{
		priorityPolicy{}, fcfsPolicy{}, prioFcfsPolicy{},
		sjfPolicy{}, ageSLOPolicy{}, reversePolicy{},
	} {
		policies[p.Name()] = p
	}
}

// PolicyByName resolves a policy template; "" means the default.
func PolicyByName(name string) (Policy, error) {
	if name == "" {
		return defaultPolicy, nil
	}
	if p, ok := policies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, PolicyNames())
}

// PolicyNames returns every template name, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
