// Package linz is the repo's black-box linearizability engine.
//
// Every other correctness gate in this repository is white-box: the
// checkers in internal/registry trust the paper's stated linearization points
// (the Status/Rv commit writes) and replay a sequential model at exactly
// those instants. A bug in the *choice* of linearization point — an
// operation committed outside its own invoke→response window, or helped
// operations committed in the wrong order — is invisible to them, because
// the model is replayed in whatever order the (mis-chosen) commit writes
// occur. This package closes that hole the way history-based checkers do
// (Wing–Gong, and the WGL variant used by Lowe and by porcupine): record
// only the externally observable history — who invoked what, when, and
// what came back — and search for *any* legal linearization, using nothing
// but the object's sequential specification.
//
// The pieces:
//
//   - a history Recorder (this file) that wraps a registry.Instance and
//     captures (proc, op, args, result, invoke-step, response-step)
//     intervals, riding the same Apply path the trace and metrics layers
//     observe — the object under test is never touched;
//   - a Wing–Gong/WGL search engine (engine.go) with interval partitioning
//     and memoized state hashing, so thousand-op histories check in
//     milliseconds;
//   - specs (spec.go) adapted from the sequential models every registry
//     descriptor already carries, so all core objects and baselines get
//     black-box coverage for free;
//   - randomized adversary schedules (the adversary subpackage) that
//     generate the histories to check.
package linz

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// OpRecord is one completed (or still-pending) operation interval of a
// recorded history.
type OpRecord struct {
	// Proc is the algorithm-level process slot that performed the
	// operation.
	Proc int
	// Op and Result are the abstract operation and its observed outcome
	// (Result is meaningless while Pending).
	Op     registry.Op
	Result registry.Result
	// Invoke and Return are the recorder-assigned event indices of the
	// operation's invocation and response. The simulator executes exactly
	// one process at any real instant, so these indices totally order all
	// invocation and response events: operation A precedes operation B in
	// real time iff A.Return < B.Invoke. Return is -1 while Pending.
	Invoke, Return int
	// InvokeStep and ReturnStep are the global scheduler slice counts at
	// invocation and response, correlating the interval with trace spans.
	InvokeStep, ReturnStep uint64
	// Pending marks an operation whose response was never recorded (the
	// run was aborted mid-operation). A pending operation may have taken
	// effect or not; the engine tries both.
	Pending bool
}

// History is a recorded execution: the operation intervals in invocation
// order.
type History struct {
	Ops []OpRecord
	// Events is the total number of invoke/response events assigned.
	Events int
}

// Recorder captures a history from a running simulation. It is installed
// by wrapping the instance under test (Record); the wrapper notes the
// invocation before delegating to the real Apply and the response after,
// so recording never perturbs the object or the schedule (no simulated
// time is charged).
type Recorder struct {
	h History
}

// recorded is the instrumented instance handed back by Record.
type recorded struct {
	inner registry.Instance
	rec   *Recorder
}

// Record wraps inst so every Apply is captured in the returned recorder's
// history. Drive the simulation through the returned instance.
func Record(inst registry.Instance) (*Recorder, registry.Instance) {
	rec := &Recorder{}
	return rec, &recorded{inner: inst, rec: rec}
}

func (r *recorded) Apply(e shmem.Ctx, slot int, op registry.Op) registry.Result {
	id := r.rec.invoke(slot, op, stepOf(e))
	res := r.inner.Apply(e, slot, op)
	r.rec.response(id, res, stepOf(e))
	return res
}

// recordedShared is the concurrently-driven recorder wrapper (RecordShared).
type recordedShared struct {
	mu    sync.Mutex
	inner registry.Instance
	rec   *Recorder
}

// RecordShared is Record for instances driven by concurrent goroutines (the
// native backend). Event indices are assigned under a mutex, with the
// invocation recorded at Apply entry and the response at Apply exit; the
// wrapped operation runs entirely between its two record points, so the
// recorded event order is a real-time order for the recorded history and
// the Wing–Gong engine's precedence test (A.Return < B.Invoke) remains
// exact off-simulator.
func RecordShared(inst registry.Instance) (*Recorder, registry.Instance) {
	rec := &Recorder{}
	return rec, &recordedShared{inner: inst, rec: rec}
}

func (r *recordedShared) Apply(e shmem.Ctx, slot int, op registry.Op) registry.Result {
	r.mu.Lock()
	id := r.rec.invoke(slot, op, stepOf(e))
	r.mu.Unlock()
	res := r.inner.Apply(e, slot, op)
	r.mu.Lock()
	r.rec.response(id, res, stepOf(e))
	r.mu.Unlock()
	return res
}

func (r *recordedShared) Snapshot() []uint64 { return r.inner.Snapshot() }
func (r *recordedShared) Underlying() any    { return r.inner.Underlying() }
func (r *recordedShared) CheckErr() error    { return r.inner.CheckErr() }

// stepOf reads the global slice count when the context is the simulator's
// (for trace-span correlation); other backends have no slice clock and
// record step 0.
func stepOf(e shmem.Ctx) uint64 {
	if se, ok := e.(interface{ Sim() *sched.Sim }); ok {
		return se.Sim().Slices()
	}
	return 0
}

func (r *recorded) Snapshot() []uint64 { return r.inner.Snapshot() }
func (r *recorded) Underlying() any    { return r.inner.Underlying() }
func (r *recorded) CheckErr() error    { return r.inner.CheckErr() }

func (r *Recorder) invoke(slot int, op registry.Op, step uint64) int {
	id := len(r.h.Ops)
	r.h.Ops = append(r.h.Ops, OpRecord{
		Proc: slot, Op: op,
		Invoke: r.h.Events, Return: -1, InvokeStep: step,
		Pending: true,
	})
	r.h.Events++
	return id
}

func (r *Recorder) response(id int, res registry.Result, step uint64) {
	rec := &r.h.Ops[id]
	rec.Result = res
	rec.Return = r.h.Events
	rec.ReturnStep = step
	rec.Pending = false
	r.h.Events++
}

// History returns the recorded history. Operations whose response never
// arrived (aborted runs) remain marked Pending.
func (r *Recorder) History() *History { return &r.h }

// Procs returns the number of distinct process slots appearing in the
// history.
func (h *History) Procs() int {
	seen := map[int]bool{}
	for i := range h.Ops {
		seen[h.Ops[i].Proc] = true
	}
	return len(seen)
}

// FormatOp renders an abstract operation the way histories and
// counterexamples print it.
func FormatOp(op registry.Op) string {
	switch op.Code {
	case registry.OpInsert:
		return fmt.Sprintf("insert key=%d val=%d", op.Key, op.Val)
	case registry.OpDelete, registry.OpSearch:
		return fmt.Sprintf("%s key=%d", op.Code, op.Key)
	case registry.OpEnqueue, registry.OpPush:
		return fmt.Sprintf("%s val=%d", op.Code, op.Val)
	case registry.OpDequeue, registry.OpPop:
		return op.Code.String()
	case registry.OpMWCAS:
		return fmt.Sprintf("mwcas words=%v delta=%d", op.Words, op.Delta)
	}
	return op.Code.String()
}

// formatResult renders an operation's outcome.
func (rec *OpRecord) formatResult() string {
	if rec.Pending {
		return "pending"
	}
	switch rec.Op.Code {
	case registry.OpDequeue, registry.OpPop:
		if rec.Result.OK {
			return fmt.Sprintf("ok val=%d", rec.Result.Val)
		}
		return "empty"
	case registry.OpMWCAS:
		if rec.Result.OK {
			return fmt.Sprintf("ok val=%d", rec.Result.Val)
		}
		return "failed"
	default:
		if rec.Result.OK {
			return "ok"
		}
		return "miss"
	}
}

// line renders one operation interval; the shared form used by the history
// dump and the counterexample tree.
func (rec *OpRecord) line(id int) string {
	if rec.Pending {
		return fmt.Sprintf("op#%-3d slot%d  %-24s -> %-10s e[%d,?] step[%d,?]",
			id, rec.Proc, FormatOp(rec.Op), rec.formatResult(), rec.Invoke, rec.InvokeStep)
	}
	return fmt.Sprintf("op#%-3d slot%d  %-24s -> %-10s e[%d,%d] step[%d,%d]",
		id, rec.Proc, FormatOp(rec.Op), rec.formatResult(),
		rec.Invoke, rec.Return, rec.InvokeStep, rec.ReturnStep)
}

// WriteText renders the history deterministically, one operation interval
// per line in invocation order. Identical runs render byte-identically.
func (h *History) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "history: %d ops, %d procs, %d events\n", len(h.Ops), h.Procs(), h.Events); err != nil {
		return err
	}
	for i := range h.Ops {
		if _, err := fmt.Fprintf(w, "  %s\n", h.Ops[i].line(i)); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the history as WriteText would.
func (h *History) Text() string {
	var sb strings.Builder
	if err := h.WriteText(&sb); err != nil {
		return sb.String()
	}
	return sb.String()
}
