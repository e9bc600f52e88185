// Package mutant holds deliberately mis-linearized objects: the
// checker-of-the-checker seeds for the black-box engine's mutation tests.
//
// Both mutants are "lazy" helped objects: an enqueue/push announces its
// value in a per-slot buffer and responds immediately; a later operation
// drains the buffers and splices the announced values into the structure.
// The bug is the drain order — descending slot index, i.e. whichever
// helping order the (fictional) implementer happened to pick — which
// commits announced operations in an order that contradicts real time: an
// enqueue that completed before a second enqueue even began can be spliced
// *after* it.
//
// This is precisely the bug class the paper's helping engines must avoid
// (announced operations must be committed consistently with their
// announce/response order) and precisely the class the repo's white-box
// checkers cannot see: each mutant carries its own white-box checker in
// the style of the registry's checkers — a sequential model replayed at the
// object's *stated* linearization points (the splice writes) — and that
// checker passes, because results and final state are perfectly consistent
// with the (wrong) commit order. Only a history-based checker, which knows
// that op A responded before op B was invoked, can reject these objects.
package mutant

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/shmem"
)

// pending is one announced-but-uncommitted value.
type pending struct {
	val uint64
	set bool
}

// whitebox replays a sequential model at the mutant's stated linearization
// points (the splices and the removals), mimicking the registry
// checkers' replay-at-commit discipline.
type whitebox struct {
	model registry.Model
	errs  []error
}

func (w *whitebox) commit(op registry.Op, got registry.Result) {
	want := w.model.Apply(op)
	if want.OK != got.OK || (got.OK && want.Val != got.Val &&
		(op.Code == registry.OpDequeue || op.Code == registry.OpPop)) {
		w.errs = append(w.errs, fmt.Errorf("mutant whitebox: %s returned %+v, model says %+v", op.Code, got, want))
	}
}

func (w *whitebox) finish(snapshot []uint64) error {
	want := w.model.Snapshot()
	if len(snapshot) != len(want) {
		w.errs = append(w.errs, fmt.Errorf("mutant whitebox: final state %v, model %v", snapshot, want))
	} else {
		for i := range want {
			if snapshot[i] != want[i] {
				w.errs = append(w.errs, fmt.Errorf("mutant whitebox: final state %v, model %v", snapshot, want))
				break
			}
		}
	}
	if len(w.errs) > 0 {
		return w.errs[0]
	}
	return nil
}

// LazyQueue is the mis-linearized FIFO mutant. It implements
// registry.Instance.
type LazyQueue struct {
	ann []pending
	q   []uint64
	wb  whitebox
}

// NewLazyQueue returns a mutant queue for the given number of process
// slots, with its white-box checker armed.
func NewLazyQueue(slots int, model registry.Model) *LazyQueue {
	return &LazyQueue{ann: make([]pending, slots), wb: whitebox{model: model}}
}

// drain commits announced enqueues in DESCENDING slot order — the
// mis-linearization. A correct helping engine would commit them in
// announce order.
func (q *LazyQueue) drain(e shmem.Ctx) {
	for slot := len(q.ann) - 1; slot >= 0; slot-- {
		if q.ann[slot].set {
			q.q = append(q.q, q.ann[slot].val)
			q.wb.commit(registry.Op{Code: registry.OpEnqueue, Val: q.ann[slot].val}, registry.Result{OK: true})
			q.ann[slot] = pending{}
			e.Yield()
		}
	}
}

// Apply implements registry.Instance.
func (q *LazyQueue) Apply(e shmem.Ctx, slot int, op registry.Op) registry.Result {
	switch op.Code {
	case registry.OpEnqueue:
		// Announce and respond; the splice — the operation's actual
		// linearization — happens during some later operation.
		q.ann[slot] = pending{val: op.Val, set: true}
		e.Yield()
		return registry.Result{OK: true}
	case registry.OpDequeue:
		q.drain(e)
		if len(q.q) == 0 {
			res := registry.Result{OK: false}
			q.wb.commit(op, res)
			return res
		}
		v := q.q[0]
		q.q = q.q[1:]
		res := registry.Result{OK: true, Val: v}
		q.wb.commit(op, res)
		e.Yield()
		return res
	}
	panic("mutant: lazy queue got " + op.Code.String())
}

// Snapshot implements registry.Instance; announced-but-unspliced values
// are, per the mutant's own story, already "in" the queue's future.
func (q *LazyQueue) Snapshot() []uint64 {
	out := append([]uint64(nil), q.q...)
	for slot := len(q.ann) - 1; slot >= 0; slot-- {
		if q.ann[slot].set {
			out = append(out, q.ann[slot].val)
		}
	}
	return out
}

// Underlying implements registry.Instance.
func (q *LazyQueue) Underlying() any { return q }

// CheckErr implements registry.Instance: the white-box verdict. It drains
// nothing — it judges exactly what the commit-point replay saw.
func (q *LazyQueue) CheckErr() error { return q.wb.finish(q.q) }

// LazyStack is the mis-linearized LIFO mutant: same announce-then-drain
// shape, same descending drain order. Draining pushes in descending slot
// order leaves the *earliest* announced value on top, so a pop can return
// a value whose push completed strictly before a later push that is still
// buried.
type LazyStack struct {
	ann []pending
	st  []uint64 // st[0] = top
	wb  whitebox
}

// NewLazyStack returns a mutant stack with its white-box checker armed.
func NewLazyStack(slots int, model registry.Model) *LazyStack {
	return &LazyStack{ann: make([]pending, slots), wb: whitebox{model: model}}
}

func (s *LazyStack) drain(e shmem.Ctx) {
	for slot := len(s.ann) - 1; slot >= 0; slot-- {
		if s.ann[slot].set {
			s.st = append([]uint64{s.ann[slot].val}, s.st...)
			s.wb.commit(registry.Op{Code: registry.OpPush, Val: s.ann[slot].val}, registry.Result{OK: true})
			s.ann[slot] = pending{}
			e.Yield()
		}
	}
}

// Apply implements registry.Instance.
func (s *LazyStack) Apply(e shmem.Ctx, slot int, op registry.Op) registry.Result {
	switch op.Code {
	case registry.OpPush:
		s.ann[slot] = pending{val: op.Val, set: true}
		e.Yield()
		return registry.Result{OK: true}
	case registry.OpPop:
		s.drain(e)
		if len(s.st) == 0 {
			res := registry.Result{OK: false}
			s.wb.commit(op, res)
			return res
		}
		v := s.st[0]
		s.st = s.st[1:]
		res := registry.Result{OK: true, Val: v}
		s.wb.commit(op, res)
		e.Yield()
		return res
	}
	panic("mutant: lazy stack got " + op.Code.String())
}

// Snapshot implements registry.Instance.
func (s *LazyStack) Snapshot() []uint64 {
	out := append([]uint64(nil), s.st...)
	return out
}

// Underlying implements registry.Instance.
func (s *LazyStack) Underlying() any { return s }

// CheckErr implements registry.Instance.
func (s *LazyStack) CheckErr() error { return s.wb.finish(s.st) }
