package registry

import (
	"fmt"
	"slices"
)

// Model is an object's sequential specification: the golden in-memory
// implementation an execution's operation sequence is replayed against.
// The white-box checkers (check.go) replay commits against it inside the
// run, the differential tests compare concrete objects to it op for op, and
// the black-box checker (internal/linz) searches over its states, which is
// what Fork and Hash exist for.
type Model interface {
	// Apply performs op sequentially and returns the specified outcome.
	Apply(op Op) Result
	// Snapshot returns the canonical state (same convention as
	// Instance.Snapshot).
	Snapshot() []uint64
	// Fork returns an independent copy of the model; applying operations
	// to either side never affects the other (backtracking search).
	Fork() Model
	// Hash returns a canonical hash of the current state: equal states
	// hash equal regardless of how they were reached (memoization).
	Hash() uint64
}

// NewModel returns a fresh sequential model of the descriptor's kind,
// pre-seeded like an instance built with cfg would be.
func (d *Descriptor) NewModel(cfg Config) Model { return newModel(d.Model, cfg) }

func newModel(kind ModelKind, cfg Config) Model {
	switch kind {
	case ModelSorted:
		m := &sortedModel{present: map[uint64]bool{}}
		for _, k := range cfg.SeedKeys {
			m.present[k] = true
		}
		return m
	case ModelFIFO:
		return &fifoModel{}
	case ModelLIFO:
		return &lifoModel{}
	case ModelWords:
		words := make([]uint64, cfg.Words)
		copy(words, cfg.Initial)
		return &wordsModel{words: words}
	}
	panic(fmt.Sprintf("registry: no model of kind %d", int(kind)))
}

// mix64 is the SplitMix64 finalizer, used to spread state values before
// they are combined into a hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashSeq hashes an ordered value sequence (queues, stacks, word arrays).
func hashSeq(vals []uint64) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, v := range vals {
		h = (h ^ mix64(v)) * 1099511628211
	}
	return h
}

type sortedModel struct{ present map[uint64]bool }

func (m *sortedModel) Fork() Model {
	c := &sortedModel{present: make(map[uint64]bool, len(m.present))}
	for k := range m.present {
		c.present[k] = true
	}
	return c
}

// Hash combines member hashes with XOR so the result is independent of map
// iteration order.
func (m *sortedModel) Hash() uint64 {
	h := uint64(0x5e7414441f4bc) ^ uint64(len(m.present))
	for k := range m.present {
		h ^= mix64(k + 1)
	}
	return h
}

func (m *sortedModel) Apply(op Op) Result {
	switch op.Code {
	case OpInsert:
		if m.present[op.Key] {
			return Result{OK: false}
		}
		m.present[op.Key] = true
		return Result{OK: true}
	case OpDelete:
		if !m.present[op.Key] {
			return Result{OK: false}
		}
		delete(m.present, op.Key)
		return Result{OK: true}
	case OpSearch:
		return Result{OK: m.present[op.Key]}
	}
	panic("registry: sorted model got " + op.Code.String())
}

func (m *sortedModel) Snapshot() []uint64 { return m.AppendSnapshot(nil) }

// AppendSnapshot appends the sorted key set to dst, letting per-announce
// invariant checks reuse one scratch buffer across a sweep.
func (m *sortedModel) AppendSnapshot(dst []uint64) []uint64 {
	base := len(dst)
	for k := range m.present {
		dst = append(dst, k)
	}
	slices.Sort(dst[base:])
	return dst
}

type fifoModel struct{ q []uint64 }

func (m *fifoModel) Fork() Model { return &fifoModel{q: append([]uint64(nil), m.q...)} }
func (m *fifoModel) Hash() uint64 {
	return 0x1f1f0 ^ hashSeq(m.q)
}

func (m *fifoModel) Apply(op Op) Result {
	switch op.Code {
	case OpEnqueue:
		m.q = append(m.q, op.Val)
		return Result{OK: true}
	case OpDequeue:
		if len(m.q) == 0 {
			return Result{OK: false}
		}
		v := m.q[0]
		m.q = m.q[1:]
		return Result{OK: true, Val: v}
	}
	panic("registry: fifo model got " + op.Code.String())
}

func (m *fifoModel) Snapshot() []uint64 { return m.AppendSnapshot(nil) }

func (m *fifoModel) AppendSnapshot(dst []uint64) []uint64 { return append(dst, m.q...) }

type lifoModel struct{ st []uint64 } // st[0] = top

func (m *lifoModel) Fork() Model { return &lifoModel{st: append([]uint64(nil), m.st...)} }
func (m *lifoModel) Hash() uint64 {
	return 0x11f0 ^ hashSeq(m.st)
}

func (m *lifoModel) Apply(op Op) Result {
	switch op.Code {
	case OpPush:
		m.st = append([]uint64{op.Val}, m.st...)
		return Result{OK: true}
	case OpPop:
		if len(m.st) == 0 {
			return Result{OK: false}
		}
		v := m.st[0]
		m.st = m.st[1:]
		return Result{OK: true, Val: v}
	}
	panic("registry: lifo model got " + op.Code.String())
}

func (m *lifoModel) Snapshot() []uint64 { return m.AppendSnapshot(nil) }

func (m *lifoModel) AppendSnapshot(dst []uint64) []uint64 { return append(dst, m.st...) }

// wordsModel: sequentially, a read-modify-write transaction always
// succeeds.
type wordsModel struct{ words []uint64 }

func (m *wordsModel) Fork() Model { return &wordsModel{words: append([]uint64(nil), m.words...)} }
func (m *wordsModel) Hash() uint64 {
	return 0x3d0 ^ hashSeq(m.words)
}

func (m *wordsModel) Apply(op Op) Result {
	if op.Code != OpMWCAS {
		panic("registry: words model got " + op.Code.String())
	}
	var first uint64
	for i, w := range op.Words {
		if i == 0 {
			first = m.words[w]
		}
		m.words[w] += op.Delta
	}
	return Result{OK: true, Val: first}
}

func (m *wordsModel) Snapshot() []uint64 { return m.AppendSnapshot(nil) }

func (m *wordsModel) AppendSnapshot(dst []uint64) []uint64 { return append(dst, m.words...) }

// appendState appends the state of any object or model to dst, reusing
// the caller's buffer when s implements AppendSnapshot and falling back to
// the allocating Snapshot when it does not.
func appendState(s Snapshotter, dst []uint64) []uint64 {
	if sa, ok := s.(interface {
		AppendSnapshot(dst []uint64) []uint64
	}); ok {
		return sa.AppendSnapshot(dst)
	}
	return append(dst, s.Snapshot()...)
}
