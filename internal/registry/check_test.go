package registry

// Self-tests: a checker that never fires is worthless, so every checker is
// shown to detect a seeded violation (and to stay quiet on a clean run —
// the clean side is covered extensively by the algorithm packages' tests
// and the wfcheck sweeps).

import (
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/core/multilist"
	"repro/internal/core/multiqueue"
	"repro/internal/core/multistack"
	"repro/internal/core/unilist"
	"repro/internal/core/unimwcas"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// TestMWCASCheckerDetectsTornWrite: a rogue plain write to a tracked word
// breaks the Val == shadow invariant and must be reported.
func TestMWCASCheckerDetectsTornWrite(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	obj, err := unimwcas.New(s.Mem(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Mem().MustAlloc("app", 2)
	words := []shmem.Addr{base, base + 1}
	obj.InitWord(words[0], 1)
	obj.InitWord(words[1], 2)
	chk := NewMWCASChecker(obj, s.Mem(), words)
	s.SpawnAt(0, 0, 1, "rogue", func(e *sched.Env) {
		// Bypass the MWCAS protocol entirely.
		e.Store(words[0], unimwcas.Pack(unimwcas.Word{Val: 99, Valid: true}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted a rogue write that changed a tracked word's value")
	} else if !strings.Contains(err.Error(), "shadow") {
		t.Errorf("unexpected violation text: %v", err)
	}
}

// TestMWCASCheckerDetectsWrongResult: reporting success for an operation
// that never committed must be flagged.
func TestMWCASCheckerDetectsWrongResult(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	obj, err := unimwcas.New(s.Mem(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Mem().MustAlloc("app", 1)
	words := []shmem.Addr{base}
	obj.InitWord(words[0], 1)
	chk := NewMWCASChecker(obj, s.Mem(), words)
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		chk.BeginOp(0, words, []uint32{7}, []uint32{8}) // old mismatches (1 != 7)
		ok := obj.MWCAS(e, words, []uint32{7}, []uint32{8})
		chk.EndOp(0, !ok) // lie about the result
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted a false success report")
	}
}

// TestMWCASCheckerDetectsImpossibleRead: a Read must return a value the
// word held at some instant of its window; a committed MWCAS moves the
// word on, so its old value is accepted before the commit and not after.
func TestMWCASCheckerDetectsImpossibleRead(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	obj, err := unimwcas.New(s.Mem(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	words := []shmem.Addr{s.Mem().MustAlloc("app", 1)}
	obj.InitWord(words[0], 1)
	chk := NewMWCASChecker(obj, s.Mem(), words)
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		stale := chk.BeginRead(words[0])
		chk.BeginOp(0, words, []uint32{1}, []uint32{2})
		chk.EndOp(0, obj.MWCAS(e, words, []uint32{1}, []uint32{2}))
		chk.EndRead(stale, 1) // 1 was current when the read began: legal
		if err := chk.Err(); err != nil {
			t.Errorf("checker rejected a read of the value at its window's start: %v", err)
		}
		late := chk.BeginRead(words[0])
		e.Load(words[0])
		chk.EndRead(late, 1) // the commit preceded this window: impossible
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted a read of a value the word no longer held")
	}
}

// TestSerialCheckerDetectsLostInsert: an insert whose splice is silently
// undone leaves the list diverging from the sorted model at the next
// announce.
func TestSerialCheckerDetectsLostInsert(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 14})
	ar, err := arena.New(s.Mem(), 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := unilist.New(s.Mem(), ar, 2)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	chk := NewSerialChecker(s.Mem(), l.AnnPidAddr(), 2, l, newModel(ModelSorted, Config{}), KeyedPeek(l))
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		chk.End(0, Result{OK: l.Insert(e, 10, 1)})
		// Sabotage: physically unlink the node behind the model's back.
		first := l.First()
		e.Store(ar.NextAddr(first), uint64(l.Last())<<1)
		// The next announce triggers the snapshot comparison.
		chk.End(0, Result{OK: l.Search(e, 10)})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted a lost insert")
	}
}

// fixedState is a Snapshotter stub whose state never changes.
type fixedState []uint64

func (f fixedState) Snapshot() []uint64 { return f }

// TestSerialCheckerDetectsWrongResult: End disagreement is reported.
func TestSerialCheckerDetectsWrongResult(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	ann := s.Mem().MustAlloc("ann", 1)
	s.Mem().Poke(ann, 2) // N = 2
	// The model says every op succeeds: a search for a present key.
	model := newModel(ModelSorted, Config{SeedKeys: []uint64{1}})
	chk := NewSerialChecker(s.Mem(), ann, 2, fixedState{1}, model,
		func(int) Op { return Op{Code: OpSearch, Key: 1} })
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		e.Store(ann, 0) // announce
		e.Store(ann, 2) // un-announce
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.End(0, Result{OK: false}) // lie
	if err := chk.Err(); err == nil {
		t.Fatal("serial checker accepted a wrong result")
	}
}

// TestSerialCheckerDetectsUnannouncedOp: reporting a result for an operation
// that never announced is flagged.
func TestSerialCheckerDetectsUnannouncedOp(t *testing.T) {
	m := shmem.New(16)
	ann := m.MustAlloc("ann", 1)
	chk := NewSerialChecker(m, ann, 2, fixedState{}, newModel(ModelSorted, Config{}),
		func(int) Op { return Op{Code: OpSearch} })
	chk.End(1, Result{OK: true})
	if err := chk.Err(); err == nil {
		t.Fatal("serial checker accepted an unannounced operation")
	}
}

func newMultiList(t *testing.T, s *sched.Sim, procs int, seed ...uint64) *multilist.List {
	t.Helper()
	ar, err := arena.New(s.Mem(), 32, procs)
	if err != nil {
		t.Fatal(err)
	}
	l, err := multilist.New(s.Mem(), ar, multilist.Config{Processors: 1, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SeedAscending(seed); err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return l
}

// TestStructCheckerDetectsDoubleApply: two successful same-key inserts
// with only one structural add event must be flagged (the event-claiming
// core).
func TestStructCheckerDetectsDoubleApply(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 15})
	l := newMultiList(t, s, 2)
	chk := NewStructChecker(ModelSorted, l, s.Mem())
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		chk.Begin(0, Op{Code: OpInsert, Key: 10})
		chk.End(0, Result{OK: l.Insert(e, 10, 1)})
		chk.Begin(1, Op{Code: OpInsert, Key: 10})
		ok2 := l.Insert(e, 10, 1)    // duplicate: returns false
		chk.End(1, Result{OK: !ok2}) // lie: claim the duplicate also succeeded
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted two successes for one add event")
	}
}

// TestStructCheckerDetectsImpossibleAbsence: claiming a false search for
// a key that was present throughout must be flagged.
func TestStructCheckerDetectsImpossibleAbsence(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 15})
	l := newMultiList(t, s, 1, 10)
	chk := NewStructChecker(ModelSorted, l, s.Mem())
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		chk.Begin(0, Op{Code: OpSearch, Key: 10})
		chk.End(0, Result{OK: !l.Search(e, 10)}) // lie: claim not found
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted an impossible absence claim")
	}
}

// wordState is a container stub: the nonzero words of a memory range, in
// order, so a test can move elements with single CASes.
type wordState struct {
	m  *shmem.Mem
	lo shmem.Addr
	n  int
}

func (w wordState) Snapshot() []uint64 {
	var out []uint64
	for i := 0; i < w.n; i++ {
		if v := w.m.Peek(w.lo + shmem.Addr(i)); v != 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestStructCheckerJudgesByModel: the model alone decides where an element
// may enter or leave; a write the model cannot reproduce is flagged.
func TestStructCheckerJudgesByModel(t *testing.T) {
	cases := []struct {
		name      string
		kind      ModelKind
		init      []uint64
		word      shmem.Addr
		old, new  uint64
		violation string
	}{
		{"dequeue-behind-head", ModelFIFO, []uint64{1, 2}, 1, 2, 0, "dequeue of 2"},
		{"push-at-bottom", ModelLIFO, []uint64{1, 2}, 2, 0, 3, "push of 3"},
		{"insert-out-of-order", ModelSorted, []uint64{3, 5}, 2, 0, 4, "insert of 4"},
		{"in-place-change", ModelFIFO, []uint64{1, 2}, 0, 1, 7, "not by one element"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 8})
			obj := wordState{m: s.Mem(), lo: s.Mem().MustAlloc("c", 3), n: 3}
			for i, v := range tc.init {
				s.Mem().Poke(obj.lo+shmem.Addr(i), v)
			}
			chk := NewStructChecker(tc.kind, obj, s.Mem())
			s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) { e.CAS(obj.lo+tc.word, tc.old, tc.new) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if err := chk.Err(); err == nil || !strings.Contains(err.Error(), tc.violation) {
				t.Fatalf("got %v, want a violation mentioning %q", err, tc.violation)
			}
		})
	}
}

// TestStructCheckerDetectsImpossibleEmptyPop: a pop that reports empty
// while the stack held a value throughout its window is not linearizable.
func TestStructCheckerDetectsImpossibleEmptyPop(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 15})
	ar, err := arena.New(s.Mem(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := multistack.New(s.Mem(), ar, multistack.Config{Processors: 1, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	chk := NewStructChecker(ModelLIFO, st, s.Mem())
	lo, _ := st.SnapshotRegion()
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		chk.Begin(0, Op{Code: OpPush, Val: 10})
		st.Push(e, 10)
		chk.End(0, Result{OK: true})
		e.Load(lo) // the pop's window opens strictly after the push
		chk.Begin(0, Op{Code: OpPop})
		e.Load(lo)                    // ... and spans a step; nothing is popped
		chk.End(0, Result{OK: false}) // lie: claim the stack was empty
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted an empty pop from a stack that was never empty during the pop")
	} else if !strings.Contains(err.Error(), "empty") {
		t.Errorf("unexpected violation text: %v", err)
	}
}

// TestStructCheckerDetectsUnclaimedAppend: an append to the queue that no
// enqueue ever reported is a value out of nowhere, flagged at Finish.
func TestStructCheckerDetectsUnclaimedAppend(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 15})
	ar, err := arena.New(s.Mem(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := multiqueue.New(s.Mem(), ar, multiqueue.Config{Processors: 1, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	chk := NewStructChecker(ModelFIFO, q, s.Mem())
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		q.Enqueue(e, 10) // never reported to the checker
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if err := chk.Err(); err == nil {
		t.Fatal("checker accepted an append no enqueue claimed")
	} else if !strings.Contains(err.Error(), "never claimed") {
		t.Errorf("unexpected violation text: %v", err)
	}
}

// TestCheckArmsOrRefuses: on every descriptor, Config.Check either arms a
// white-box checker or is refused with an error naming the object — never
// silently ignored.
func TestCheckArmsOrRefuses(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name, func(t *testing.T) {
			s := sched.New(sched.Config{Processors: 2, Seed: 1, MemWords: 1 << 16})
			cfg := d.StressConfig(2)
			cfg.Check = true
			inst, err := Build(s, d.Name, cfg)
			if d.NoCheck != "" {
				if err == nil {
					t.Fatal("Check accepted, but the object has no checker")
				}
				if !strings.Contains(err.Error(), d.Name) {
					t.Errorf("refusal does not name the object: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if inst.(*instance).finish == nil {
				t.Fatal("Check accepted but no checker armed")
			}
		})
	}
}
