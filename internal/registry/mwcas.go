package registry

import (
	"slices"
	"sort"

	"repro/internal/core/multimwcas"
	"repro/internal/core/unimwcas"
	"repro/internal/shmem"
)

// mwcasTx is the OpMWCAS read-modify-write transaction of both MWCAS
// objects, generic over the word width (the uniprocessor object packs
// 32-bit values, the multiprocessor one stores 64-bit words): read every
// named word, then MWCAS them all to value+Delta. read and mwcas are the
// object's primitives; obs brackets every MWCAS call (a no-op unless a
// checker is armed).
type mwcasTx[W uint32 | uint64] struct {
	words []shmem.Addr
	slots []mwcasSlot[W]
	read  func(e shmem.Ctx, a shmem.Addr) W
	mwcas func(e shmem.Ctx, addrs []shmem.Addr, olds, news []W) bool
	obs   mwcasObserver[W]
}

// mwcasSlot is one process slot's scratch, reused across applies: procs
// yield inside MWCAS, so another slot's apply may interleave mid-operation
// and the buffers must not be shared across slots.
type mwcasSlot[W uint32 | uint64] struct {
	addrs      []shmem.Addr
	olds, news []W
}

func newMWCASTx[W uint32 | uint64](words []shmem.Addr, procs int,
	read func(e shmem.Ctx, a shmem.Addr) W,
	mwcas func(e shmem.Ctx, addrs []shmem.Addr, olds, news []W) bool) *mwcasTx[W] {
	return &mwcasTx[W]{words: words, slots: make([]mwcasSlot[W], procs), read: read, mwcas: mwcas, obs: unobserved[W]{}}
}

func (t *mwcasTx[W]) apply(e shmem.Ctx, slot int, op Op) Result {
	if op.Code != OpMWCAS {
		panic("registry: MWCAS object got " + op.Code.String())
	}
	sc := &t.slots[slot]
	n := len(op.Words)
	if cap(sc.addrs) < n {
		sc.addrs = make([]shmem.Addr, n)
		sc.olds = make([]W, n)
		sc.news = make([]W, n)
	}
	addrs, olds, news := sc.addrs[:n], sc.olds[:n], sc.news[:n]
	for i, wi := range op.Words {
		addrs[i] = t.words[wi]
		olds[i] = t.read(e, addrs[i])
		news[i] = olds[i] + W(op.Delta)
	}
	t.obs.BeginOp(slot, addrs, olds, news)
	ok := t.mwcas(e, addrs, olds, news)
	t.obs.EndOp(slot, ok)
	return Result{OK: ok, Val: uint64(olds[0])}
}

// mwcasObserver is the part of an MWCAS checker that brackets each MWCAS
// call.
type mwcasObserver[W uint32 | uint64] interface {
	BeginOp(p int, addrs []shmem.Addr, old, new []W)
	EndOp(p int, ok bool)
}

// unobserved is the observer of an unchecked transaction.
type unobserved[W uint32 | uint64] struct{}

func (unobserved[W]) BeginOp(int, []shmem.Addr, []W, []W) {}
func (unobserved[W]) EndOp(int, bool)                     {}

// histEntry is one shadow value change of a word.
type histEntry struct {
	step uint64
	val  uint32
}

// wordHist records the shadow-value history of a set of words so that
// operation results can be validated against any instant of their window.
type wordHist map[shmem.Addr][]histEntry

// set records that the word's shadow value became val at the given step
// (step 0 seeds the initial value).
func (h wordHist) set(a shmem.Addr, step uint64, val uint32) {
	h[a] = append(h[a], histEntry{step: step, val: val})
}

// at returns the shadow value of a word at the given step; ok is false
// for a word with no value then (an untracked word).
func (h wordHist) at(a shmem.Addr, step uint64) (val uint32, ok bool) {
	entries := h[a]
	// First entry with step > requested; the predecessor is current.
	i := sort.Search(len(entries), func(i int) bool { return entries[i].step > step })
	if i == 0 {
		return 0, false
	}
	return entries[i-1].val, true
}

// changesIn returns every step in (from, to] at which any of the given words
// changed, plus from itself, sorted ascending. These are the candidate
// linearization instants for an operation whose window is [from, to].
func (h wordHist) changesIn(addrs []shmem.Addr, from, to uint64) []uint64 {
	steps := []uint64{from}
	for _, a := range addrs {
		for _, en := range h[a] {
			if en.step > from && en.step <= to {
				steps = append(steps, en.step)
			}
		}
	}
	slices.Sort(steps)
	return steps
}

// mwcasOp is one in-flight MWCAS operation.
type mwcasOp[W uint32 | uint64] struct {
	active            bool
	addrs             []shmem.Addr
	old, new          []W
	begin             uint64
	committed, failed bool
}

// start registers the operation, reusing the slot's buffers.
func (op *mwcasOp[W]) start(addrs []shmem.Addr, old, new []W, step uint64) {
	op.addrs = append(op.addrs[:0], addrs...)
	op.old = append(op.old[:0], old...)
	op.new = append(op.new[:0], new...)
	op.begin = step
	op.active, op.committed, op.failed = true, false, false
}

// unreported flags every operation still open at the end of the run.
func unreported[W uint32 | uint64](v *violations, ops []mwcasOp[W]) {
	for p := range ops {
		if ops[p].active {
			v.fail("check: process %d has an unreported operation", p)
		}
	}
}

// MWCASChecker validates a unimwcas.Object against the atomic multi-word
// compare-and-swap specification.
//
// Shadow model: a value history per tracked word, updated atomically at the
// linearization point of each successful MWCAS — the CAS of Status[p] from
// 0 (pending) to 2 (valid) at line 15 of Figure 3.
//
// Continuous invariant: after every write, every tracked word's current
// value per the paper's Val definition equals its shadow value. (The whole
// point of the three-phase protocol is that only the commit CAS changes
// current values.)
//
// Per-operation validation: a successful MWCAS must have observed all old
// values at its commit instant; a failed MWCAS must have some instant within
// its window at which at least one word differed from its expected old
// value; a Read must return the shadow value the word had at some instant
// within the Read's window.
type MWCASChecker struct {
	violations
	obj     *unimwcas.Object
	mem     *shmem.Mem
	tracked []shmem.Addr
	hist    wordHist
	ops     []mwcasOp[uint32]
}

// NewMWCASChecker creates a checker for obj, tracking the given application
// words. Install it before the run starts; the tracked words must already
// hold their initial values.
func NewMWCASChecker(obj *unimwcas.Object, m *shmem.Mem, tracked []shmem.Addr) *MWCASChecker {
	c := &MWCASChecker{obj: obj, mem: m, tracked: tracked, hist: wordHist{}}
	for _, a := range tracked {
		c.hist.set(a, 0, obj.Val(a))
	}
	m.AddObserver(c)
	return c
}

// OnWrite implements shmem.Observer.
func (c *MWCASChecker) OnWrite(ev shmem.WriteEvent) {
	if c.full() {
		return
	}
	// Linearization point: CAS Status[p] 0 -> 2.
	if ev.Kind == shmem.OpCAS && ev.Old == unimwcas.StatusPending && ev.New == unimwcas.StatusValid {
		for p := 0; p < c.obj.Procs(); p++ {
			if c.obj.StatusAddr(p) == ev.Addr {
				c.commit(p, ev.Step)
				break
			}
		}
	}
	// Continuous invariant: concrete Val == shadow for all tracked words.
	for _, a := range c.tracked {
		if got, shadow := c.obj.Val(a), c.shadow(a); got != shadow {
			c.fail("check: step %d (proc %d, %s %s): Val(%s) = %d, shadow = %d",
				ev.Step, ev.Proc, ev.Kind, c.mem.Name(ev.Addr), c.mem.Name(a), got, shadow)
		}
	}
}

// commit applies process p's registered operation to the shadow.
func (c *MWCASChecker) commit(p int, step uint64) {
	if p >= len(c.ops) || !c.ops[p].active {
		c.fail("check: step %d: commit by process %d with no registered operation", step, p)
		return
	}
	op := &c.ops[p]
	if op.committed {
		c.fail("check: step %d: process %d committed twice", step, p)
		return
	}
	op.committed = true
	for i, a := range op.addrs {
		shadow, tracked := c.hist.at(a, step)
		if !tracked {
			c.fail("check: step %d: process %d committed MWCAS on untracked word %s", step, p, c.mem.Name(a))
			return
		}
		if shadow != op.old[i] {
			c.fail("check: step %d: process %d committed MWCAS but %s had shadow %d, expected old %d",
				step, p, c.mem.Name(a), shadow, op.old[i])
		}
		c.hist.set(a, step, op.new[i])
	}
}

// shadow returns the current shadow value of a tracked word.
func (c *MWCASChecker) shadow(a shmem.Addr) uint32 {
	entries := c.hist[a]
	return entries[len(entries)-1].val
}

// BeginOp registers process p's next MWCAS. Call it immediately before
// invoking MWCAS from inside the process body.
func (c *MWCASChecker) BeginOp(p int, addrs []shmem.Addr, old, new []uint32) {
	slotOf(&c.ops, p).start(addrs, old, new, c.mem.Steps())
}

// EndOp validates process p's completed MWCAS against its reported result.
// Call it immediately after MWCAS returns, passing its return value.
func (c *MWCASChecker) EndOp(p int, ok bool) {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		c.fail("check: EndOp(%d) with no registered operation", p)
		return
	}
	op := &c.ops[p]
	op.active = false
	end := c.mem.Steps()
	if ok {
		if !op.committed {
			c.fail("check: process %d: MWCAS returned true but never committed", p)
		}
		return
	}
	if op.committed {
		c.fail("check: process %d: MWCAS returned false but committed", p)
		return
	}
	// A failed MWCAS must be linearizable: at some instant of its window,
	// some word must have differed from its expected old value.
	for _, step := range c.hist.changesIn(op.addrs, op.begin, end) {
		for i, a := range op.addrs {
			v, tracked := c.hist.at(a, step)
			if !tracked {
				c.fail("check: word %s has no value at step %d", c.mem.Name(a), step)
				return
			}
			if v != op.old[i] {
				return // found a legal linearization instant
			}
		}
	}
	c.fail("check: process %d: MWCAS returned false but all words matched their expected old values throughout [%d,%d] (not linearizable)",
		p, op.begin, end)
}

// readWindow brackets a Read for validation.
type readWindow struct {
	addr  shmem.Addr
	begin uint64
}

// BeginRead marks the start of a Read by some process on word a and returns
// a token for EndRead.
func (c *MWCASChecker) BeginRead(a shmem.Addr) readWindow {
	return readWindow{addr: a, begin: c.mem.Steps()}
}

// EndRead validates the value returned by a Read: it must equal the word's
// shadow value at some instant within the Read's window.
func (c *MWCASChecker) EndRead(w readWindow, got uint32) {
	end := c.mem.Steps()
	entries := c.hist[w.addr]
	for i, en := range entries {
		// en's value held from en.step until the next change; it is a
		// candidate iff that span meets the window.
		if en.val == got && en.step <= end && (i+1 == len(entries) || entries[i+1].step > w.begin) {
			return
		}
	}
	c.fail("check: Read(%s) returned %d, which was never the word's value during [%d,%d]",
		c.mem.Name(w.addr), got, w.begin, end)
}

// arm observes tx: every read is validated, every MWCAS call bracketed.
func (c *MWCASChecker) arm(tx *mwcasTx[uint32]) {
	read := tx.read
	tx.read = func(e shmem.Ctx, a shmem.Addr) uint32 {
		w := c.BeginRead(a)
		v := read(e, a)
		c.EndRead(w, v)
		return v
	}
	tx.obs = c
}

// Begin implements checker; the armed transaction brackets the MWCAS call
// itself (see arm), the window BeginOp/EndOp judge.
func (c *MWCASChecker) Begin(int, Op) {}

// End implements checker.
func (c *MWCASChecker) End(int, Result) {}

// Finish flags operations that never reported.
func (c *MWCASChecker) Finish() { unreported(&c.violations, c.ops) }

// MultiMWCASChecker validates a multimwcas.Object against the atomic MWCAS
// specification.
//
// Linearization structure: all mutations of application words happen inside
// helping rounds, one announced operation per round, so words are stable
// from round start until the operation's swap phase. The operation
// linearizes at the CCAS that moves Rv[p] from 0 (comparing) to 1
// (swapping) — success — or from 0 to 3 — failure. The checker applies the
// registered operation to its shadow at the 0->1 event (verifying all old
// values) and verifies a mismatch exists at the 0->3 event. The continuous
// invariant — concrete logical values equal the shadow — is checked at
// every advance of the version word V, i.e. at every round boundary.
type MultiMWCASChecker struct {
	violations
	obj     *multimwcas.Object
	mem     *shmem.Mem
	tracked []shmem.Addr
	shadow  map[shmem.Addr]uint64
	ops     []mwcasOp[uint64]
	rvIndex map[shmem.Addr]int
	vAddr   shmem.Addr
	commits int
	fails   int
}

// NewMultiMWCASChecker creates a checker for obj over n process slots,
// tracking the given application words (which must hold their initial
// values already).
func NewMultiMWCASChecker(obj *multimwcas.Object, m *shmem.Mem, n int, tracked []shmem.Addr) *MultiMWCASChecker {
	c := &MultiMWCASChecker{
		obj:     obj,
		mem:     m,
		tracked: tracked,
		shadow:  make(map[shmem.Addr]uint64),
		rvIndex: make(map[shmem.Addr]int),
		vAddr:   obj.Engine().VAddr(),
	}
	for _, a := range tracked {
		c.shadow[a] = obj.Val(a)
	}
	for p := 0; p < n; p++ {
		c.rvIndex[obj.RvAddr(p)] = p
	}
	m.AddObserver(c)
	return c
}

// OnWrite implements shmem.Observer.
func (c *MultiMWCASChecker) OnWrite(ev shmem.WriteEvent) {
	if c.full() {
		return
	}
	if ev.Addr == c.vAddr && ev.Kind == shmem.OpCAS {
		// Round boundary: concrete state must equal the shadow.
		for _, a := range c.tracked {
			if got := c.obj.Val(a); got != c.shadow[a] {
				c.fail("check: step %d: round boundary: word %s = %d, shadow = %d",
					ev.Step, c.mem.Name(a), got, c.shadow[a])
			}
		}
		return
	}
	p, isRv := c.rvIndex[ev.Addr]
	if !isRv || ev.Kind != shmem.OpCCAS && ev.Kind != shmem.OpCAS {
		return
	}
	// Decode the logical transition; raw values include tag bits under
	// the tagged representation.
	from, to := rvLogical(ev.Old), rvLogical(ev.New)
	if from == multimwcas.RvComparing && (to == multimwcas.RvSwapping || to == multimwcas.RvFalse) {
		c.decide(p, ev.Step, to == multimwcas.RvSwapping)
	}
}

// rvLogical strips the (possible) tag byte of the tagged representation.
func rvLogical(raw uint64) uint64 { return raw & ((uint64(1) << 56) - 1) }

// decide judges process p's linearization point: a commit must find every
// old value in the shadow and installs the new ones; a failure must find
// some word that differs.
func (c *MultiMWCASChecker) decide(p int, step uint64, commit bool) {
	if p >= len(c.ops) || !c.ops[p].active {
		c.fail("check: step %d: decision for process %d with no registered op", step, p)
		return
	}
	op := &c.ops[p]
	if op.committed || op.failed {
		c.fail("check: step %d: process %d decided twice", step, p)
		return
	}
	mismatch := false
	for i, a := range op.addrs {
		if c.shadow[a] != op.old[i] {
			mismatch = true
			if commit {
				c.fail("check: step %d: process %d committed but %s shadow = %d, expected old %d",
					step, p, c.mem.Name(a), c.shadow[a], op.old[i])
			}
		}
	}
	if !commit {
		op.failed = true
		c.fails++
		if !mismatch {
			c.fail("check: step %d: process %d's MWCAS failed but every word matched its expected old value (not linearizable)", step, p)
		}
		return
	}
	op.committed = true
	c.commits++
	for i, a := range op.addrs {
		c.shadow[a] = op.new[i]
	}
}

// BeginOp registers process p's next MWCAS.
func (c *MultiMWCASChecker) BeginOp(p int, addrs []shmem.Addr, old, new []uint64) {
	slotOf(&c.ops, p).start(addrs, old, new, 0)
}

// EndOp validates the reported result of process p's completed MWCAS.
func (c *MultiMWCASChecker) EndOp(p int, ok bool) {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		c.fail("check: EndOp(%d) with no registered op", p)
		return
	}
	op := &c.ops[p]
	op.active = false
	if ok && !op.committed {
		c.fail("check: process %d returned true but never committed", p)
	}
	if !ok && !op.failed {
		c.fail("check: process %d returned false but no failure event was seen", p)
	}
}

// Begin implements checker; the armed transaction brackets the MWCAS call
// itself (mwcasTx.obs), the window BeginOp/EndOp judge.
func (c *MultiMWCASChecker) Begin(int, Op) {}

// End implements checker.
func (c *MultiMWCASChecker) End(int, Result) {}

// Finish flags operations that never reported.
func (c *MultiMWCASChecker) Finish() { unreported(&c.violations, c.ops) }

// Commits returns the number of committed operations observed.
func (c *MultiMWCASChecker) Commits() int { return c.commits }

// Fails returns the number of failed operations observed.
func (c *MultiMWCASChecker) Fails() int { return c.fails }
