package registry

// White-box checking (Config.Check). The checkers are pure observers: they
// watch simulated shared-memory writes through shmem's observer hook and
// hold a shadow of the abstract state — for the containers, the object's
// own sequential Model — updated exactly at the algorithms' linearization
// points (the Status/Rv commit writes and the structural CASes). The
// algorithms under test carry no instrumentation. Each checker has
//
//   - a continuous invariant, verified as the run goes ("the concrete state
//     always maps to the shadow state"), and
//   - per-operation validation ("this operation's result was correct at
//     some instant within its execution window").

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/shmem"
)

// checker is a white-box linearizability checker installed as a memory
// observer. Begin and End bracket each operation of a process slot; Finish
// runs the end-of-run audits; Err is the verdict.
type checker interface {
	shmem.Observer
	// Begin opens slot's operation window.
	Begin(slot int, op Op)
	// End closes it with the operation's reported result.
	End(slot int, r Result)
	// Finish audits the completed run; call it once, after the run.
	Finish()
	// Err returns the accumulated violations, nil if the run was clean.
	Err() error
}

// checked arms chk on in: Apply brackets every operation with Begin/End,
// and CheckErr finishes the run and returns the verdict.
func checked(in *instance, chk checker) {
	apply := in.apply
	in.apply = func(e shmem.Ctx, slot int, op Op) Result {
		chk.Begin(slot, op)
		r := apply(e, slot, op)
		chk.End(slot, r)
		return r
	}
	in.finish = func() error { chk.Finish(); return chk.Err() }
}

// maxViolations caps how many violations a checker keeps.
const maxViolations = 20

// violations is the accumulator every checker embeds.
type violations struct{ errs []error }

// full reports whether the cap is reached; observers stop judging then.
func (v *violations) full() bool { return len(v.errs) >= maxViolations }

func (v *violations) fail(format string, args ...any) {
	if !v.full() {
		v.errs = append(v.errs, fmt.Errorf(format, args...))
	}
}

// Err returns the number of violations and the first, nil if there were
// none.
func (v *violations) Err() error {
	if len(v.errs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violations; first: %v", len(v.errs), v.errs[0])
}

// Snapshotter is any object whose abstract state can be read directly from
// memory (no simulated time), in the Instance.Snapshot convention. Objects
// that also implement AppendSnapshot(dst) let the checkers reuse one buffer
// across a run; objects that implement SnapshotRegion() (lo, hi) — their
// state is a pure function of that address range — let the structural
// checker skip every write outside it.
type Snapshotter interface {
	Snapshot() []uint64
}

// sameState reports the first difference between an object's snapshot
// and its model's, nil if they are equal.
func sameState(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("structure has %d values %v, model has %d values %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("value[%d] = %d, model = %d (structure %v, model %v)", i, got[i], want[i], got, want)
		}
	}
	return nil
}

// slotOf returns slot p's entry of a dense per-slot table, growing it on
// first use (a map of per-op nodes would allocate on every Begin).
func slotOf[T any](t *[]T, p int) *T {
	for len(*t) <= p {
		var zero T
		*t = append(*t, zero)
	}
	return &(*t)[p]
}

// SerialChecker judges an incremental-helping object (the uniprocessor
// family). At most one operation is ever pending, so announcing a new
// operation (the store of p into Ann.pid, line 20 of Figure 5) proves the
// previous one complete, and the announce events totally order the
// operations. At every announce the checker
//
//  1. requires the object's snapshot to equal the model's — the previous
//     operation fully applied, no stray bits or partial splices — and
//  2. reads the announced operation back from the object (peek), applies
//     it to the model and queues the model's result,
//
// and End compares each reported result with the queue, in program order.
type SerialChecker struct {
	violations
	annPidAddr shmem.Addr
	n          int
	obj        Snapshotter
	model      Model
	peek       func(p int) Op

	objBuf, modBuf []uint64
	expected       [][]Result // per slot, in announce order
	announces      int
}

// NewSerialChecker installs a checker on m observing the announce word of
// an object with n process slots. model must start in obj's current state;
// peek returns process p's announced operation, read directly from memory.
func NewSerialChecker(m *shmem.Mem, annPid shmem.Addr, n int, obj Snapshotter, model Model, peek func(p int) Op) *SerialChecker {
	c := &SerialChecker{
		annPidAddr: annPid,
		n:          n,
		obj:        obj,
		model:      model,
		peek:       peek,
		expected:   make([][]Result, n),
	}
	m.AddObserver(c)
	return c
}

// OnWrite implements shmem.Observer.
func (c *SerialChecker) OnWrite(ev shmem.WriteEvent) {
	if c.full() || ev.Addr != c.annPidAddr || ev.Kind != shmem.OpStore {
		return
	}
	p := int(ev.New)
	if p >= c.n {
		return // un-announce (Ann.pid := N)
	}
	c.announces++
	if err := c.validate(); err != nil {
		c.fail("check: step %d (announce by %d): %w", ev.Step, p, err)
	}
	c.expected[p] = append(c.expected[p], c.model.Apply(c.peek(p)))
}

func (c *SerialChecker) validate() error {
	c.objBuf = appendState(c.obj, c.objBuf[:0])
	c.modBuf = appendState(c.model, c.modBuf[:0])
	return sameState(c.objBuf, c.modBuf)
}

// Begin implements checker; the announce events open the windows.
func (c *SerialChecker) Begin(int, Op) {}

// End reports process p's actual result, in program order.
func (c *SerialChecker) End(p int, got Result) {
	if p < 0 || p >= c.n || len(c.expected[p]) == 0 {
		c.fail("check: process %d finished an operation that was never announced", p)
		return
	}
	want := c.expected[p][0]
	c.expected[p] = c.expected[p][1:]
	switch {
	case got.OK != want.OK:
		c.fail("check: process %d operation returned %v, model says %v", p, got.OK, want.OK)
	case got.Val != want.Val:
		c.fail("check: process %d operation returned value %d, model says %d", p, got.Val, want.Val)
	}
}

// Finish validates the final state and that every result was reported.
func (c *SerialChecker) Finish() {
	if err := c.validate(); err != nil {
		c.fail("check: final state: %w", err)
	}
	for p, q := range c.expected {
		if len(q) != 0 {
			c.fail("check: process %d has %d unreported operations", p, len(q))
		}
	}
}

// Announces returns the number of announce events observed.
func (c *SerialChecker) Announces() int { return c.announces }

// KeyedPeek reads a uniprocessor list's or hash table's announced
// operation back from its Par record (op code 1 insert, 2 delete, 3
// search), for the SerialChecker.
func KeyedPeek(obj interface {
	PeekPar(p int) (node, key, op uint64)
}) func(p int) Op {
	return func(p int) Op {
		_, key, opc := obj.PeekPar(p)
		switch opc {
		case 1:
			return Op{Code: OpInsert, Key: key}
		case 2:
			return Op{Code: OpDelete, Key: key}
		}
		return Op{Code: OpSearch, Key: key}
	}
}

// ValuePeek reads a uniprocessor queue's or stack's announced operation
// back from its Par record: op code 1 adds the node's value, any other
// removes.
func ValuePeek(m *shmem.Mem, ar *arena.Arena, kind ModelKind, obj interface {
	PeekPar(p int) (node, op uint64)
}) func(p int) Op {
	ops := containerOps[kind]
	return func(p int) Op {
		node, opc := obj.PeekPar(p)
		if opc == 1 {
			return Op{Code: ops[0], Val: m.Peek(ar.ValAddr(arena.Ref(node)))}
		}
		return Op{Code: ops[1]}
	}
}

// containerOps gives each container model its element-adding and
// element-removing operations.
var containerOps = map[ModelKind][2]OpCode{
	ModelSorted: {OpInsert, OpDelete},
	ModelFIFO:   {OpEnqueue, OpDequeue},
	ModelLIFO:   {OpPush, OpPop},
}

// StructChecker judges a concurrent container — a sorted set, a queue or a
// stack — by structural-event claiming, assuming unique values in queues
// and stacks (the generators and tests enqueue distinct values).
//
// On every write inside the object's snapshot region (plain Stores are
// protocol bookkeeping and are skipped) it snapshots the object. A change
// must decode as one element added or one removed; the checker applies the
// matching operation to the model (insert/delete, enqueue/dequeue,
// push/pop) and requires the model's snapshot to equal the object's, so
// the model alone decides where an element may enter or leave. Each event
// is logged with its step, and a completed operation must claim one inside
// its window: a successful add claims an add of its element, a successful
// removal a removal of the element it returned — two successes can never
// share one event. Operations that change nothing are judged against the
// log: a failed insert or a successful search needs its key present at
// some instant of the window, a failed delete or search absent, and an
// empty dequeue or pop needs the container empty at some instant. Finish
// requires every operation reported and every event claimed.
type StructChecker struct {
	violations
	keyed       bool // sorted set: removals name their key
	add, remove OpCode
	model       Model
	mem         *shmem.Mem

	obj          Snapshotter
	regLo, regHi shmem.Addr
	hasReg       bool

	last, buf, modBuf []uint64
	log               []structEvent
	latest            map[uint64]int32 // element -> index of its newest event
	ops               []structOp

	// Emptiness trail: the state is piecewise constant between observed
	// writes, so "was the container empty at some instant of [begin, end]"
	// reduces to one flag and one step.
	emptyNow  bool   // the container is empty right now
	emptyAsOf uint64 // most recent step instant at which it was empty
}

type structEvent struct {
	step    uint64
	elem    uint64
	added   bool
	claimed bool
	prev    int32 // the element's previous event, -1 if none
}

type structOp struct {
	active bool
	op     Op
	begin  uint64
}

// NewStructChecker installs a checker on m for a container of the given
// model kind (ModelSorted, ModelFIFO or ModelLIFO). The container may be
// seeded already (with unique values); its contents are the initial state.
func NewStructChecker(kind ModelKind, obj Snapshotter, m *shmem.Mem) *StructChecker {
	ops := containerOps[kind]
	c := &StructChecker{
		keyed:  kind == ModelSorted,
		add:    ops[0],
		remove: ops[1],
		model:  newModel(kind, Config{}),
		mem:    m,
		obj:    obj,
		log:    make([]structEvent, 0, 16),
		latest: make(map[uint64]int32),
	}
	if sr, ok := obj.(interface{ SnapshotRegion() (lo, hi shmem.Addr) }); ok {
		c.regLo, c.regHi = sr.SnapshotRegion()
		c.hasReg = true
	}
	c.last = appendState(obj, nil)
	c.resync(c.last)
	for _, v := range c.last {
		// Seeded elements: present from step 0, owed to no operation.
		c.record(0, v, true, true)
	}
	c.emptyNow = len(c.last) == 0
	m.AddObserver(c)
	return c
}

// OnWrite implements shmem.Observer.
func (c *StructChecker) OnWrite(ev shmem.WriteEvent) {
	if c.full() || ev.Kind == shmem.OpStore {
		return
	}
	if c.hasReg && (ev.Addr < c.regLo || ev.Addr >= c.regHi) {
		return // outside the snapshot region: the state cannot have changed
	}
	now := appendState(c.obj, c.buf[:0])
	prev := c.last
	c.buf, c.last = prev, now
	if slices.Equal(prev, now) {
		return
	}
	if len(now) == 0 {
		c.emptyNow, c.emptyAsOf = true, ev.Step
	} else if c.emptyNow {
		// An empty run just ended: it extended from emptyAsOf up to this
		// write's instant (inclusive boundary, erring toward acceptance).
		c.emptyNow, c.emptyAsOf = false, ev.Step
	}
	elem, added, ok := oneChange(prev, now)
	if !ok {
		c.fail("check: step %d: one write changed %v -> %v, not by one element", ev.Step, prev, now)
		c.resync(now)
		return
	}
	op := Op{Code: c.remove, Key: elem}
	if added {
		op = Op{Code: c.add, Key: elem, Val: elem}
		if !c.keyed && c.pending(elem) {
			c.fail("check: step %d: value %d added twice", ev.Step, elem)
		}
	}
	c.model.Apply(op)
	c.modBuf = appendState(c.model, c.modBuf[:0])
	if err := sameState(now, c.modBuf); err != nil {
		c.fail("check: step %d: %s of %d: %w", ev.Step, op.Code, elem, err)
		c.resync(now)
	}
	c.record(ev.Step, elem, added, false)
}

// oneChange decodes prev -> now as exactly one element inserted into or
// removed from the sequence.
func oneChange(prev, now []uint64) (elem uint64, added, ok bool) {
	long, short := now, prev
	if len(prev) > len(now) {
		long, short = prev, now
	}
	if len(long) != len(short)+1 {
		return 0, false, false
	}
	i := 0
	for i < len(short) && short[i] == long[i] {
		i++
	}
	return long[i], len(now) > len(prev), slices.Equal(short[i:], long[i+1:])
}

// resync rebuilds the model to hold state, after a violation left the two
// apart, so later events are judged from the object's actual state.
func (c *StructChecker) resync(state []uint64) {
	c.modBuf = appendState(c.model, c.modBuf[:0])
	for _, v := range c.modBuf {
		c.model.Apply(Op{Code: c.remove, Key: v})
	}
	for i := range state {
		v := state[i]
		if c.add == OpPush {
			v = state[len(state)-1-i] // pushes build the stack bottom-up
		}
		c.model.Apply(Op{Code: c.add, Key: v, Val: v})
	}
}

func (c *StructChecker) record(step, elem uint64, added, claimed bool) {
	prev, ok := c.latest[elem]
	if !ok {
		prev = -1
	}
	c.latest[elem] = int32(len(c.log))
	c.log = append(c.log, structEvent{step: step, elem: elem, added: added, claimed: claimed, prev: prev})
}

// pending reports whether elem has an unclaimed add event.
func (c *StructChecker) pending(elem uint64) bool {
	i, ok := c.latest[elem]
	for ; ok && i >= 0; i = c.log[i].prev {
		if ev := c.log[i]; ev.added && !ev.claimed {
			return true
		}
	}
	return false
}

// claim consumes the earliest unclaimed event of elem in the given
// direction inside [begin, end].
func (c *StructChecker) claim(elem uint64, added bool, begin, end uint64) bool {
	found := int32(-1)
	i, ok := c.latest[elem]
	for ; ok && i >= 0 && c.log[i].step >= begin; i = c.log[i].prev {
		if ev := c.log[i]; ev.added == added && !ev.claimed && ev.step <= end {
			found = i
		}
	}
	if found < 0 {
		return false
	}
	c.log[found].claimed = true
	return true
}

// held reports whether elem's presence equalled want at some instant of
// [begin, end].
func (c *StructChecker) held(elem uint64, want bool, begin, end uint64) bool {
	i, ok := c.latest[elem]
	for ; ok && i >= 0; i = c.log[i].prev {
		ev := c.log[i]
		if ev.step <= begin {
			return ev.added == want // the presence the window opened with
		}
		if ev.step <= end && ev.added == want {
			return true
		}
	}
	return !want // never added: absent throughout
}

// Begin registers the start of process p's operation.
func (c *StructChecker) Begin(p int, op Op) {
	*slotOf(&c.ops, p) = structOp{active: true, op: op, begin: c.mem.Steps()}
}

// End validates process p's reported result.
func (c *StructChecker) End(p int, r Result) {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		c.fail("check: End(%d) with no registered operation", p)
		return
	}
	o := &c.ops[p]
	o.active = false
	op, begin, end := o.op, o.begin, c.mem.Steps()
	elem := op.Key
	if !c.keyed {
		elem = op.Val
		if op.Code == c.remove {
			elem = r.Val
		}
	}
	switch {
	case op.Code == c.add && r.OK:
		if !c.claim(elem, true, begin, end) {
			c.fail("check: process %d %s(%d) returned true but no unclaimed add event lies in its window [%d,%d]", p, op.Code, elem, begin, end)
		}
	case op.Code == c.remove && r.OK:
		if !c.claim(elem, false, begin, end) {
			c.fail("check: process %d %s removed %d but no unclaimed remove event lies in its window [%d,%d]", p, op.Code, elem, begin, end)
		}
	case !c.keyed:
		if !c.emptyNow && c.emptyAsOf < begin {
			c.fail("check: process %d reported an empty %s but the container was continuously nonempty over [%d,%d]", p, op.Code, begin, end)
		}
	default:
		// A failed insert or a successful search implies presence; a
		// failed delete or an unsuccessful search, absence.
		want := op.Code == OpInsert || op.Code == OpSearch && r.OK
		if !c.held(elem, want, begin, end) {
			c.fail("check: process %d %s(%d) returned %v, but the key's presence was never %v during [%d,%d]", p, op.Code, elem, r.OK, want, begin, end)
		}
	}
}

// Finish requires every operation reported and every structural event
// claimed, reporting in event order.
func (c *StructChecker) Finish() {
	for p := range c.ops {
		if c.ops[p].active {
			c.fail("check: process %d has an unreported operation", p)
		}
	}
	for _, ev := range c.log {
		if !ev.claimed {
			code := c.remove
			if ev.added {
				code = c.add
			}
			c.fail("check: %s of %d at step %d was never claimed", code, ev.elem, ev.step)
		}
	}
}

// PopOrder returns the elements removed so far, in linearization order.
func (c *StructChecker) PopOrder() []uint64 {
	var out []uint64
	for _, ev := range c.log {
		if !ev.added {
			out = append(out, ev.elem)
		}
	}
	return out
}
