package registry

// The descriptor table: the ten core objects and the four evaluation
// baselines, each answering the registry op model through a small adapter.
// The adapters own the construction order the objects require (arena, then
// object, then seeding, then freeze) and, under Config.Check, arm the
// object's linearizability checker through checked so Apply drives it.

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/baseline/gclist"
	"repro/internal/baseline/herlihy"
	"repro/internal/baseline/locklist"
	"repro/internal/baseline/valois"
	"repro/internal/core/multihash"
	"repro/internal/core/multilist"
	"repro/internal/core/multimwcas"
	"repro/internal/core/multiqueue"
	"repro/internal/core/multistack"
	"repro/internal/core/unihash"
	"repro/internal/core/unilist"
	"repro/internal/core/unimwcas"
	"repro/internal/core/uniqueue"
	"repro/internal/core/unistack"
	"repro/internal/shmem"
)

type applyFn func(e shmem.Ctx, slot int, op Op) Result

// instance is the one concrete Instance implementation; descriptors fill
// in the closures.
type instance struct {
	under    any
	apply    applyFn
	snapshot func() []uint64
	words    []shmem.Addr
	finish   func() error
}

func (in *instance) Apply(e shmem.Ctx, slot int, op Op) Result { return in.apply(e, slot, op) }
func (in *instance) Snapshot() []uint64                        { return in.snapshot() }
func (in *instance) Underlying() any                           { return in.under }
func (in *instance) AppWords() []shmem.Addr                    { return in.words }
func (in *instance) CheckErr() error {
	if in.finish == nil {
		return nil
	}
	return in.finish()
}

// listApply adapts the shared list surface to the op model.
func listApply(l List) applyFn {
	return func(e shmem.Ctx, slot int, op Op) Result {
		switch op.Code {
		case OpInsert:
			return Result{OK: l.Insert(e, op.Key, op.Val)}
		case OpDelete:
			return Result{OK: l.Delete(e, op.Key)}
		case OpSearch:
			return Result{OK: l.Search(e, op.Key)}
		}
		panic("registry: list object got " + op.Code.String())
	}
}

// queueApply adapts both queues to the op model.
func queueApply(q interface {
	Enqueue(e shmem.Ctx, val uint64)
	Dequeue(e shmem.Ctx) (uint64, bool)
}) applyFn {
	return func(e shmem.Ctx, slot int, op Op) Result {
		switch op.Code {
		case OpEnqueue:
			q.Enqueue(e, op.Val)
			return Result{OK: true}
		case OpDequeue:
			v, ok := q.Dequeue(e)
			return Result{OK: ok, Val: v}
		}
		panic("registry: queue got " + op.Code.String())
	}
}

// stackApply adapts both stacks to the op model.
func stackApply(st interface {
	Push(e shmem.Ctx, val uint64)
	Pop(e shmem.Ctx) (uint64, bool)
}) applyFn {
	return func(e shmem.Ctx, slot int, op Op) Result {
		switch op.Code {
		case OpPush:
			st.Push(e, op.Val)
			return Result{OK: true}
		case OpPop:
			v, ok := st.Pop(e)
			return Result{OK: ok, Val: v}
		}
		panic("registry: stack got " + op.Code.String())
	}
}

// simMem returns the simulated memory behind b for the white-box checkers.
// Normalize rejects Config.Check off-simulator, so b.Sim() is non-nil on
// every path that reaches here.
func simMem(b Backend) *shmem.Mem { return b.Sim().Mem() }

func newArena(b Backend, cfg Config) (*arena.Arena, error) {
	return arena.New(b.Memory(), cfg.Capacity, cfg.Procs)
}

func init() {
	register(&Descriptor{
		Name: "unilist", Pkg: "core/unilist", Family: FamilyUni, Model: ModelSorted,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}},
				{{Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpInsert, Key: 30, Val: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := unilist.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				checked(in, NewSerialChecker(simMem(b), l.AnnPidAddr(), cfg.Procs,
					l, newModel(ModelSorted, cfg), KeyedPeek(l)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "uniqueue", Pkg: "core/uniqueue", Family: FamilyUni, Model: ModelFIFO,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpEnqueue, Val: 10}},
				{{Code: OpEnqueue, Val: 20}},
				{{Code: OpDequeue}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			q, err := uniqueue.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			in := &instance{under: q, snapshot: q.Snapshot, apply: queueApply(q)}
			if cfg.Check {
				checked(in, NewSerialChecker(simMem(b), q.Engine().AnnPidAddr(), cfg.Procs,
					q, newModel(ModelFIFO, cfg), ValuePeek(simMem(b), ar, ModelFIFO, q)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unistack", Pkg: "core/unistack", Family: FamilyUni, Model: ModelLIFO,
		Scenario: ScenarioSpec{
			Capacity: 32,
			Scripts: [][]Op{
				{{Code: OpPush, Val: 10}},
				{{Code: OpPush, Val: 20}},
				{{Code: OpPop}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			st, err := unistack.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			in := &instance{under: st, snapshot: st.Snapshot, apply: stackApply(st)}
			if cfg.Check {
				checked(in, NewSerialChecker(simMem(b), st.Engine().AnnPidAddr(), cfg.Procs,
					st, newModel(ModelLIFO, cfg), ValuePeek(simMem(b), ar, ModelLIFO, st)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unihash", Pkg: "core/unihash", Family: FamilyUni, Model: ModelSorted,
		Scenario: ScenarioSpec{
			Capacity: 64, Buckets: 4, SeedKeys: []uint64{40, 41},
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}},
				{{Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpDelete, Key: 40}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			tb, err := unihash.New(b.Memory(), ar, cfg.Procs, cfg.Buckets)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := tb.SeedKeys(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: tb, snapshot: tb.Snapshot, apply: listApply(tb)}
			if cfg.Check {
				checked(in, NewSerialChecker(simMem(b), tb.Engine().AnnPidAddr(), cfg.Procs,
					tb, newModel(ModelSorted, cfg), KeyedPeek(tb)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "unimwcas", Pkg: "core/unimwcas", Family: FamilyUni, Model: ModelWords,
		Scenario: ScenarioSpec{
			Words: 3, Width: 4,
			Scripts: [][]Op{
				{{Code: OpMWCAS, Words: []int{0, 1, 2}, Delta: 1}},
				{{Code: OpMWCAS, Words: []int{0, 1}, Delta: 2}},
				{{Code: OpMWCAS, Words: []int{2}, Delta: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			obj, err := unimwcas.New(b.Memory(), cfg.Procs, cfg.Width)
			if err != nil {
				return nil, err
			}
			words, err := allocWords(b.Memory(), cfg.Words)
			if err != nil {
				return nil, err
			}
			for i, w := range words {
				var v uint64
				if i < len(cfg.Initial) {
					v = cfg.Initial[i]
				}
				if v > uint64(^uint32(0)) {
					return nil, fmt.Errorf("registry: initial value %#x exceeds the uniprocessor MWCAS's 32-bit value field", v)
				}
				obj.InitWord(w, uint32(v))
			}
			tx := newMWCASTx(words, cfg.Procs, obj.Read, obj.MWCAS)
			in := &instance{under: obj, words: words, apply: tx.apply}
			in.snapshot = func() []uint64 {
				out := make([]uint64, len(words))
				for i, w := range words {
					out[i] = uint64(unimwcas.Unpack(b.Memory().Peek(w)).Val)
				}
				return out
			}
			if cfg.Check {
				chk := NewMWCASChecker(obj, simMem(b), words)
				chk.arm(tx)
				checked(in, chk)
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multilist", Pkg: "core/multilist", Family: FamilyMulti, Model: ModelSorted,
		UniPeer: "unilist",
		Scenario: ScenarioSpec{
			Capacity: 64, SeedKeys: []uint64{5, 50}, Stride: 1,
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}, {Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpInsert, Key: 15, Val: 3}, {Code: OpInsert, Key: 25, Val: 4}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			stride := cfg.Stride
			if stride == 0 {
				stride = 100
			}
			l, err := multilist.New(b.Memory(), ar, multilist.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, Stride: stride, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelSorted, l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multiqueue", Pkg: "core/multiqueue", Family: FamilyMulti, Model: ModelFIFO,
		UniPeer: "uniqueue",
		Scenario: ScenarioSpec{
			Capacity: 64,
			Scripts: [][]Op{
				{{Code: OpEnqueue, Val: 10}, {Code: OpEnqueue, Val: 20}},
				{{Code: OpDequeue}, {Code: OpDequeue}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			q, err := multiqueue.New(b.Memory(), ar, multiqueue.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			in := &instance{under: q, snapshot: q.Snapshot, apply: queueApply(q)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelFIFO, q, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multistack", Pkg: "core/multistack", Family: FamilyMulti, Model: ModelLIFO,
		UniPeer: "unistack",
		Scenario: ScenarioSpec{
			Capacity: 64,
			Scripts: [][]Op{
				{{Code: OpPush, Val: 10}, {Code: OpPush, Val: 20}},
				{{Code: OpPop}, {Code: OpPop}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			st, err := multistack.New(b.Memory(), ar, multistack.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, CC: cfg.CC,
				Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			ar.Freeze()
			in := &instance{under: st, snapshot: st.Snapshot, apply: stackApply(st)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelLIFO, st, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multihash", Pkg: "core/multihash", Family: FamilyMulti, Model: ModelSorted,
		UniPeer: "unihash",
		Scenario: ScenarioSpec{
			Capacity: 64, Buckets: 4, SeedKeys: []uint64{40, 41},
			Scripts: [][]Op{
				{{Code: OpInsert, Key: 10, Val: 1}, {Code: OpInsert, Key: 20, Val: 2}},
				{{Code: OpDelete, Key: 40}, {Code: OpInsert, Key: 30, Val: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			tb, err := multihash.New(b.Memory(), ar, multihash.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, Buckets: cfg.Buckets,
				CC: cfg.CC, Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := tb.SeedKeys(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: tb, snapshot: tb.Snapshot, apply: listApply(tb)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelSorted, tb, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "multimwcas", Pkg: "core/multimwcas", Family: FamilyMulti, Model: ModelWords,
		UniPeer: "unimwcas",
		Scenario: ScenarioSpec{
			Words: 3, Width: 4,
			Scripts: [][]Op{
				{{Code: OpMWCAS, Words: []int{0, 1}, Delta: 1}, {Code: OpMWCAS, Words: []int{1, 2}, Delta: 1}},
				{{Code: OpMWCAS, Words: []int{0, 2}, Delta: 2}, {Code: OpMWCAS, Words: []int{0, 1}, Delta: 3}},
			},
		},
		New: func(b Backend, cfg Config) (Instance, error) {
			obj, err := multimwcas.New(b.Memory(), multimwcas.Config{
				Processors: cfg.Processors, Procs: cfg.Procs, Width: cfg.Width,
				CC: cfg.CC, Mode: cfg.Mode, OneRound: cfg.OneRound,
			})
			if err != nil {
				return nil, err
			}
			words, err := allocWords(b.Memory(), cfg.Words)
			if err != nil {
				return nil, err
			}
			for i, w := range words {
				var v uint64
				if i < len(cfg.Initial) {
					v = cfg.Initial[i]
				}
				obj.InitWord(w, v)
			}
			tx := newMWCASTx(words, cfg.Procs, obj.ReadWord, obj.MWCAS)
			in := &instance{under: obj, words: words, apply: tx.apply}
			in.snapshot = func() []uint64 {
				out := make([]uint64, len(words))
				for i, w := range words {
					out[i] = obj.Val(w)
				}
				return out
			}
			if cfg.Check {
				chk := NewMultiMWCASChecker(obj, simMem(b), cfg.Procs, words)
				tx.obs = chk
				checked(in, chk)
			}
			return in, nil
		},
	})

	// Baselines. They answer the same op model so the §3.4 burst runs and
	// report sweeps treat them uniformly; wfcheck's schedule sweeps cover
	// the core objects only (the spin-lock list livelocks by design under
	// priority preemption — that is the paper's motivating failure).
	register(&Descriptor{
		Name: "gclist", Pkg: "baseline/gclist", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := gclist.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelSorted, l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "valois", Pkg: "baseline/valois", Family: FamilyBaseline, Model: ModelSorted,
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := valois.New(b.Memory(), ar, cfg.Procs)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			in := &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}
			if cfg.Check {
				checked(in, NewStructChecker(ModelSorted, l, simMem(b)))
			}
			return in, nil
		},
	})

	register(&Descriptor{
		Name: "locklist", Pkg: "baseline/locklist", Family: FamilyBaseline, Model: ModelSorted,
		NoCheck: "the spin-lock list splices with plain Stores, which the structural checker skips by design",
		New: func(b Backend, cfg Config) (Instance, error) {
			ar, err := newArena(b, cfg)
			if err != nil {
				return nil, err
			}
			l, err := locklist.New(b.Memory(), ar)
			if err != nil {
				return nil, err
			}
			if len(cfg.SeedKeys) > 0 {
				if err := l.SeedAscending(cfg.SeedKeys); err != nil {
					return nil, err
				}
			}
			ar.Freeze()
			return &instance{under: l, snapshot: l.Snapshot, apply: listApply(l)}, nil
		},
	})

	register(&Descriptor{
		Name: "herlihy", Pkg: "baseline/herlihy", Family: FamilyBaseline, Model: ModelSorted,
		NoCheck: "no white-box checker models the universal construction; judge it with the black-box engine (internal/linz)",
		New: func(b Backend, cfg Config) (Instance, error) {
			if len(cfg.SeedKeys) > 0 {
				return nil, fmt.Errorf("registry: the herlihy universal construction does not support seeding")
			}
			obj, err := herlihy.New(b.Memory(), cfg.Procs, cfg.Capacity, herlihy.SortedSetApply)
			if err != nil {
				return nil, err
			}
			in := &instance{under: obj}
			in.snapshot = func() []uint64 {
				var out []uint64
				for _, v := range obj.PeekState() {
					if v != 0 {
						out = append(out, v)
					}
				}
				sortUint64(out)
				return out
			}
			in.apply = func(e shmem.Ctx, slot int, op Op) Result {
				switch op.Code {
				case OpInsert:
					return Result{OK: obj.Do(e, 1, op.Key) == 1}
				case OpDelete:
					return Result{OK: obj.Do(e, 2, op.Key) == 1}
				case OpSearch:
					return Result{OK: obj.Do(e, 3, op.Key) == 1}
				}
				panic("registry: herlihy got " + op.Code.String())
			}
			return in, nil
		},
	})
}

// Lookup0 is Lookup for callers that know the name is registered.
func Lookup0(name string) *Descriptor {
	d, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return d
}

func allocWords(m shmem.Memory, n int) ([]shmem.Addr, error) {
	if n <= 0 {
		return nil, nil
	}
	base, err := m.Alloc("appwords", n)
	if err != nil {
		return nil, err
	}
	words := make([]shmem.Addr, n)
	for i := range words {
		words[i] = base + shmem.Addr(i)
	}
	return words, nil
}

func sortUint64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
