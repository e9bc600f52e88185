package multimwcas_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core/multimwcas"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

type fixture struct {
	sim   *sched.Sim
	obj   *multimwcas.Object
	words []shmem.Addr
}

func newFixture(t testing.TB, scfg sched.Config, ocfg multimwcas.Config, nwords int) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 15
	}
	s := sched.New(scfg)
	obj, err := multimwcas.New(s.Mem(), ocfg)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Mem().MustAlloc("app", nwords)
	words := make([]shmem.Addr, nwords)
	for i := range words {
		words[i] = base + shmem.Addr(i)
		obj.InitWord(words[i], 0)
	}
	return &fixture{sim: s, obj: obj, words: words}
}

func TestSingleSuccessAndMismatch(t *testing.T) {
	for _, cc := range prim.All() {
		cc := cc
		t.Run(cc.Name(), func(t *testing.T) {
			fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
				multimwcas.Config{Processors: 2, Procs: 2, Width: 4, CC: cc}, 3)
			var ok1, ok2 bool
			fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
				ok1 = fx.obj.MWCAS(e, fx.words, []uint64{0, 0, 0}, []uint64{7, 8, 9})
				ok2 = fx.obj.MWCAS(e, fx.words, []uint64{0, 8, 9}, []uint64{1, 2, 3})
			})
			if err := fx.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if !ok1 {
				t.Error("uncontended MWCAS failed")
			}
			if ok2 {
				t.Error("MWCAS with stale old values succeeded")
			}
			for i, want := range []uint64{7, 8, 9} {
				if got := fx.obj.Val(fx.words[i]); got != want {
					t.Errorf("word %d = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestUnchangedWordOptimization(t *testing.T) {
	// old == new words are skipped in the swap phase (line 27) but still
	// participate in the compare phase.
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multimwcas.Config{Processors: 1, Procs: 1, Width: 4}, 2)
	var ok, okMismatch bool
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		ok = fx.obj.MWCAS(e, fx.words, []uint64{0, 0}, []uint64{0, 5})
		okMismatch = fx.obj.MWCAS(e, fx.words, []uint64{9, 5}, []uint64{9, 6})
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("MWCAS with an unchanged word failed")
	}
	if okMismatch {
		t.Error("MWCAS succeeded despite mismatch on unchanged word")
	}
	if got := fx.obj.Val(fx.words[1]); got != 5 {
		t.Errorf("word 1 = %d, want 5", got)
	}
}

// TestStressAllVariants runs the randomized cross-processor workload with
// full checking for every CCAS implementation and both helping modes.
func TestStressAllVariants(t *testing.T) {
	for _, cc := range prim.All() {
		for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
			cc, mode := cc, mode
			t.Run(fmt.Sprintf("%s_%s", cc.Name(), mode), func(t *testing.T) {
				f := func(seed int64) bool {
					runStress(t, seed, cc, mode)
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func runStress(t *testing.T, seed int64, cc prim.Impl, mode helping.Mode) {
	t.Helper()
	const (
		nCPU   = 3
		nProcs = 6
		nWords = 4
		nOps   = 6
	)
	fx := newFixture(t, sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 16},
		multimwcas.Config{Processors: nCPU, Procs: nProcs, Width: nWords, CC: cc, Mode: mode}, nWords)
	chk := registry.NewMultiMWCASChecker(fx.obj, fx.sim.Mem(), nProcs, fx.words)
	rng := fx.sim.Rand()
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{
			Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
			At: rng.Int63n(400), AfterSlices: -1,
			Body: func(e *sched.Env) {
				for op := 0; op < nOps; op++ {
					w := 1 + e.Rand().Intn(nWords-1)
					perm := e.Rand().Perm(nWords)[:w]
					addrs := make([]shmem.Addr, w)
					old := make([]uint64, w)
					next := make([]uint64, w)
					for i, wi := range perm {
						addrs[i] = fx.words[wi]
						old[i] = fx.obj.ReadWord(e, addrs[i])
						if e.Rand().Intn(4) == 0 {
							old[i] ^= 1 // force occasional mismatch
						}
						next[i] = uint64(e.Rand().Intn(40))
					}
					chk.BeginOp(p, addrs, old, next)
					ok := fx.obj.MWCAS(e, addrs, old, next)
					chk.EndOp(p, ok)
				}
			},
		})
	}
	if err := fx.sim.Run(); err != nil {
		t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
	}
	if chk.Commits()+chk.Fails() != nProcs*nOps {
		t.Fatalf("seed %d (%s/%v): %d decided ops, want %d", seed, cc.Name(), mode, chk.Commits()+chk.Fails(), nProcs*nOps)
	}
}

// TestReadConsistent: the helping-scheme read (Section 3.1, third solution)
// finishes any partially-complete MWCAS before reading, so a pair of reads
// bracketing a concurrent 2-word MWCAS can never observe the torn state
// (new X, old Y).
func TestReadConsistent(t *testing.T) {
	torn := 0
	for seed := int64(0); seed < 20; seed++ {
		fx := newFixture(t, sched.Config{Processors: 2, Seed: seed},
			multimwcas.Config{Processors: 2, Procs: 2, Width: 2}, 2)
		var xs, ys []uint64
		fx.sim.SpawnAt(0, 0, 1, "writer", func(e *sched.Env) {
			cur := uint64(0)
			for i := 0; i < 20; i++ {
				if fx.obj.MWCAS(e, fx.words, []uint64{cur, cur}, []uint64{cur + 1, cur + 1}) {
					cur++
				}
			}
		})
		fx.sim.SpawnAt(0, 1, 1, "reader", func(e *sched.Env) {
			for i := 0; i < 30; i++ {
				x := fx.obj.ReadConsistent(e, fx.words[0])
				y := fx.obj.ReadConsistent(e, fx.words[1])
				xs = append(xs, x)
				ys = append(ys, y)
			}
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			// The writer keeps X == Y at every linearization point;
			// x sampled before y, so y may be newer but never older.
			if ys[i] < xs[i] {
				torn++
			}
		}
	}
	if torn > 0 {
		t.Errorf("ReadConsistent observed %d torn states (new X with old Y)", torn)
	}
}

// TestTheta2PW reproduces the Figure 1 shape for the multiprocessor MWCAS:
// worst-case operation time grows linearly in W and in P.
func TestTheta2PW(t *testing.T) {
	cost := func(nCPU, w int) int64 {
		fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 7, MemWords: 1 << 17},
			multimwcas.Config{Processors: nCPU, Procs: nCPU, Width: w}, w)
		old := make([]uint64, w)
		next := make([]uint64, w)
		for i := range next {
			next[i] = 1
		}
		// Every processor runs one op concurrently; measure the worst
		// response time — each op may traverse the ring twice, helping
		// one W-word op per processor.
		worst := make([]int64, nCPU)
		for cpu := 0; cpu < nCPU; cpu++ {
			cpu := cpu
			fx.sim.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				start := e.Now()
				fx.obj.MWCAS(e, fx.words, old, next)
				worst[cpu] = e.Now() - start
			}})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, w := range worst {
			if w > max {
				max = w
			}
		}
		return max
	}
	// Linear in W at fixed P. (Only the first of the concurrent ops
	// commits; all are still driven through full helping rounds.)
	c4, c8, c16 := cost(4, 4), cost(4, 8), cost(4, 16)
	if r := float64(c16-c8) / float64(c8-c4); r < 1.2 || r > 3.2 {
		t.Errorf("W-scaling not linear: costs %d, %d, %d (difference ratio %.2f)", c4, c8, c16, r)
	}
	// Increasing in P at fixed W.
	p2, p4, p8 := cost(2, 8), cost(4, 8), cost(8, 8)
	if !(p2 < p4 && p4 < p8) {
		t.Errorf("P-scaling not increasing: P=2:%d P=4:%d P=8:%d", p2, p4, p8)
	}
}

// TestOneRoundMode: with run-to-completion jobs (no same-CPU overlap), the
// one-round optimization of [1] is sound and roughly halves helping work.
func TestOneRoundMode(t *testing.T) {
	run := func(oneRound bool) (int64, bool) {
		fx := newFixture(t, sched.Config{Processors: 4, Seed: 3, MemWords: 1 << 16},
			multimwcas.Config{Processors: 4, Procs: 4, Width: 2, OneRound: oneRound}, 2)
		okAll := true
		var total int64
		for cpu := 0; cpu < 4; cpu++ {
			cpu := cpu
			fx.sim.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				start := e.Now()
				for i := 0; i < 10; i++ {
					old := fx.obj.ReadWord(e, fx.words[0])
					old1 := fx.obj.ReadWord(e, fx.words[1])
					fx.obj.MWCAS(e, fx.words, []uint64{old, old1}, []uint64{old + 1, old1 + 1})
				}
				total += e.Now() - start
			}})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		// Sanity: the two words move in lockstep.
		if fx.obj.Val(fx.words[0]) != fx.obj.Val(fx.words[1]) {
			okAll = false
		}
		return total, okAll
	}
	two, ok2 := run(false)
	one, ok1 := run(true)
	if !ok1 || !ok2 {
		t.Fatal("lockstep invariant violated")
	}
	if one >= two {
		t.Errorf("one-round mode not faster: one=%d two=%d", one, two)
	}
}
