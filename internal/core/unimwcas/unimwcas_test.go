package unimwcas_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core/unimwcas"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// fixture bundles a sim, an object and three application words.
type fixture struct {
	sim   *sched.Sim
	obj   *unimwcas.Object
	words []shmem.Addr
}

func newFixture(t *testing.T, cfg sched.Config, n, b, nwords int, initial []uint32) *fixture {
	t.Helper()
	s := sched.New(cfg)
	obj, err := unimwcas.New(s.Mem(), n, b)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Mem().MustAlloc("app", nwords)
	words := make([]shmem.Addr, nwords)
	for i := range words {
		words[i] = base + shmem.Addr(i)
		var v uint32
		if i < len(initial) {
			v = initial[i]
		}
		obj.InitWord(words[i], v)
	}
	return &fixture{sim: s, obj: obj, words: words}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(val uint32, cnt uint8, valid bool, pid uint16) bool {
		w := unimwcas.Word{Val: val, Cnt: cnt, Valid: valid, Pid: pid}
		return unimwcas.Unpack(unimwcas.Pack(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	m := shmem.New(64)
	cases := []struct {
		n, b int
	}{
		{0, 1}, {-1, 4}, {1 << 20, 1}, {1, 0}, {1, 1 << 20},
	}
	for _, c := range cases {
		if _, err := unimwcas.New(m, c.n, c.b); err == nil {
			t.Errorf("New(n=%d, b=%d) succeeded, want error", c.n, c.b)
		}
	}
}

func TestSingleSuccess(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 4, 3, []uint32{12, 22, 8})
	var ok bool
	var reads []uint32
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		ok = fx.obj.MWCAS(e, fx.words, []uint32{12, 22, 8}, []uint32{5, 10, 17})
		for _, w := range fx.words {
			reads = append(reads, fx.obj.Read(e, w))
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("uncontended MWCAS failed")
	}
	want := []uint32{5, 10, 17}
	for i, w := range fx.words {
		if got := fx.obj.Val(w); got != want[i] {
			t.Errorf("Val(word %d) = %d, want %d", i, got, want[i])
		}
		if reads[i] != want[i] {
			t.Errorf("Read(word %d) = %d, want %d", i, reads[i], want[i])
		}
		// Cleanup must leave words valid (inset (c) of Figure 4).
		if w := unimwcas.Unpack(fx.sim.Mem().Peek(w)); !w.Valid {
			t.Errorf("word %d left invalid after completed MWCAS", i)
		}
	}
}

func TestSingleMismatch(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 4, 3, []uint32{12, 22, 8})
	var ok bool
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		ok = fx.obj.MWCAS(e, fx.words, []uint32{12, 99, 8}, []uint32{5, 10, 17})
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("MWCAS succeeded despite mismatching old value")
	}
	want := []uint32{12, 22, 8}
	for i, w := range fx.words {
		if got := fx.obj.Val(w); got != want[i] {
			t.Errorf("Val(word %d) = %d, want %d (failed MWCAS must not change values)", i, got, want[i])
		}
	}
}

func TestUnchangedWordStaysRestored(t *testing.T) {
	// old == new for one word: the cleanup path restores the original
	// representation (line 20) rather than committing (line 17).
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 4, 2, []uint32{7, 9})
	var ok bool
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		ok = fx.obj.MWCAS(e, fx.words, []uint32{7, 9}, []uint32{7, 100})
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("MWCAS failed")
	}
	if got := fx.obj.Val(fx.words[0]); got != 7 {
		t.Errorf("unchanged word = %d, want 7", got)
	}
	if got := fx.obj.Val(fx.words[1]); got != 100 {
		t.Errorf("changed word = %d, want 100", got)
	}
	if w := unimwcas.Unpack(fx.sim.Mem().Peek(fx.words[0])); !w.Valid {
		t.Error("unchanged word left invalid")
	}
}

// TestFigure4 reproduces the paper's Figure 4: process 4 performs a MWCAS on
// words x, y, z with old/new values 12/5, 22/10, 8/17.
func TestFigure4(t *testing.T) {
	// Inset (c): no interference; operation succeeds.
	t.Run("inset_c_success", func(t *testing.T) {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 10, 3, 3, []uint32{12, 22, 8})
		var ok bool
		fx.sim.Spawn(sched.JobSpec{Name: "proc4", CPU: 0, Prio: 4, Slot: 4, AfterSlices: -1, Body: func(e *sched.Env) {
			ok = fx.obj.MWCAS(e, fx.words, []uint32{12, 22, 8}, []uint32{5, 10, 17})
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("MWCAS failed without interference")
		}
		for i, want := range []uint32{5, 10, 17} {
			if got := fx.obj.Val(fx.words[i]); got != want {
				t.Errorf("Val(word %d) = %d, want %d", i, got, want)
			}
			w := unimwcas.Unpack(fx.sim.Mem().Peek(fx.words[i]))
			if !w.Valid || w.Pid != 4 {
				t.Errorf("word %d = %+v, want valid with pid 4", i, w)
			}
		}
	})

	// Inset (d)/(f): process 9 (higher priority) preempts process 4 after
	// its first phase and successfully writes 56 to z. Process 4's
	// operation fails; x and y are restored.
	t.Run("inset_d_interference", func(t *testing.T) {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 10, 3, 3, []uint32{12, 22, 8})
		z := fx.words[2]
		var ok4, ok9 bool
		var phase1 []unimwcas.Word // state observed by proc 9 before it runs
		var savedByProc4 []uint64
		fx.sim.Spawn(sched.JobSpec{Name: "proc4", CPU: 0, Prio: 4, Slot: 4, AfterSlices: -1, Body: func(e *sched.Env) {
			ok4 = fx.obj.MWCAS(e, fx.words, []uint32{12, 22, 8}, []uint32{5, 10, 17})
		}})
		// Release proc 9 after 13 slices: past proc 4's three installs
		// (first phase), before its commit CAS. Verified below via the
		// inset (b) assertions on phase1.
		fx.sim.Spawn(sched.JobSpec{Name: "proc9", CPU: 0, Prio: 9, Slot: 9, AfterSlices: 13, Body: func(e *sched.Env) {
			m := e.Sim().Mem()
			for _, w := range fx.words {
				phase1 = append(phase1, unimwcas.Unpack(m.Peek(w)))
			}
			for i := range fx.words {
				savedByProc4 = append(savedByProc4, m.Peek(fx.obj.SaveAddr(4, i)))
			}
			ok9 = fx.obj.MWCAS(e, []shmem.Addr{z}, []uint32{8}, []uint32{56})
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}

		// Inset (b): after phase one, each word holds the proposed new
		// value with valid=false, pid=4, cnt=i, and Save[4] holds the
		// old values; current values are unchanged.
		wantNew := []uint32{5, 10, 17}
		wantOld := []uint64{12, 22, 8}
		for i, w := range phase1 {
			if w.Val != wantNew[i] || w.Valid || w.Pid != 4 || w.Cnt != uint8(i) {
				t.Errorf("inset (b): word %d = %+v, want {Val:%d Cnt:%d Valid:false Pid:4}", i, w, wantNew[i], i)
			}
			if savedByProc4[i] != wantOld[i] {
				t.Errorf("inset (b): Save[4][%d] = %d, want %d", i, savedByProc4[i], wantOld[i])
			}
		}

		// Inset (d): process 9 succeeded, process 4 failed, x and y
		// restored, z = 56.
		if !ok9 {
			t.Error("proc 9's interfering MWCAS failed, want success")
		}
		if ok4 {
			t.Error("proc 4's MWCAS succeeded despite interference on z")
		}
		for i, want := range []uint32{12, 22, 56} {
			if got := fx.obj.Val(fx.words[i]); got != want {
				t.Errorf("inset (d): Val(word %d) = %d, want %d", i, got, want)
			}
		}
		if got := fx.sim.Mem().Peek(fx.obj.StatusAddr(4)); got != unimwcas.StatusInvalid {
			t.Errorf("Status[4] = %d, want 1 (invalid)", got)
		}
	})
}

// Example_figure4 replays the paper's Figure 4, insets (d)/(f): process 4
// performs MWCAS on words x, y, z (old/new 12/5, 22/10, 8/17); process 9
// preempts it after its first phase and writes 56 to z, so process 4's
// operation fails and restores x and y.
func Example_figure4() {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	obj, err := unimwcas.New(s.Mem(), 10, 3)
	if err != nil {
		panic(err)
	}
	base := s.Mem().MustAlloc("xyz", 3)
	words := []shmem.Addr{base, base + 1, base + 2}
	for i, v := range []uint32{12, 22, 8} {
		obj.InitWord(words[i], v)
	}
	show := func(when string) {
		fmt.Printf("%-18s x=%-3d y=%-3d z=%-3d Status[4]=%d Status[9]=%d\n", when,
			obj.Val(words[0]), obj.Val(words[1]), obj.Val(words[2]),
			s.Mem().Peek(obj.StatusAddr(4)), s.Mem().Peek(obj.StatusAddr(9)))
	}
	show("initial:")
	var ok4, ok9 bool
	s.Spawn(sched.JobSpec{Name: "proc4", CPU: 0, Prio: 4, Slot: 4, AfterSlices: -1, Body: func(e *sched.Env) {
		ok4 = obj.MWCAS(e, words, []uint32{12, 22, 8}, []uint32{5, 10, 17})
	}})
	s.Spawn(sched.JobSpec{Name: "proc9", CPU: 0, Prio: 9, Slot: 9, AfterSlices: 13, Body: func(e *sched.Env) {
		ok9 = obj.MWCAS(e, []shmem.Addr{words[2]}, []uint32{8}, []uint32{56})
	}})
	if err := s.Run(); err != nil {
		panic(err)
	}
	show("final:")
	fmt.Printf("proc4 MWCAS(x,y,z: 12,22,8 -> 5,10,17) = %v (interfered with on z)\n", ok4)
	fmt.Printf("proc9 MWCAS(z: 8 -> 56)               = %v\n", ok9)
	// Output:
	// initial:           x=12  y=22  z=8   Status[4]=0 Status[9]=0
	// final:             x=12  y=22  z=56  Status[4]=1 Status[9]=2
	// proc4 MWCAS(x,y,z: 12,22,8 -> 5,10,17) = false (interfered with on z)
	// proc9 MWCAS(z: 8 -> 56)               = true
}

// TestReadSeesOldValueDuringPendingOp: a higher-priority reader preempting
// an undecided MWCAS must read the old value via the Save array.
func TestReadSeesOldValueDuringPendingOp(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 4, 2, 2, []uint32{1, 2})
	var seen uint32
	fx.sim.Spawn(sched.JobSpec{Name: "writer", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.obj.MWCAS(e, fx.words, []uint32{1, 2}, []uint32{100, 200})
	}})
	// After 9 slices the writer has installed both words but not
	// committed; the reader must still see 1.
	fx.sim.Spawn(sched.JobSpec{Name: "reader", CPU: 0, Prio: 5, Slot: 1, AfterSlices: 9, Body: func(e *sched.Env) {
		w := unimwcas.Unpack(e.Sim().Mem().Peek(fx.words[0]))
		if w.Valid {
			t.Error("test miscalibrated: word 0 not in pending state at read time")
		}
		seen = fx.obj.Read(e, fx.words[0])
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("Read during pending MWCAS = %d, want old value 1", seen)
	}
}

// TestThetaW: the operation's step cost is linear in W (Figure 1, row 1:
// Θ(W) worst-case time on uniprocessors).
func TestThetaW(t *testing.T) {
	cost := func(w int) int64 {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, w, w, nil)
		old := make([]uint32, w)
		next := make([]uint32, w)
		for i := range next {
			next[i] = uint32(i + 1)
		}
		var elapsed int64
		fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			start := e.Now()
			if !fx.obj.MWCAS(e, fx.words, old, next) {
				t.Error("MWCAS failed")
			}
			elapsed = e.Now() - start
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	c8, c16, c32 := cost(8), cost(16), cost(32)
	r1 := float64(c16) / float64(c8)
	r2 := float64(c32) / float64(c16)
	for _, r := range []float64{r1, r2} {
		if r < 1.6 || r > 2.4 {
			t.Errorf("doubling W scaled cost by %.2f (costs %d, %d, %d), want ~2 (Θ(W))", r, c8, c16, c32)
		}
	}
}

// TestStressWithChecker runs randomized prioritized jobs on one processor
// and validates every operation and the continuous Val invariant against the
// shadow model.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const (
			nProcs = 6
			nWords = 5
			nOps   = 8
		)
		fx := newFixture(t, sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 14},
			nProcs, nWords, nWords, []uint32{0, 0, 0, 0, 0})
		chk := registry.NewMWCASChecker(fx.obj, fx.sim.Mem(), fx.words)
		rng := fx.sim.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			at := rng.Int63n(200)
			prio := sched.Priority(rng.Intn(10))
			fx.sim.Spawn(sched.JobSpec{
				Name: "", CPU: 0, Prio: prio, Slot: p, At: at, AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < nOps; op++ {
						w := 1 + e.Rand().Intn(nWords-1)
						perm := e.Rand().Perm(nWords)[:w]
						addrs := make([]shmem.Addr, w)
						old := make([]uint32, w)
						next := make([]uint32, w)
						for i, wi := range perm {
							addrs[i] = fx.words[wi]
							// Guess the old value via Read; often
							// stale, so both success and failure
							// paths are exercised.
							var rw = chk.BeginRead(addrs[i])
							old[i] = fx.obj.Read(e, addrs[i])
							chk.EndRead(rw, old[i])
							if e.Rand().Intn(4) == 0 {
								old[i] ^= 1 // force occasional mismatch
							}
							next[i] = uint32(e.Rand().Intn(50))
						}
						chk.BeginOp(p, addrs, old, next)
						ok := fx.obj.MWCAS(e, addrs, old, next)
						chk.EndOp(p, ok)
					}
				},
			})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateAddressPanics: the algorithm requires distinct addresses.
func TestDuplicateAddressPanics(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 4, 2, nil)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		fx.obj.MWCAS(e, []shmem.Addr{fx.words[0], fx.words[0]}, []uint32{0, 0}, []uint32{1, 1})
	})
	if err := fx.sim.Run(); err == nil {
		t.Fatal("duplicate addresses accepted")
	}
}
