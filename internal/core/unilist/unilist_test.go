package unilist_test

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core/unilist"
	"repro/internal/registry"
	"repro/internal/sched"
)

// fixture bundles a sim, arena and list.
type fixture struct {
	sim  *sched.Sim
	ar   *arena.Arena
	list *unilist.List
}

// newChecker attaches a SerialChecker with the sorted-set model, seeded
// from the list's current contents.
func newChecker(fx *fixture, n int) *registry.SerialChecker {
	model := registry.Lookup0("unilist").NewModel(registry.Config{SeedKeys: fx.list.Snapshot()})
	return registry.NewSerialChecker(fx.sim.Mem(), fx.list.AnnPidAddr(), n, fx.list,
		model, registry.KeyedPeek(fx.list))
}

func newFixture(t *testing.T, cfg sched.Config, n, nodes int) *fixture {
	t.Helper()
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 16
	}
	s := sched.New(cfg)
	ar, err := arena.New(s.Mem(), nodes, n)
	if err != nil {
		t.Fatal(err)
	}
	l, err := unilist.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, list: l}
}

func TestSequentialSemantics(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 32)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		l := fx.list
		if !l.Insert(e, 10, 100) {
			t.Error("Insert(10) = false, want true")
		}
		if !l.Insert(e, 5, 50) {
			t.Error("Insert(5) = false, want true")
		}
		if !l.Insert(e, 15, 150) {
			t.Error("Insert(15) = false, want true")
		}
		if l.Insert(e, 10, 101) {
			t.Error("duplicate Insert(10) = true, want false")
		}
		if !l.Search(e, 10) {
			t.Error("Search(10) = false, want true")
		}
		if l.Search(e, 7) {
			t.Error("Search(7) = true, want false")
		}
		if !l.Delete(e, 10) {
			t.Error("Delete(10) = false, want true")
		}
		if l.Delete(e, 10) {
			t.Error("second Delete(10) = true, want false")
		}
		if l.Search(e, 10) {
			t.Error("Search(10) after delete = true, want false")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.list.Snapshot()
	want := []uint64{5, 15}
	if len(got) != len(want) {
		t.Fatalf("final list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final list = %v, want %v", got, want)
		}
	}
}

func TestSortedOrderMaintained(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 64)
	keys := []uint64{42, 7, 99, 1, 63, 20, 88, 3}
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for _, k := range keys {
			fx.list.Insert(e, k, k)
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.list.Snapshot()
	if len(got) != len(keys) {
		t.Fatalf("list has %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("list not sorted: %v", got)
		}
	}
}

func TestNodeRecycling(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 8)
	free := fx.ar.FreeCount(0)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		// Far more insert/delete cycles than pool capacity: recycling
		// must sustain them.
		for i := 0; i < 100; i++ {
			if !fx.list.Insert(e, 30, 1) {
				t.Fatalf("cycle %d: Insert failed", i)
			}
			if !fx.list.Delete(e, 30) {
				t.Fatalf("cycle %d: Delete failed", i)
			}
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fx.ar.FreeCount(0); got != free {
		t.Errorf("free count after cycles = %d, want %d (no leaks)", got, free)
	}
}

func TestDuplicateInsertRecyclesNode(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 8)
	free := fx.ar.FreeCount(0)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		fx.list.Insert(e, 30, 1)
		for i := 0; i < 20; i++ {
			if fx.list.Insert(e, 30, 1) {
				t.Fatal("duplicate insert succeeded")
			}
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fx.ar.FreeCount(0); got != free-1 {
		t.Errorf("free count = %d, want %d (duplicate inserts must not leak)", got, free-1)
	}
}

func TestReservedKeysPanic(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 1, 8)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		fx.list.Insert(e, unilist.KeyMax, 0)
	})
	if err := fx.sim.Run(); err == nil {
		t.Fatal("sentinel key accepted")
	}
}

// TestFigure2Trace reproduces the paper's Figure 2 incremental-helping
// scenario: p announces; q preempts p and starts helping it; r preempts q,
// helps p to completion, runs its own operation; q resumes, runs its own
// operation; p returns. Each process helps at most one other process.
func TestFigure2Trace(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1, EnableTrace: true}, 3, 32)
	var pOK, qOK, rOK bool
	fx.sim.Spawn(sched.JobSpec{Name: "p", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		pOK = fx.list.Insert(e, 10, 1)
	}})
	// q arrives while p is between announce and completion.
	fx.sim.Spawn(sched.JobSpec{Name: "q", CPU: 0, Prio: 2, Slot: 1, AfterSlices: 15, Body: func(e *sched.Env) {
		qOK = fx.list.Insert(e, 20, 2)
	}})
	// r arrives while q is inside Help(p).
	fx.sim.Spawn(sched.JobSpec{Name: "r", CPU: 0, Prio: 3, Slot: 2, AfterSlices: 28, Body: func(e *sched.Env) {
		rOK = fx.list.Insert(e, 30, 3)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !pOK || !qOK || !rOK {
		t.Fatalf("operations failed: p=%v q=%v r=%v", pOK, qOK, rOK)
	}
	log := fx.sim.Trace()

	// The Figure 2 event pattern, in order.
	i := log.FindNote(0, "announce p=0")
	if i < 0 {
		t.Fatalf("no announce by p; trace:\n%s", log)
	}
	j := log.FindNote(i+1, "help p=0")
	if j < 0 || log.Events()[j].ProcName != "q" {
		t.Fatalf("q does not help p after p's announce; trace:\n%s", log)
	}
	k := log.FindNote(j+1, "help p=0")
	if k < 0 || log.Events()[k].ProcName != "r" {
		t.Fatalf("r does not help p after q; trace:\n%s", log)
	}
	a := log.FindNote(k+1, "announce p=2")
	if a < 0 {
		t.Fatalf("r does not announce its own operation after helping; trace:\n%s", log)
	}
	b := log.FindNote(a+1, "announce p=1")
	if b < 0 {
		t.Fatalf("q does not announce its own operation after r; trace:\n%s", log)
	}

	// "With incremental helping, each process helps at most one other
	// process."
	helpsBy := map[string]int{}
	for _, ev := range log.Annotations() {
		if msg := ev.Message(); len(msg) >= 4 && msg[:4] == "help" {
			helpsBy[ev.ProcName]++
		}
	}
	for name, n := range helpsBy {
		if n > 1 {
			t.Errorf("process %s helped %d operations, want at most 1", name, n)
		}
	}

	got := fx.list.Snapshot()
	want := []uint64{10, 20, 30}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("final list = %v, want %v", got, want)
	}
}

// TestPreemptionPointSweep releases a higher-priority adversary at every
// possible slice of a victim's operation and checks the model at each
// release point. This exhaustively covers the preemption windows the paper
// argues about informally (between lines 37-42, 42-45, 37-48 of Figure 5).
func TestPreemptionPointSweep(t *testing.T) {
	type advOp struct {
		name string
		run  func(l *unilist.List, e *sched.Env) bool
	}
	advs := []advOp{
		{"delete_same_key", func(l *unilist.List, e *sched.Env) bool { return l.Delete(e, 10) }},
		{"insert_same_key", func(l *unilist.List, e *sched.Env) bool { return l.Insert(e, 10, 99) }},
		{"insert_before", func(l *unilist.List, e *sched.Env) bool { return l.Insert(e, 7, 99) }},
		{"delete_neighbor", func(l *unilist.List, e *sched.Env) bool { return l.Delete(e, 15) }},
	}
	for _, adv := range advs {
		adv := adv
		t.Run(adv.name, func(t *testing.T) {
			for k := int64(0); k < 90; k++ {
				fx := newFixture(t, sched.Config{Processors: 1, Seed: 1}, 2, 32)
				chk := newChecker(fx, 2)
				// Seed the list with {5, 15} sequentially.
				seedDone := false
				fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
					fx.list.Insert(e, 5, 0)
					chk.End(0, registry.Result{OK: true})
					fx.list.Insert(e, 15, 0)
					chk.End(0, registry.Result{OK: true})
					seedDone = true
					ok := fx.list.Insert(e, 10, 1)
					chk.End(0, registry.Result{OK: ok})
				}})
				fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 60 + k, Body: func(e *sched.Env) {
					ok := adv.run(fx.list, e)
					chk.End(1, registry.Result{OK: ok})
				}})
				if err := fx.sim.Run(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if !seedDone {
					t.Fatalf("k=%d: adversary released before seeding finished; widen offset", k)
				}
				chk.Finish()
				if err := chk.Err(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
		})
	}
}

// TestStressWithChecker: randomized prioritized jobs, all operations checked
// against the serialized model.
func TestStressWithChecker(t *testing.T) {
	f := func(seed int64) bool {
		const nProcs = 5
		fx := newFixture(t, sched.Config{Processors: 1, Seed: seed, MemWords: 1 << 17}, nProcs, 256)
		chk := newChecker(fx, nProcs)
		rng := fx.sim.Rand()
		for p := 0; p < nProcs; p++ {
			p := p
			fx.sim.Spawn(sched.JobSpec{
				Name: "", CPU: 0, Prio: sched.Priority(rng.Intn(8)), Slot: p,
				At: rng.Int63n(300), AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < 12; op++ {
						key := uint64(1 + e.Rand().Intn(12))
						var ok bool
						switch e.Rand().Intn(3) {
						case 0:
							ok = fx.list.Insert(e, key, key*10)
						case 1:
							ok = fx.list.Delete(e, key)
						default:
							ok = fx.list.Search(e, key)
						}
						chk.End(p, registry.Result{OK: ok})
					}
				},
			})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if chk.Announces() != nProcs*12 {
			t.Fatalf("seed %d: %d announces, want %d", seed, chk.Announces(), nProcs*12)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// seededFixture builds a fixture whose list is pre-loaded with keys
// 10, 20, ..., 10*m at setup time.
func seededFixture(t *testing.T, n, m int) *fixture {
	t.Helper()
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 18})
	ar, err := arena.New(s.Mem(), m+16, n)
	if err != nil {
		t.Fatal(err)
	}
	l, err := unilist.New(s.Mem(), ar, n)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, m)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	if err := l.SeedAscending(keys); err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, list: l}
}

// TestSeedAscending validates the bulk loader.
func TestSeedAscending(t *testing.T) {
	fx := seededFixture(t, 1, 5)
	got := fx.list.Snapshot()
	want := []uint64{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("seeded list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeded list = %v, want %v", got, want)
		}
	}
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		if !fx.list.Search(e, 30) {
			t.Error("Search(30) on seeded list failed")
		}
		if !fx.list.Delete(e, 30) {
			t.Error("Delete(30) on seeded list failed")
		}
		if !fx.list.Insert(e, 35, 0) {
			t.Error("Insert(35) on seeded list failed")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTheta2T: an operation helped once costs at most about twice an
// interference-free operation of the same length (the Θ(2T) bound of
// Figure 1, with the constant 2 reflecting "the cost of helping"). The key
// mechanism is the Ann.ptr scan checkpoint: a preemptor resumes the
// victim's scan rather than restarting it.
func TestTheta2T(t *testing.T) {
	const m = 80
	// Interference-free cost of a tail insert (scan of ~m nodes).
	base := func() int64 {
		fx := seededFixture(t, 2, m)
		var elapsed int64
		fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			start := e.Now()
			fx.list.Insert(e, uint64(10*m+5), 0)
			elapsed = e.Now() - start
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}()
	// Response time of the same insert when a full-list search preempts
	// it mid-scan: the preemptor first helps the victim to completion
	// (one scan suffix), then runs its own scan. The victim's response
	// time includes the preemptor's entire execution, bounded by ~2T.
	var worst int64
	for _, k := range []int64{base / 4, base / 2, 3 * base / 4} {
		fx := seededFixture(t, 2, m)
		var elapsed int64
		fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			start := e.Now()
			fx.list.Insert(e, uint64(10*m+5), 0)
			elapsed = e.Now() - start
		}})
		fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: k, Body: func(e *sched.Env) {
			fx.list.Search(e, uint64(10*m+5))
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if elapsed > worst {
			worst = elapsed
		}
	}
	ratio := float64(worst) / float64(base)
	// One helping round plus own work: ratio should sit near 2 and must
	// stay well under 3 (a restarted scan would push it past 2 per
	// preemption; the checkpoint keeps total work ~2T).
	if ratio > 2.6 {
		t.Errorf("helped op response %d vs interference-free %d: ratio %.2f, want <= ~2 (Θ(2T))", worst, base, ratio)
	}
}
