package explore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/core/unistack"
	"repro/internal/explore"
	"repro/internal/registry"
	"repro/internal/sched"
)

func TestSweepEnumerates(t *testing.T) {
	var seen [][]int64
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 3, Stride: 1},
		func(rel []int64) error {
			seen = append(seen, append([]int64(nil), rel...)) // rel is reused across calls
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 || len(seen) != 9 {
		t.Fatalf("explored %d vectors, want 9", n)
	}
	if seen[0][0] != 0 || seen[8][0] != 2 || seen[8][1] != 2 {
		t.Errorf("unexpected enumeration order: first %v last %v", seen[0], seen[8])
	}
}

func TestSweepGap(t *testing.T) {
	var count int
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 5, Stride: 1, Gap: 2},
		func(rel []int64) error {
			if rel[1] <= rel[0] || rel[1] > rel[0]+2 {
				return fmt.Errorf("gap constraint violated: %v", rel)
			}
			count++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != count || n != 10 { // 5 first points x 2 offsets
		t.Fatalf("explored %d, want 10", n)
	}
}

func TestSweepStopsOnFailure(t *testing.T) {
	boom := errors.New("boom")
	n, err := explore.Sweep(explore.Config{Adversaries: 1, Max: 10},
		func(rel []int64) error {
			if rel[0] == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 4 {
		t.Errorf("explored %d before failing, want 4", n)
	}
}

func TestSweepKeepGoing(t *testing.T) {
	boom := errors.New("boom")
	fail := map[int64]bool{2: true, 5: true, 7: true}
	n, err := explore.Sweep(explore.Config{Adversaries: 1, Max: 10, KeepGoing: true},
		func(rel []int64) error {
			if fail[rel[0]] {
				return fmt.Errorf("at %d: %w", rel[0], boom)
			}
			return nil
		})
	if n != 10 {
		t.Fatalf("explored %d vectors, want all 10 despite failures", n)
	}
	var fs explore.Failures
	if !errors.As(err, &fs) {
		t.Fatalf("err = %T %v, want explore.Failures", err, err)
	}
	if len(fs) != 3 {
		t.Fatalf("collected %d failures, want 3: %v", len(fs), fs)
	}
	for i, want := range []int64{2, 5, 7} {
		if fs[i].Vector[0] != want {
			t.Errorf("failure %d at vector %v, want [%d]", i, fs[i].Vector, want)
		}
		if !errors.Is(fs[i].Err, boom) {
			t.Errorf("failure %d lost its cause: %v", i, fs[i].Err)
		}
	}
	// The aggregate message must list every reproducer.
	for _, want := range []string{"3 failing", "[2]", "[5]", "[7]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error lacks %q: %v", want, err)
		}
	}
}

func TestSweepKeepGoingMaxFailures(t *testing.T) {
	n, err := explore.Sweep(explore.Config{Adversaries: 1, Max: 50, KeepGoing: true, MaxFailures: 5},
		func(rel []int64) error { return errors.New("always") })
	var fs explore.Failures
	if !errors.As(err, &fs) || len(fs) != 5 {
		t.Fatalf("want exactly 5 collected failures, got %v (n=%d)", err, n)
	}
	if n != 5 {
		t.Errorf("sweep should stop once the failure budget is spent, explored %d", n)
	}
}

func TestSweepKeepGoingAllPass(t *testing.T) {
	n, err := explore.Sweep(explore.Config{Adversaries: 1, Max: 4, KeepGoing: true},
		func(rel []int64) error { return nil })
	if err != nil || n != 4 {
		t.Fatalf("clean sweep returned n=%d err=%v", n, err)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := explore.Sweep(explore.Config{Adversaries: 0, Max: 5}, func([]int64) error { return nil }); err == nil {
		t.Error("zero adversaries accepted")
	}
	if _, err := explore.Sweep(explore.Config{Adversaries: 1, Max: 0}, func([]int64) error { return nil }); err == nil {
		t.Error("zero max accepted")
	}
}

// TestSweepDrivesRealScenario uses the library end-to-end: a two-adversary
// sweep over the wait-free stack with full checking — the same discipline
// the algorithm packages' sweep tests apply by hand.
func TestSweepDrivesRealScenario(t *testing.T) {
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 60, Stride: 3, Gap: 9},
		func(rel []int64) error {
			s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 14})
			ar, err := arena.New(s.Mem(), 32, 3)
			if err != nil {
				return err
			}
			st, err := unistack.New(s.Mem(), ar, 3)
			if err != nil {
				return err
			}
			ar.Freeze()
			chk := registry.NewSerialChecker(s.Mem(), st.Engine().AnnPidAddr(), 3, st,
				registry.Lookup0("unistack").NewModel(registry.Config{}),
				registry.ValuePeek(s.Mem(), ar, registry.ModelLIFO, st))
			s.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				st.Push(e, 100)
				chk.End(0, registry.Result{OK: true})
				v, ok := st.Pop(e)
				chk.End(0, registry.Result{OK: ok, Val: v})
			}})
			s.Spawn(sched.JobSpec{Name: "adv1", CPU: 0, Prio: 5, Slot: 1, AfterSlices: rel[0], Body: func(e *sched.Env) {
				st.Push(e, 200)
				chk.End(1, registry.Result{OK: true})
			}})
			s.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: rel[1], Body: func(e *sched.Env) {
				v, ok := st.Pop(e)
				chk.End(2, registry.Result{OK: ok, Val: v})
			}})
			if err := s.Run(); err != nil {
				return err
			}
			chk.Finish()
			return chk.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Errorf("explored only %d schedules", n)
	}
	t.Logf("explored %d nested two-adversary schedules", n)
}

// TestUnconstrainedSpaceCap: Gap==0 with an absurd Max^Adversaries space is
// refused up front — the scenario never runs, instead of a sweep that would
// outlive the machine.
func TestUnconstrainedSpaceCap(t *testing.T) {
	calls := 0
	_, err := explore.Sweep(explore.Config{Adversaries: 4, Max: 100000}, func([]int64) error {
		calls++
		return nil
	})
	if err == nil {
		t.Fatal("absurd Gap=0 space accepted")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("error does not mention the cap: %v", err)
	}
	if calls != 0 {
		t.Errorf("scenario invoked %d times before the refusal", calls)
	}

	// Small unconstrained spaces keep working, and Stride counts toward the
	// space estimate (Max 4096 / Stride 2048 per adversary = 2^4 vectors).
	n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 3}, func([]int64) error { return nil })
	if err != nil || n != 9 {
		t.Fatalf("small Gap=0 sweep: n=%d err=%v, want 9, nil", n, err)
	}
	n, err = explore.Sweep(explore.Config{Adversaries: 4, Max: 4096, Stride: 2048}, func([]int64) error { return nil })
	if err != nil || n != 16 {
		t.Fatalf("strided Gap=0 sweep: n=%d err=%v, want 16, nil", n, err)
	}
}
