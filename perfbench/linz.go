package main

import (
	"fmt"
	"time"

	"repro/internal/cover"
	"repro/internal/linz"
	"repro/internal/linz/adversary"
	"repro/internal/registry"
	"repro/internal/sched"
)

// linzHistories is the number of adversary histories per object per pass
// in the linz workload; linzOps the operations per worker, the adversary
// default.
const (
	linzHistories = 40
	linzOps       = 3
)

// linzWorkload is the wfcheck -linz shape: every registered object,
// baselines included, driven by seeded adversary schedules at the default
// 3 workers × 3 operations, strategies alternating uniform and PCT, every
// history judged by the Wing–Gong engine. Larger sizes exhaust
// StressConfig's node arena.
type linzWorkload struct {
	names []string
	base  int64 // first adversary seed; a run uses base..base+perObject-1
	n     int   // histories per object per pass
	// scripts holds per object, history and process slot the op stream
	// the history's seed generates.
	scripts [][][][]registry.Op
	lat     []int64
	// detail, when set, collects the per-layer figures of the battery.
	detail *linzDetail
}

// sigSink keeps the timed cover.SimSig call from being optimized away.
var sigSink uint64

// linzDetail accumulates per-history layer figures.
type linzDetail struct {
	execute, check, sig []float64 // ns per call
	histories           int
	ops, states, memo   int
	slices, preemptions int
	helps               int
}

// newLinz prepares perObject histories per registered object, adversary
// seeds from seed×perObject+1 on: it builds every object once with
// BuildOn on a pooled simulation of the adversary's shape and generates
// every history's op streams with Descriptor.Ops.
func newLinz(seed int64, perObject int) (*linzWorkload, error) {
	w := &linzWorkload{names: registry.Names(), base: seed*int64(perObject) + 1, n: perObject}
	for _, name := range w.names {
		d, err := registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		procs := 2
		if d.Family == registry.FamilyUni {
			procs = 1
		}
		sim := sched.Acquire(sched.Config{Processors: procs, Seed: 1, MemWords: 1 << 16})
		_, err = registry.BuildOn(registry.SimBackend(sim), name, linzInstanceConfig(d, adversary.PCT))
		sched.Release(sim)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		scripts := make([][][]registry.Op, perObject)
		for k := range scripts {
			cfg := w.config(name, k)
			icfg := linzInstanceConfig(d, cfg.Strategy)
			for slot := 0; slot < icfg.Procs; slot++ {
				scripts[k] = append(scripts[k], d.Ops(icfg, cfg.Seed, slot, linzOps))
			}
		}
		w.scripts = append(w.scripts, scripts)
	}
	w.lat = make([]int64, 0, len(w.names)*perObject)
	return w, nil
}

// linzInstanceConfig is the instance configuration adversary.Execute
// builds at the default size: 3 workers, plus 2 boosters under PCT,
// checkers off.
func linzInstanceConfig(d *registry.Descriptor, strat adversary.Strategy) registry.Config {
	slots := 3
	if strat == adversary.PCT {
		slots += 2
	}
	cfg := d.StressConfig(slots)
	cfg.Check = false
	return cfg
}

// config is the adversary configuration of history k of one object.
func (w *linzWorkload) config(name string, k int) adversary.Config {
	strat := adversary.Uniform
	if k%2 == 1 {
		strat = adversary.PCT
	}
	return adversary.Config{Object: name, Seed: w.base + int64(k), Strategy: strat}
}

func (w *linzWorkload) pass(tb *spanBuf, parent uint64, host *hostRef, probe bool) (passStats, error) {
	var st passStats
	w.lat = w.lat[:0]
	acc := cover.NewAccumulator()
	fp := cover.NewHasher()
	var unit uint64
	for _, name := range w.names {
		for k := 0; k < w.n; k++ {
			cfg := w.config(name, k)
			hs := tb.open("linz.history", parent, unit)
			st.units++
			t0 := time.Now()
			r, err := adversary.Execute(cfg)
			t1 := time.Now()
			tb.add("adversary.Execute", hs.ID, unit, t0, t1)
			if err != nil {
				st.failed++
				return st, fmt.Errorf("%s seed=%d strategy=%s: %w", name, cfg.Seed, cfg.Strategy, err)
			}
			out, err := r.Check(linz.Options{})
			t2 := time.Now()
			tb.add("linz.Check", hs.ID, unit, t1, t2)
			if err == nil && !out.OK {
				err = fmt.Errorf("NOT linearizable\n%s\n%s", r.History.Text(), out.Counterexample.Tree(r.History))
			}
			if err != nil {
				st.failed++
				r.Close()
				return st, fmt.Errorf("%s seed=%d strategy=%s: %w", name, cfg.Seed, cfg.Strategy, err)
			}
			sig := r.Sig()
			t3 := time.Now()
			tb.add("cover.Sig", hs.ID, unit, t2, t3)
			if probe && k == 0 {
				// The first history of each object probes the heap
				// with its simulation and history still live.
				mb, _ := heapProbe()
				st.heapMB = max(st.heapMB, mb)
			}
			if w.detail != nil {
				w.collect(name, r, out, t1.Sub(t0), t2.Sub(t1))
			}
			t4 := time.Now()
			r.Close()
			t5 := time.Now()
			tb.add("sched.Release", hs.ID, unit, t4, t5)
			tb.close(hs)
			acc.Add(sig)
			elapsed := t3.Sub(t0) + t5.Sub(t4)
			st.add(elapsed, host)
			w.lat = append(w.lat, elapsed.Nanoseconds())
			fp.Word(sig)
			fp.Word(uint64(len(r.History.Ops)))
			fp.Word(uint64(out.States))
			fp.Word(uint64(out.MemoHits))
			unit++
		}
	}
	st.distinct = acc.Distinct()
	st.samples = len(w.lat)
	st.p50 = centralMean(w.lat)
	st.print = fp.Sum()
	return st, nil
}

// collect records one history's layer figures: the simulator report is
// read before Close returns the simulation to the pool.
func (w *linzWorkload) collect(name string, r *adversary.Run, out linz.Outcome, exec, check time.Duration) {
	d := w.detail
	d.histories++
	d.execute = append(d.execute, float64(exec.Nanoseconds()))
	d.check = append(d.check, float64(check.Nanoseconds()))
	d.ops += len(r.History.Ops)
	d.states += out.States
	d.memo += out.MemoHits
	t := time.Now()
	sigSink = cover.SimSig(r.Sim, name, "")
	d.sig = append(d.sig, float64(time.Since(t).Nanoseconds()))
	rep := r.Sim.Report(name)
	d.slices += int(rep.Slices)
	d.preemptions += rep.Preemptions
	d.helps += rep.HelpGiven
}
