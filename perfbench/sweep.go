package main

import (
	"fmt"
	"time"

	"repro/internal/cover"
	"repro/internal/registry"
	"repro/internal/sched"
)

// sweepMax is the largest release point swept: wfcheck's default depth.
const sweepMax = 120

// Sweep seeds per pass: a pass of sweep-uni sweeps every uni object at
// uniSeedsPerPass consecutive SweepConfig seeds, sweep-multi every multi
// object at multiSeedsPerPass.
const (
	uniSeedsPerPass   = 96
	multiSeedsPerPass = 8
)

// wfcheckGolden pins the distinct behaviour count of every core object's
// sweep at SweepConfig.Seed 1, the wfcheck -cover default.
var wfcheckGolden = map[string]int{
	"multihash": 138, "multilist": 126, "multimwcas": 139, "multiqueue": 163, "multistack": 147,
	"unihash": 36, "unilist": 64, "unimwcas": 37, "uniqueue": 14, "unistack": 60,
}

// sweepSlots and sweepScriptOps size the op streams set-up generates per
// sweep seed: the sweeper runs 4 process slots (2 base workers and 2
// adversaries) of at most 3 operations each.
const (
	sweepSlots     = 4
	sweepScriptOps = 3
)

// sweepWorkload sweeps every object of one family per pass, with
// coverage on, exactly as wfcheck -cover -par 1 does.
type sweepWorkload struct {
	seeds []int64 // the SweepConfig.Seed values a pass sweeps
	descs []*registry.Descriptor
	// space is SweepSpace per object: the schedules each sweep must
	// check (the release grid does not depend on the seed). scripts holds
	// per object, sweep seed and slot the op stream that seed generates.
	// golden is each object's pinned distinct total over the pass's seeds
	// (sweepGolden), nil when the seed is not pinned.
	space   []int
	scripts [][][][]registry.Op
	golden  []int
	// lat is the reused per-pass buffer of per-schedule latencies (ns
	// between consecutive Observe calls); objTime the last pass's time
	// per object.
	lat     []int64
	objTime []time.Duration
}

// newSweep prepares a family's sweep at perPass consecutive sweep seeds
// from seed×perPass+1 on: it counts each object's schedules with
// SweepSpace, builds each object once with BuildOn on a pooled simulation
// of the sweep's shape, and generates every sweep seed's op streams with
// Descriptor.Ops.
func newSweep(f registry.Family, seed int64, perPass int) (*sweepWorkload, error) {
	w := &sweepWorkload{descs: family(f)}
	for k := 0; k < perPass; k++ {
		w.seeds = append(w.seeds, seed*int64(perPass)+int64(k)+1)
	}
	cpus, words := 1, 1<<15
	if f == registry.FamilyMulti {
		cpus, words = 2, 1<<16
	}
	for _, d := range w.descs {
		n, err := d.SweepSpace(w.config(w.seeds[0], nil))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		w.space = append(w.space, n)
		cfg := d.StressConfig(sweepSlots)
		sim := sched.Acquire(sched.Config{Processors: cpus, Seed: 1, MemWords: words})
		_, err = registry.BuildOn(registry.SimBackend(sim), d.Name, cfg)
		sched.Release(sim)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", d.Name, err)
		}
		scripts := make([][][]registry.Op, len(w.seeds))
		for k, s := range w.seeds {
			for slot := 0; slot < sweepSlots; slot++ {
				scripts[k] = append(scripts[k], d.Ops(cfg, s, slot, sweepScriptOps))
			}
		}
		w.scripts = append(w.scripts, scripts)
		if g, ok := sweepGolden[d.Name]; ok && perPass == g.perPass && seed < int64(len(g.distinct)) {
			w.golden = append(w.golden, g.distinct[seed])
		}
	}
	if len(w.golden) != len(w.descs) {
		w.golden = nil
	}
	w.objTime = make([]time.Duration, len(w.descs))
	return w, nil
}

func (w *sweepWorkload) config(seed int64, observe func([]int64, uint64)) registry.SweepConfig {
	return registry.SweepConfig{Max: sweepMax, Seed: seed, Observe: observe}
}

func (w *sweepWorkload) pass(tb *spanBuf, parent uint64, host *hostRef, probe bool) (passStats, error) {
	var st passStats
	w.lat = w.lat[:0]
	fp := cover.NewHasher()
	var unit uint64
	for i, d := range w.descs {
		w.objTime[i] = 0
		distinct := 0
		for k, seed := range w.seeds {
			acc := cover.NewAccumulator()
			sp := tb.open("registry.SweepStats", parent, uint64(i))
			// The first seed's sweep probes the heap halfway through, with
			// the sweeper's simulation and instance live; the probe's time
			// is taken out of the call's.
			probeAt, probeTime := -1, time.Duration(0)
			if probe && k == 0 {
				probeAt = w.space[i] / 2
			}
			var last time.Time
			observe := func(_ []int64, sig uint64) {
				now := time.Now()
				w.lat = append(w.lat, now.Sub(last).Nanoseconds())
				if acc.Schedules() == probeAt {
					var mb float64
					mb, probeTime = heapProbe()
					st.heapMB = max(st.heapMB, mb)
					now = time.Now()
				}
				if tb != nil {
					tb.add("explore.schedule", sp.ID, unit, last, now)
					c := tb.open("cover.Add", sp.ID, unit)
					acc.Add(sig)
					tb.close(c)
					unit++
					last = time.Now()
					return
				}
				acc.Add(sig)
				last = now
			}
			start := time.Now()
			last = start
			info, err := d.SweepStats(w.config(seed, observe))
			elapsed := time.Since(start) - probeTime
			tb.close(sp)
			w.objTime[i] += elapsed
			st.add(elapsed, host)
			space := w.space[i]
			st.units += space
			st.failed += space - acc.Schedules()
			if err != nil {
				return st, fmt.Errorf("%s seed=%d: %w", d.Name, seed, err)
			}
			if info.Explored != space || info.Pruned != 0 {
				return st, fmt.Errorf("%s seed=%d: explored %d (pruned %d), SweepSpace says %d",
					d.Name, seed, info.Explored, info.Pruned, space)
			}
			if want, ok := wfcheckGolden[d.Name]; ok && seed == 1 && acc.Distinct() != want {
				return st, fmt.Errorf("%s seed=%d: %d distinct behaviours, wfcheck -cover pins %d", d.Name, seed, acc.Distinct(), want)
			}
			distinct += acc.Distinct()
			fp.String(d.Name)
			fp.Word(uint64(info.Explored))
			for _, sig := range acc.SortedSigs() {
				fp.Word(sig)
			}
		}
		if w.golden != nil && distinct != w.golden[i] {
			return st, fmt.Errorf("%s: %d distinct behaviours over sweep seeds %d..%d, pinned %d",
				d.Name, distinct, w.seeds[0], w.seeds[len(w.seeds)-1], w.golden[i])
		}
		st.distinct += distinct
	}
	st.samples = len(w.lat)
	st.p50 = centralMean(w.lat)
	st.print = fp.Sum()
	return st, nil
}

// firstSeed is the workload cut down to its first sweep seed.
func (w *sweepWorkload) firstSeed() *sweepWorkload {
	one := *w
	one.seeds, one.golden, one.lat = w.seeds[:1], nil, nil
	one.objTime = make([]time.Duration, len(w.descs))
	return &one
}

// serialPass runs one pass on the scheduler's serial loop (run-ahead
// off). The two scheduler paths are specified to produce identical
// schedules, so its signatures must equal want, a run-ahead pass's.
func (w *sweepWorkload) serialPass(want uint64) (passStats, error) {
	sched.SetRunAhead(false)
	defer sched.SetRunAhead(true)
	st, err := w.pass(nil, 0, nil, false)
	if err == nil && st.print != want {
		err = fmt.Errorf("signatures differ from run-ahead (%#x, want %#x)", st.print, want)
	}
	if err != nil {
		return st, fmt.Errorf("serial-loop pass: %w", err)
	}
	return st, nil
}

// serialCheck runs the first sweep seed on run-ahead and on the serial
// loop and compares them.
func (w *sweepWorkload) serialCheck() error {
	one := w.firstSeed()
	fast, err := one.pass(nil, 0, nil, false)
	if err != nil {
		return err
	}
	_, err = one.serialPass(fast.print)
	return err
}
