package main

import (
	"strings"
	"time"

	"repro/internal/registry"
)

// workload is one workload's prepared inputs. A pass is a fixed unit of
// work: it calls into the program, checks every output and reports what
// it measured. Between its timed calls it ticks host, which samples the
// reference kernel. With probe set it also reads the heap (heapProbe).
type workload interface {
	pass(tb *spanBuf, parent uint64, host *hostRef, probe bool) (passStats, error)
}

// passStats is what one pass measured and checked.
type passStats struct {
	// units counts the checked units attempted (schedules, histories or
	// operations); failed the ones whose check failed.
	units, failed int
	// distinct counts the pass's distinct behaviour signatures.
	distinct int
	// elapsed is the time spent inside the program's calls; normElapsed
	// the same time scaled to the nominal host call by call.
	elapsed, normElapsed time.Duration
	// untimed counts checked units run outside the timed calls (native's
	// concurrent runs); they count as attempted, not into the rates.
	untimed int
	// p50 is the pass's median unit latency in ns over samples
	// latencies, as centralMean estimates it.
	p50     float64
	samples int
	// print fingerprints the pass's deterministic outputs; passes of one
	// run must agree. Native's concurrent runs are left out: their
	// outputs depend on real thread interleaving.
	print uint64
	// heapMB is the largest live heap a forced collection found while
	// the program's working state was reachable (see heapProbe).
	heapMB float64
}

// add books one timed call into the pass: its time, and its time scaled
// by the latest reference sample. Then it lets host sample again.
func (st *passStats) add(d time.Duration, host *hostRef) {
	st.elapsed += d
	st.normElapsed += host.scale(d)
	host.tick()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name, why string
	// passesPerSecond fixes the work of a run: passes = rate × --seconds.
	passesPerSecond float64
	// setup builds the inputs; a set-up batch calls it setupReps times
	// (20–35 ms of work on the 2-CPU tuning host).
	setup     func(seed int64) (workload, error)
	setupReps int
}

var workloads = []workloadDef{
	{
		name:            "sweep-uni",
		why:             "checked release-point sweeps of the 5 uni objects: per-schedule rebuild, checkers and signing; run-ahead batches almost every slice",
		passesPerSecond: 0.8,
		setup:           func(seed int64) (workload, error) { return newSweep(registry.FamilyUni, seed, uniSeedsPerPass) },
		setupReps:       1,
	},
	{
		name:            "sweep-multi",
		why:             "the same sweep over the 5 multi objects, where 2-CPU lockstep makes coroutine handoffs dominate",
		passesPerSecond: 0.65,
		setup:           func(seed int64) (workload, error) { return newSweep(registry.FamilyMulti, seed, multiSeedsPerPass) },
		setupReps:       14,
	},
	{
		name:            "linz",
		why:             "adversary histories on all 14 objects judged by Wing-Gong: fresh instance per history, the only baseline runs",
		passesPerSecond: 9.5,
		setup:           func(seed int64) (workload, error) { return newLinz(seed, linzHistories) },
		setupReps:       1,
	},
	{
		name:            "native",
		why:             "the 10 core objects off the simulator: real atomics, guard-word CAS2 and priority shards, timed in a one-goroutine replay, checked on 2 goroutines",
		passesPerSecond: 2.2,
		setup:           func(seed int64) (workload, error) { return newNative(seed, nativeOps, nativeStreams, false) },
		setupReps:       1,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// family returns the registry descriptors of one family, sorted by name.
func family(f registry.Family) []*registry.Descriptor {
	var out []*registry.Descriptor
	for _, d := range registry.All() {
		if d.Family == f {
			out = append(out, d)
		}
	}
	return out
}
