package main

// The layer battery: the traced run's per-layer measurements. Every
// traced invocation runs the whole battery, whichever workload it traces,
// so each traced run reports every per-layer metric. README.md maps each
// metric to the end-to-end metric and workload it should move.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// battery measures the per-layer metrics at the run's seed and returns
// them with the number of checked units it ran.
func battery(seed int64, tr *tracer) (map[string]float64, int, error) {
	m := map[string]float64{}
	tb := tr.buf()
	units := 0

	sp := tb.open("sched.micro", 0, 0)
	var err error
	if m["sched.slice_ns"], err = simNsPerSlice(1, 100_000, func(e *sched.Env, cpu, i int) {
		e.Store(shmem.Addr(2), e.Load(shmem.Addr(1))+1)
	}); err != nil {
		return m, units, err
	}
	if m["sched.handoff_ns"], err = simNsPerSlice(2, 25_000, func(e *sched.Env, cpu, i int) {
		a := shmem.Addr(1 + 2*cpu)
		e.Store(a+1, e.Load(a)+1)
	}); err != nil {
		return m, units, err
	}
	m["sched.acquire_us"] = acquireUs()
	tb.close(sp)
	sp = tb.open("shmem.micro", 0, 0)
	if m["shmem.cas_ns"], err = simNsPerSlice(1, 200_000, func(e *sched.Env, cpu, i int) {
		e.CAS(shmem.Addr(1), uint64(i), uint64(i+1))
	}); err != nil {
		return m, units, err
	}
	tb.close(sp)

	sp = tb.open("registry.micro", 0, 0)
	for _, f := range []struct {
		fam  registry.Family
		key  string
		cpus int
	}{{registry.FamilyUni, "uni", 1}, {registry.FamilyMulti, "multi", 2}, {registry.FamilyBaseline, "baseline", 2}} {
		if m["registry.build_us."+f.key], err = buildUs(family(f.fam), f.cpus); err != nil {
			return m, units, err
		}
	}
	if m["registry.allocs_per_schedule"], m["registry.bytes_per_schedule"], err = sweepAllocs(seed); err != nil {
		return m, units, err
	}
	tb.close(sp)

	for _, f := range []struct {
		fam  registry.Family
		key  string
		reps int
	}{{registry.FamilyUni, "sweep-uni", 10}, {registry.FamilyMulti, "sweep-multi", 3}} {
		n, err := sweepProbe(m, f.fam, f.key, f.reps, seed, tb)
		units += n
		if err != nil {
			return m, units, err
		}
	}

	lw, err := newLinz(seed, 6)
	if err != nil {
		return m, units, err
	}
	ld := &linzDetail{}
	lw.detail = ld
	sp = tb.open("bench.probe", 0, 0)
	st, err := lw.pass(tb, sp.ID, nil, false)
	tb.close(sp)
	units += st.units
	if err != nil {
		return m, units, err
	}
	h := float64(ld.histories)
	m["adversary.execute_us"] = quantile(ld.execute, 0.5) / 1e3
	m["linz.check_us"] = quantile(ld.check, 0.5) / 1e3
	m["linz.check_share"] = sum(ld.check) / (sum(ld.check) + sum(ld.execute))
	m["linz.states_per_history"] = float64(ld.states) / h
	m["linz.memo_hits_per_history"] = float64(ld.memo) / h
	m["linz.ops_per_history"] = float64(ld.ops) / h
	m["sched.slices_per_history"] = float64(ld.slices) / h
	m["sched.preemptions_per_history"] = float64(ld.preemptions) / h
	m["cover.sig_ns"] = quantile(ld.sig, 0.5)
	m["helping.help_per_op.linz"] = float64(ld.helps) / float64(ld.ops)

	nw, err := newNative(seed, nativeOps, 2, true)
	if err != nil {
		return m, units, err
	}
	nd := &nativeDetail{objOps: map[string]int{}, objTime: map[string]time.Duration{}}
	nw.detail = nd
	for i := 0; i < 2; i++ {
		sp = tb.open("bench.probe", 0, 0)
		st, err := nw.pass(tb, sp.ID, nil, false)
		tb.close(sp)
		units += st.units
		if err != nil {
			return m, units, err
		}
	}
	ops, cops := float64(nd.ops), float64(nd.concurrentOps)
	m["native.apply_ns.p50"] = quantile(nd.apply, 0.5)
	m["native.end_ns.p50"] = quantile(nd.end, 0.5)
	m["native.mem_ops_per_op"] = float64(nd.memOps) / ops
	m["native.concurrent.ops_per_s"] = cops / nd.concurrentTime.Seconds()
	m["native.concurrent.op_p50_ns"] = quantile(nd.latency, 0.5)
	m["native.concurrent.op_p99_ns"] = quantile(nd.latency, 0.99)
	m["native.begin_wait_ns.p50"] = quantile(nd.beginWaitUni, 0.5)
	m["native.begin_wait_ns.p99"] = quantile(nd.beginWaitUni, 0.99)
	m["native.cas2_guard_retries_per_op"] = float64(nd.guard) / cops
	m["native.preemptions_per_op"] = float64(nd.preemptions) / cops
	m["helping.help_per_op.native"] = float64(nd.helps) / cops
	for name, n := range nd.objOps {
		m["native.ops_per_s."+name] = float64(n) / nd.objTime[name].Seconds()
	}
	sp = tb.open("bench.mutex_ref", 0, 0)
	m["native.mutex_ref_ops_per_s"] = mutexRefOpsPerSec(nw, 3)
	tb.close(sp)
	return m, units, nil
}

// simNsPerSlice runs one simulated process per CPU, each calling body n
// times, and returns the median over 5 runs of wall ns per executed
// slice. On one CPU the run-ahead path batches the slices; on two, the
// CPUs alternate slice by slice, so every slice is a coroutine handoff.
func simNsPerSlice(cpus, n int, body func(e *sched.Env, cpu, i int)) (float64, error) {
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		s := sched.Acquire(sched.Config{Processors: cpus, Seed: 1, MemWords: 1 << 12})
		for c := 0; c < cpus; c++ {
			s.SpawnAt(0, c, 1, fmt.Sprintf("w%d", c), func(e *sched.Env) {
				for i := 0; i < n; i++ {
					body(e, c, i)
				}
			})
		}
		start := time.Now()
		err := s.Run()
		elapsed := time.Since(start)
		slices := s.Slices()
		sched.Release(s)
		if err != nil {
			return 0, fmt.Errorf("scheduler micro: %w", err)
		}
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(slices))
	}
	return median(ns), nil
}

// acquireUs is the median over 5 batches of the time of one pooled
// Acquire+Release of a linz-sized simulation, in µs.
func acquireUs() float64 {
	const batch = 500
	var us []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			sched.Release(sched.Acquire(sched.Config{Processors: 2, Seed: int64(i + 1), MemWords: 1 << 16}))
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3/batch)
	}
	return median(us)
}

// buildUs is the median over 10 reps of the mean time to build one
// checked instance of each object, on a pooled simulation, in µs.
func buildUs(descs []*registry.Descriptor, cpus int) (float64, error) {
	var us []float64
	for rep := 0; rep < 10; rep++ {
		var total time.Duration
		for _, d := range descs {
			s := sched.Acquire(sched.Config{Processors: cpus, Seed: 1, MemWords: 1 << 16})
			start := time.Now()
			_, err := registry.BuildOn(registry.SimBackend(s), d.Name, d.StressConfig(3))
			total += time.Since(start)
			sched.Release(s)
			if err != nil {
				return 0, fmt.Errorf("build %s: %w", d.Name, err)
			}
		}
		us = append(us, float64(total.Nanoseconds())/1e3/float64(len(descs)))
	}
	return median(us), nil
}

// sweepAllocs returns the registry's heap allocations and bytes per
// checked schedule over one sweep-uni pass with signing on and no
// benchmark-side accumulation.
func sweepAllocs(seed int64) (float64, float64, error) {
	w, err := newSweep(registry.FamilyUni, seed, 1)
	if err != nil {
		return 0, 0, err
	}
	observe := func([]int64, uint64) {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for _, d := range w.descs {
		info, err := d.SweepStats(w.config(w.seeds[0], observe))
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", d.Name, err)
		}
		n += info.Explored
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// sweepProbe times reps run-ahead passes and one serial-loop pass of a
// sweep family and records its per-layer metrics under key.
func sweepProbe(m map[string]float64, f registry.Family, key string, reps int, seed int64, tb *spanBuf) (int, error) {
	w, err := newSweep(f, seed, 1)
	if err != nil {
		return 0, err
	}
	units := 0
	objTimes := make([][]float64, len(w.descs))
	var totals []float64
	var st passStats
	for rep := 0; rep < reps; rep++ {
		sp := tb.open("bench.probe", 0, uint64(rep))
		st, err = w.pass(tb, sp.ID, nil, false)
		tb.close(sp)
		units += st.units
		if err != nil {
			return units, err
		}
		totals = append(totals, st.elapsed.Seconds())
		for i, t := range w.objTime {
			objTimes[i] = append(objTimes[i], float64(t.Nanoseconds())/1e6)
		}
	}
	for i, d := range w.descs {
		m["registry.sweep_ms."+d.Name] = median(objTimes[i])
	}
	m["explore.schedules."+key] = float64(st.units)
	m["cover.distinct."+key] = float64(st.distinct)
	m["cover.distinct_ratio."+key] = float64(st.distinct) / float64(st.units)

	serial, err := w.serialPass(st.print)
	units += serial.units
	if err != nil {
		return units, fmt.Errorf("%s: %w", key, err)
	}
	m["sched.runahead_speedup."+key] = serial.elapsed.Seconds() / median(totals)
	return units, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
