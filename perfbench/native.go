package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/native"
	"repro/internal/registry"
	"repro/internal/shmem"
)

const (
	// nativeOps is the number of operations each goroutine applies in one
	// object run; nativeStreams is the number of runs per object per pass,
	// each with its own generated op streams. Queue and stack speed
	// depends on how far a stream's random walk takes the length, so a
	// pass averages several streams rather than one long one.
	nativeOps     = 400
	nativeStreams = 25
	// nativeProcs goroutines drive each object: the host has 2 CPUs.
	nativeProcs = 2
	// nativeShards is the multiprocessor family's shard count: one
	// goroutine per shard.
	nativeShards = 2
)

// nativeObject is one object run's prepared inputs: the object (and its
// index among the core objects), its instance configuration, the
// generated op stream of each slot, and the reused result buffers.
type nativeObject struct {
	d   *registry.Descriptor
	idx int
	cfg registry.Config
	ops [][]registry.Op
	res [][]registry.Result
}

// nativeWorkload drives all 10 core objects off the simulator. Each
// object run is replayed on one goroutine and then run on nativeProcs real
// goroutines, closed loop: each goroutine issues its next operation when
// the previous one returns. Uni objects share one priority shard (the two
// processes have different priorities, so on goroutines one preempts the
// other); multi objects get one shard per process.
//
// Only the replay is timed into the pass, on the benchmark's one P. On
// goroutines, per-op time depends on whether the host gives the run its
// second CPU: with another process busy on it the two goroutines stop
// contending, and op latency fell by about 40% and throughput rose by
// about 18% (README.md, "Noise"). The replay's timings do not depend on that, and
// its outputs repeat exactly.
type nativeWorkload struct {
	objs []*nativeObject
	obs  bool
	// lat holds each goroutine's Begin→End latencies (ns) for one
	// concurrent object run.
	lat [nativeProcs][]int64
	// objLat gathers one pass's replay latencies by core object; sigs
	// the pass's replay op signatures (see opSig).
	objLat [][]int64
	sigs   map[uint64]struct{}
	// detail, when set, collects the per-layer figures of the battery.
	detail *nativeDetail
}

// nativeDetail accumulates per-op layer figures across objects: the
// replay's (apply, end, memOps, objOps, objTime) and the concurrent
// runs' (the rest).
type nativeDetail struct {
	mu                 sync.Mutex
	beginWaitUni       []float64 // ns blocked in Begin, uni objects only
	apply, end         []float64
	latency            []float64
	ops, concurrentOps int
	concurrentTime     time.Duration
	memOps, helps      uint64
	preemptions, guard uint64
	objOps             map[string]int
	objTime            map[string]time.Duration
}

// newNative prepares streams runs of every core object, the op streams
// of run k generated from seed×streams+k+1.
func newNative(seed int64, perProc, streams int, obs bool) (*nativeWorkload, error) {
	descs := append(family(registry.FamilyUni), family(registry.FamilyMulti)...)
	w := &nativeWorkload{obs: obs, objLat: make([][]int64, len(descs)), sigs: map[uint64]struct{}{}}
	for i, d := range descs {
		for k := 0; k < streams; k++ {
			w.objs = append(w.objs, newNativeObject(d, i, seed*int64(streams)+int64(k)+1, perProc))
		}
	}
	for slot := range w.lat {
		w.lat[slot] = make([]int64, 0, perProc)
	}
	// Build each object once, so set-up includes construction on the
	// backend.
	for _, o := range w.objs {
		if _, _, err := o.build(false); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func newNativeObject(d *registry.Descriptor, idx int, seed int64, perProc int) *nativeObject {
	cfg := d.StressConfig(nativeProcs)
	cfg.Check = false // the white-box checkers are simulator-only
	// Every op of every process may allocate a node, and frees go to
	// the freeing slot's pool: size each pool to the whole op budget.
	cfg.Capacity = nativeProcs*(perProc+4) + 2*len(cfg.SeedKeys) + 8
	o := &nativeObject{d: d, idx: idx, cfg: cfg}
	for slot := 0; slot < nativeProcs; slot++ {
		o.ops = append(o.ops, d.Ops(cfg, seed, slot, perProc))
		o.res = append(o.res, make([]registry.Result, perProc))
	}
	return o
}

// build constructs the object on a fresh native world and places one
// process per slot: uni objects on one shard with priorities 0 and 1,
// multi objects one per shard.
func (o *nativeObject) build(obs bool) (registry.Instance, []*native.Proc, error) {
	mem := native.NewMem(1<<15 + o.cfg.Capacity*8 + nativeProcs*64)
	uni := o.d.Family == registry.FamilyUni
	shards := nativeShards
	if uni {
		shards = 1
	}
	world := native.NewWorld(mem, shards)
	if obs {
		world.EnableObs(native.ObsConfig{Metrics: true})
	}
	inst, err := registry.BuildOn(registry.NativeBackend(world), o.d.Name, o.cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.d.Name, err)
	}
	procs := make([]*native.Proc, nativeProcs)
	for slot := range procs {
		cpu, prio := slot%shards, shmem.Priority(slot/shards)
		if uni {
			prio = shmem.Priority(slot % 8)
		}
		procs[slot] = world.NewProc(slot, cpu, prio)
	}
	return inst, procs, nil
}

func (w *nativeWorkload) pass(tb *spanBuf, parent uint64, host *hostRef, probe bool) (passStats, error) {
	var st passStats
	for i := range w.objLat {
		w.objLat[i] = w.objLat[i][:0]
	}
	clear(w.sigs)
	fp := cover.NewHasher()
	for i, o := range w.objs {
		n := nativeProcs * len(o.ops[0])
		st.units += n
		inst, procs, elapsed, err := w.replay(o, tb, parent, uint64(i))
		if err != nil {
			return st, err
		}
		st.add(elapsed, host)
		snap := inst.Snapshot()
		if err := conserved(o.d, o.cfg, o.ops, o.res, snap); err != nil {
			st.failed += n
			return st, fmt.Errorf("%s replay: %w", o.d.Name, err)
		}
		fp.String(o.d.Name)
		for _, res := range o.res {
			for _, r := range res {
				fp.Word(r.Val<<1 | b2u(r.OK))
			}
		}
		for _, v := range snap {
			fp.Word(v)
		}
		if probe && (i+1 == len(w.objs) || w.objs[i+1].d != o.d) {
			// Each object's last replay probes the heap with its
			// world and instance still live.
			mb, _ := heapProbe()
			st.heapMB = max(st.heapMB, mb)
			runtime.KeepAlive(inst)
		}
		if d := w.detail; d != nil {
			d.objOps[o.d.Name] += n
			d.objTime[o.d.Name] += elapsed
			for _, p := range procs {
				d.memOps += p.Counts.Steps()
			}
		}
	}

	// The benchmark runs on one P (see run); the concurrent runs need
	// one per goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nativeProcs))
	for i, o := range w.objs {
		n := nativeProcs * len(o.ops[0])
		inst, procs, elapsed, err := w.run(o, tb, parent, uint64(i))
		if err != nil {
			return st, err
		}
		st.untimed += n
		if err := conserved(o.d, o.cfg, o.ops, o.res, inst.Snapshot()); err != nil {
			st.failed += n
			return st, fmt.Errorf("%s on %d goroutines: %w", o.d.Name, nativeProcs, err)
		}
		if d := w.detail; d != nil {
			d.concurrentOps += n
			d.concurrentTime += elapsed
			for slot := range w.lat {
				for _, ns := range w.lat[slot] {
					d.latency = append(d.latency, float64(ns))
				}
			}
			for _, p := range procs {
				d.helps += p.HelpGiven
				if s := p.Stats(); s != nil {
					d.preemptions += s.Preemptions
					d.guard += s.CAS2GuardRetries
				}
			}
		}
	}
	st.distinct = len(w.sigs)
	// Uni ops take a few hundred ns and multi ops about a microsecond, so
	// the median of all ops would fall in the gap between the two
	// families and jump with small shifts of either. Each object's median
	// sits inside its own mode: report their geometric mean.
	var logSum float64
	for _, lat := range w.objLat {
		st.samples += len(lat)
		logSum += math.Log(centralMean(lat))
	}
	st.p50 = math.Exp(logSum / float64(len(w.objLat)))
	st.print = fp.Sum()
	return st, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// replay builds one object run on a fresh world and applies both slots'
// op streams from the calling goroutine, alternating slot by slot, one
// Begin/End shard window per operation. It times each operation with its
// own clock reads, signs its behaviour (opSig), and returns the instance,
// the processes and the summed operation time.
func (w *nativeWorkload) replay(o *nativeObject, tb *spanBuf, parent, unit uint64) (registry.Instance, []*native.Proc, time.Duration, error) {
	inst, procs, err := o.build(false)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tb.open("native.replay", parent, unit)
	d := w.detail
	detailed := d != nil || tb != nil
	lat := w.objLat[o.idx]
	var elapsed time.Duration
	for j := range o.ops[0] {
		for slot, p := range procs {
			op := o.ops[slot][j]
			steps := p.Counts.Steps()
			var t1, t2 time.Time
			t0 := time.Now()
			p.Begin()
			if detailed {
				t1 = time.Now()
			}
			r := inst.Apply(p, slot, op)
			if detailed {
				t2 = time.Now()
			}
			p.End()
			t3 := time.Now()
			o.res[slot][j] = r
			elapsed += t3.Sub(t0)
			lat = append(lat, t3.Sub(t0).Nanoseconds())
			w.sigs[opSig(o.idx, op, r, p.Counts.Steps()-steps)] = struct{}{}
			if tb != nil {
				u := unit<<32 | uint64(slot)<<24 | uint64(j)
				tb.add("native.Begin", sp.ID, u, t0, t1)
				tb.add("core.Apply", sp.ID, u, t1, t2)
				tb.add("native.End", sp.ID, u, t2, t3)
			}
			if d != nil {
				d.apply = append(d.apply, float64(t2.Sub(t1).Nanoseconds()))
				d.end = append(d.end, float64(t3.Sub(t2).Nanoseconds()))
				d.ops++
			}
		}
	}
	w.objLat[o.idx] = lat
	tb.close(sp)
	return inst, procs, elapsed, nil
}

// run builds one object run on a fresh world and drives it to
// quiescence on nativeProcs goroutines, returning the instance, its
// processes and the spawn-to-join time.
func (w *nativeWorkload) run(o *nativeObject, tb *spanBuf, parent, unit uint64) (registry.Instance, []*native.Proc, time.Duration, error) {
	inst, procs, err := o.build(w.obs)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tb.open("native.run", parent, unit)
	var wg sync.WaitGroup
	start := time.Now()
	for slot := range procs {
		wg.Add(1)
		gb := tb.sibling()
		go func(slot int) {
			defer wg.Done()
			w.worker(o, inst, procs[slot], slot, gb, sp.ID)
		}(slot)
	}
	wg.Wait()
	elapsed := time.Since(start)
	tb.close(sp)
	return inst, procs, elapsed, nil
}

// worker is one process goroutine: it applies the slot's op stream, one
// Begin/End shard window per operation, timing each with its own clock
// reads.
func (w *nativeWorkload) worker(o *nativeObject, inst registry.Instance, p *native.Proc, slot int, tb *spanBuf, parent uint64) {
	ops, out := o.ops[slot], o.res[slot]
	lat := w.lat[slot][:0]
	detailed := w.detail != nil || tb != nil
	var beginWait []float64
	uni := o.d.Family == registry.FamilyUni
	for j, op := range ops {
		var t1, t2 time.Time
		t0 := time.Now()
		p.Begin()
		if detailed {
			t1 = time.Now()
		}
		r := inst.Apply(p, slot, op)
		if detailed {
			t2 = time.Now()
		}
		p.End()
		t3 := time.Now()
		out[j] = r
		lat = append(lat, t3.Sub(t0).Nanoseconds())
		if tb != nil {
			unit := uint64(slot)<<32 | uint64(j)
			tb.add("native.Begin", parent, unit, t0, t1)
			tb.add("core.Apply", parent, unit, t1, t2)
			tb.add("native.End", parent, unit, t2, t3)
		}
		if detailed && uni {
			beginWait = append(beginWait, float64(t1.Sub(t0).Nanoseconds()))
		}
	}
	w.lat[slot] = lat
	if d := w.detail; d != nil {
		d.mu.Lock()
		d.beginWaitUni = append(d.beginWaitUni, beginWait...)
		d.mu.Unlock()
	}
}

// opSig signs one replayed operation's behaviour: the object, the op
// code, its argument class (the key of a set op, the word set of an MWCAS;
// queue and stack values are unique per op and left out), the outcome and
// the memory steps it took, which tell the paths through the algorithm
// apart (how far a list search walked, whether a queue was empty). The
// replay runs one operation at a time, so no step is a retry or a help,
// and the count repeats exactly at one seed.
func opSig(obj int, op registry.Op, r registry.Result, steps uint64) uint64 {
	h := cover.NewHasher()
	h.Word(uint64(obj))
	h.Word(uint64(op.Code))
	h.Word(op.Key)
	h.Word(uint64(len(op.Words)))
	for _, w := range op.Words {
		h.Word(uint64(w))
	}
	h.Word(b2u(r.OK))
	h.Word(steps)
	return h.Sum()
}
