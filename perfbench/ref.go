package main

// Reference kernels. They live in the benchmark's own files so that no
// change to the program can change them:
//
//   - host.ref_ms times a fixed plain-Go kernel (generate, sort, hash).
//     It exercises none of the program, so when it moves between runs the
//     host moved, not the code;
//   - native.mutex_ref_ops_per_s applies the native workload's op streams
//     to plain Go data under one sync.Mutex, the in-run reference the
//     wait-free objects are compared against.

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/registry"
)

// refWords is the host kernel's input size: 512 KiB, beyond the 2-CPU
// tuning host's per-core cache, so that the kernel slows with cache
// contention from the other CPU as the workloads do (a 128 KiB kernel did
// not). refNominalMs is the kernel's typical time on that host;
// normalized metrics are scaled to it.
const (
	refWords     = 1 << 16
	refNominalMs = 10.0
)

var refBuf = make([]uint64, refWords)

// refKernelMs times one run of the host kernel, in ms.
func refKernelMs() float64 {
	start := time.Now()
	refSink = refKernel()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var refSink uint64

// refInterval is the least time between two reference samples in a
// pass; a sample takes about 4% of it.
const refInterval = 200 * time.Millisecond

// hostRef samples the reference kernel while a pass runs: tick, called
// between the pass's timed calls, runs the kernel when refInterval has
// passed since the last sample, and scale converts a call's time to the
// nominal host by the latest sample. A nil *hostRef samples nothing and
// scales by one.
type hostRef struct {
	last    time.Time
	samples []float64
}

func newHostRef() *hostRef {
	h := &hostRef{}
	h.sample()
	return h
}

func (h *hostRef) sample() {
	h.samples = append(h.samples, refKernelMs())
	h.last = time.Now()
}

func (h *hostRef) tick() {
	if h != nil && time.Since(h.last) >= refInterval {
		h.sample()
	}
}

func (h *hostRef) scale(d time.Duration) time.Duration {
	if h == nil {
		return d
	}
	return time.Duration(float64(d) * refNominalMs / h.samples[len(h.samples)-1])
}

// refKernel fills the buffer from a fixed xorshift stream, sorts it and
// folds it with FNV-1a.
func refKernel() uint64 {
	x := uint64(88172645463325252)
	for i := range refBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refBuf[i] = x
	}
	sort.Slice(refBuf, func(i, j int) bool { return refBuf[i] < refBuf[j] })
	h := uint64(14695981039346656037)
	for _, v := range refBuf {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// refStore is one object's plain-Go reference: a key set, a queue or
// stack, or a word array, guarded by one mutex.
type refStore struct {
	mu    sync.Mutex
	set   map[uint64]struct{}
	seq   []uint64
	head  int
	words []uint64
}

func newRefStore(o *nativeObject) *refStore {
	s := &refStore{set: map[uint64]struct{}{}}
	for _, k := range o.cfg.SeedKeys {
		s.set[k] = struct{}{}
	}
	s.words = make([]uint64, o.cfg.Words)
	copy(s.words, o.cfg.Initial)
	return s
}

// apply performs one operation under the mutex and reports its outcome.
func (s *refStore) apply(op registry.Op) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Code {
	case registry.OpInsert:
		if _, ok := s.set[op.Key]; ok {
			return false
		}
		s.set[op.Key] = struct{}{}
		return true
	case registry.OpDelete:
		if _, ok := s.set[op.Key]; !ok {
			return false
		}
		delete(s.set, op.Key)
		return true
	case registry.OpSearch:
		_, ok := s.set[op.Key]
		return ok
	case registry.OpEnqueue, registry.OpPush:
		s.seq = append(s.seq, op.Val)
		return true
	case registry.OpDequeue:
		if s.head == len(s.seq) {
			return false
		}
		s.head++
		return true
	case registry.OpPop:
		if len(s.seq) == s.head {
			return false
		}
		s.seq = s.seq[:len(s.seq)-1]
		return true
	case registry.OpMWCAS:
		for _, w := range op.Words {
			s.words[w] += op.Delta
		}
		return true
	}
	return false
}

// mutexRefOpsPerSec runs every object's op streams against its reference
// store from nativeProcs goroutines, reps times, and returns total
// operations per second of elapsed time.
func mutexRefOpsPerSec(w *nativeWorkload, reps int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nativeProcs))
	ops := 0
	var elapsed time.Duration
	for rep := 0; rep < reps; rep++ {
		for _, o := range w.objs {
			s := newRefStore(o)
			var wg sync.WaitGroup
			start := time.Now()
			for slot := range o.ops {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					for _, op := range o.ops[slot] {
						s.apply(op)
					}
				}(slot)
			}
			wg.Wait()
			elapsed += time.Since(start)
			ops += len(o.ops) * len(o.ops[0])
		}
	}
	return float64(ops) / elapsed.Seconds()
}
