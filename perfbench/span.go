package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the traced run: its name (layer
// first, as "registry.SweepStats"), its own id, the id of the span that
// caused it (0 for a root), the unit it belongs to (one id per schedule,
// history or operation) and its interval in ns since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Unit   uint64 `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. Each goroutine
// records into its own buffer, so recording takes no lock.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span buffer. A nil *spanBuf records nothing,
// which is how untraced passes run the same code.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf registers a new buffer for one goroutine; nil on a nil tracer.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// sibling registers another buffer on the same tracer for a goroutine
// the caller starts; nil when b is nil.
func (b *spanBuf) sibling() *spanBuf {
	if b == nil {
		return nil
	}
	return b.tr.buf()
}

// open starts a span; close records it.
func (b *spanBuf) open(name string, parent, unit uint64) span {
	if b == nil {
		return span{}
	}
	return span{Name: name, ID: b.tr.ids.Add(1), Parent: parent, Unit: unit, Start: b.now()}
}

func (b *spanBuf) close(s span) {
	if b == nil {
		return
	}
	s.End = b.now()
	b.spans = append(b.spans, s)
}

// add records a span whose interval was measured by the caller.
func (b *spanBuf) add(name string, parent, unit uint64, start, end time.Time) uint64 {
	if b == nil {
		return 0
	}
	id := b.tr.ids.Add(1)
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Unit: unit,
		Start: start.Sub(b.tr.epoch).Nanoseconds(), End: end.Sub(b.tr.epoch).Nanoseconds()})
	return id
}

func (b *spanBuf) now() int64 { return time.Since(b.tr.epoch).Nanoseconds() }

// all returns every recorded span, ordered by start time. Call it only
// after every recording goroutine has finished.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// selfTimes returns each layer's self time in ns: for every span, its
// duration minus the part of its interval that its children cover,
// summed by layer.
func selfTimes(spans []span) map[string]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans
// (kids of a native run overlap: they come from two goroutines).
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if open && start <= curEnd {
			curEnd = max(curEnd, end)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = start, end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// printSelfTimes prints the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := selfTimes(t.all())
	layers := make([]string, 0, len(self))
	var total int64
	for l, ns := range self {
		layers = append(layers, l)
		total += ns
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "perfbench: layer self time over %d spans\n", t.count())
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.2f ms  %5.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(max(total, 1)))
	}
}

// write stores every span as one JSON object per line in dir/name.jsonl
// and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
