package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
)

// tinyWorkloads builds every workload at a tiny size.
func tinyWorkloads(t *testing.T, seed int64) map[string]workload {
	t.Helper()
	uni, err := newSweep(registry.FamilyUni, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := newSweep(registry.FamilyMulti, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := newLinz(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := newNative(seed, 40, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload{"sweep-uni": uni, "sweep-multi": multi, "linz": lz, "native": nat}
}

func TestCountsRepeatAtOneSeedAndInputsDifferAtAnother(t *testing.T) {
	a, b, c := tinyWorkloads(t, 3), tinyWorkloads(t, 3), tinyWorkloads(t, 4)
	for name := range a {
		sa, err := a[name].pass(nil, 0, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb, err := b[name].pass(nil, 0, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, err := c[name].pass(nil, 0, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sa.units != sb.units || sa.failed != 0 || sb.failed != 0 {
			t.Errorf("%s: units %d/%d failed %d/%d at one seed", name, sa.units, sb.units, sa.failed, sb.failed)
		}
		if sw, ok := a[name].(*sweepWorkload); ok {
			sb, sc := b[name].(*sweepWorkload), c[name].(*sweepWorkload)
			if !reflect.DeepEqual(sw.scripts, sb.scripts) || reflect.DeepEqual(sw.scripts, sc.scripts) {
				t.Errorf("%s: op streams must repeat at one seed and differ at another", name)
			}
		}
		if lw, ok := a[name].(*linzWorkload); ok {
			lb, lc := b[name].(*linzWorkload), c[name].(*linzWorkload)
			if !reflect.DeepEqual(lw.scripts, lb.scripts) || reflect.DeepEqual(lw.scripts, lc.scripts) {
				t.Errorf("linz: op streams must repeat at one seed and differ at another")
			}
		}
		if na, ok := a[name].(*nativeWorkload); ok {
			nb, nc := b[name].(*nativeWorkload), c[name].(*nativeWorkload)
			if !reflect.DeepEqual(na.objs[0].ops, nb.objs[0].ops) {
				t.Errorf("native: op streams differ at one seed")
			}
			if reflect.DeepEqual(na.objs[0].ops, nc.objs[0].ops) {
				t.Errorf("native: op streams equal at seeds 3 and 4")
			}
			if sa.untimed != sa.units {
				t.Errorf("native: %d ops replayed, %d run on goroutines", sa.units, sa.untimed)
			}
		}
		if sa.print != sb.print || sa.distinct != sb.distinct {
			t.Errorf("%s: outputs differ at one seed (%#x/%#x, %d/%d distinct)", name, sa.print, sb.print, sa.distinct, sb.distinct)
		}
		if sa.print == sc.print {
			t.Errorf("%s: seeds 3 and 4 produced identical outputs", name)
		}
	}
}

// TestNativeDistinctVariesWithSeed runs full native passes at two seeds.
// A pass's op count is fixed, so equal distinct counts would make
// norm_distinct_per_s a fixed multiple of norm_work_per_s; signatures
// without the step count saturated at the same count at every seed.
func TestNativeDistinctVariesWithSeed(t *testing.T) {
	var distinct []int
	for _, seed := range []int64{3, 4} {
		w, err := newNative(seed, nativeOps, nativeStreams, false)
		if err != nil {
			t.Fatal(err)
		}
		st, err := w.pass(nil, 0, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		distinct = append(distinct, st.distinct)
	}
	if distinct[0] == distinct[1] {
		t.Fatalf("native: %d distinct behaviours per pass at seeds 3 and 4", distinct[0])
	}
}

var printGolden = flag.Bool("golden", false, "print the sweepGolden table for --seed 0..goldenSeeds-1")

const goldenSeeds = 64

// TestSweepGolden checks sweepGolden covers every core object at the
// workloads' pass sizes; with -golden it prints the table instead.
func TestSweepGolden(t *testing.T) {
	if !*printGolden {
		for _, d := range append(family(registry.FamilyUni), family(registry.FamilyMulti)...) {
			g, ok := sweepGolden[d.Name]
			want := uniSeedsPerPass
			if d.Family == registry.FamilyMulti {
				want = multiSeedsPerPass
			}
			if !ok || g.perPass != want || len(g.distinct) != goldenSeeds {
				t.Errorf("%s: golden row %+v, want %d seeds at %d sweep seeds per pass", d.Name, g, goldenSeeds, want)
			}
		}
		return
	}
	rows := map[string][]int{}
	for _, f := range []struct {
		fam     registry.Family
		perPass int
	}{{registry.FamilyMulti, multiSeedsPerPass}, {registry.FamilyUni, uniSeedsPerPass}} {
		for seed := int64(0); seed < goldenSeeds; seed++ {
			w, err := newSweep(f.fam, seed, f.perPass)
			if err != nil {
				t.Fatal(err)
			}
			w.golden = nil
			for i, d := range w.descs {
				one := &sweepWorkload{seeds: w.seeds, descs: w.descs[i : i+1], space: w.space[i : i+1], objTime: make([]time.Duration, 1)}
				st, err := one.pass(nil, 0, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				rows[d.Name] = append(rows[d.Name], st.distinct)
			}
		}
	}
	var names []string
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		per := uniSeedsPerPass
		if strings.HasPrefix(name, "multi") {
			per = multiSeedsPerPass
		}
		fmt.Printf("\t%q: {%d, []int{", name, per)
		for i, n := range rows[name] {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(n)
		}
		fmt.Println("}},")
	}
}

func TestSweepGoldenCatchesDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a full sweep-multi pass")
	}
	w, err := newSweep(registry.FamilyMulti, 2, multiSeedsPerPass)
	if err != nil {
		t.Fatal(err)
	}
	if w.golden == nil {
		t.Fatal("seed 2 is not pinned")
	}
	w.golden[len(w.golden)-1]++
	if _, err := w.pass(nil, 0, nil, false); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("pass with a drifted pin: %v, want a pinned-count mismatch", err)
	}
}

func TestSweepGoldenAtSeedZero(t *testing.T) {
	w, err := newSweep(registry.FamilyUni, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.pass(nil, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := 36 + 64 + 37 + 14 + 60; st.distinct != want || st.units != 1200 {
		t.Fatalf("uni sweep at seed 1: %d distinct of %d, want %d of 1200", st.distinct, st.units, want)
	}
}

// runResult runs the benchmark command in-process and decodes its last
// output line.
func runResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := benchMain(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("%v: result %+v", args, r)
	}
	return r
}

// noCopies fails when two metrics of one result carry the same value.
func noCopies(t *testing.T, label string, r result) {
	t.Helper()
	seen := map[float64]string{}
	for name, m := range r.Metrics {
		if m.Value == 0 {
			continue
		}
		if other, ok := seen[m.Value]; ok {
			t.Errorf("%s: %s and %s both report %v", label, name, other, m.Value)
		}
		seen[m.Value] = name
	}
}

func TestEveryWorkloadReportsDistinctEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		r := runResult(t, "--workload", w.name, "--seed", "1", "--seconds", "1")
		if err := checkNames(r.Metrics, endToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		noCopies(t, w.name, r)
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer battery")
	}
	dir := t.TempDir()
	r := runResult(t, "--workload", "linz", "--seed", "2", "--seconds", "1", "--trace", "1", "--spans", dir)
	if err := checkNames(r.Metrics, perLayer()); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer() {
		if r.Metrics[d.name].Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, r.Metrics[d.name].Unit, d.unit)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "linz-seed2.jsonl")); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, code has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d in the code", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: listed %+v, code has %+v", i, e, d)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics listed, %d in the code", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: listed %+v, code has %+v", i, e, d)
		}
	}
}

func TestOraclesCatchCorruption(t *testing.T) {
	w, err := newNative(5, 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range w.objs {
		inst, _, _, err := w.run(o, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		snap := inst.Snapshot()
		if err := conserved(o.d, o.cfg, o.ops, o.res, snap); err != nil {
			t.Fatalf("%s: clean run rejected: %v", o.d.Name, err)
		}
		// Report one successful state-changing operation as failed.
		flipped := false
		for slot := range o.res {
			for i, r := range o.res[slot] {
				if r.OK && o.ops[slot][i].Code != registry.OpSearch && !flipped {
					o.res[slot][i].OK, flipped = false, true
				}
			}
		}
		if !flipped {
			t.Fatalf("%s: no successful update to corrupt", o.d.Name)
		}
		if err := conserved(o.d, o.cfg, o.ops, o.res, snap); err == nil {
			t.Errorf("%s: oracle accepted a lost update", o.d.Name)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 30 (10..40) + 10 (90..100)", got)
	}
	self := selfTimes([]span{{Name: "a.x", ID: 1, Start: 0, End: 100}, {Name: "b.y", ID: 2, Parent: 1, Start: 10, End: 40}})
	if self["a"] != 70 || self["b"] != 30 {
		t.Fatalf("self times %v, want a=70 b=30", self)
	}
}

func TestCompareShowsWhichLayerMoved(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, work, slice float64) string {
		p := filepath.Join(dir, name)
		e2e, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"norm_work_per_s": {work, "1/s"}}})
		layer, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"sched.slice_ns": {slice, "ns"}}})
		if err := os.WriteFile(p, []byte("noise\n"+string(e2e)+"\n"+string(layer)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{write("old", 1000, 10), write("new", 700, 14)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"-- end-to-end", "REGRESSION (bound 25%)", "-- per-layer: sched", "+40.00%  worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
