package main

// Compare mode: given two files holding benchmark output (one or more
// runs each; every line that parses as a result object counts), print
// each metric's median in both and the change, end-to-end metrics first,
// then the per-layer metrics grouped by layer, so a reader can see which
// layer moved.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW (files of benchmark output lines)")
		return 2
	}
	old, err := readResults(args[0])
	if err == nil {
		var cur map[string][]float64
		cur, err = readResults(args[1])
		if err == nil {
			writeComparison(stdout, old, cur)
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 1
}

// readResults collects every metric value from the result lines of a file.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return values, nil
}

// writeComparison prints one row per metric present in either file.
func writeComparison(w io.Writer, old, cur map[string][]float64) {
	defs := map[string]metricDef{}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		defs[d.name], e2e[d.name] = d, true
	}
	for _, d := range perLayer() {
		defs[d.name] = d
	}
	var names []string
	seen := map[string]bool{}
	for _, m := range []map[string][]float64{old, cur} {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if e2e[a] != e2e[b] {
			return e2e[a]
		}
		return a < b
	})
	fmt.Fprintf(w, "%-38s %-6s %14s %14s %9s  %s\n", "metric", "unit", "old", "new", "change", "verdict")
	section := ""
	for _, name := range names {
		s := "per-layer: " + layerOf(name)
		if e2e[name] {
			s = "end-to-end"
		}
		if s != section {
			section = s
			fmt.Fprintf(w, "-- %s\n", section)
		}
		d := defs[name]
		o, n := old[name], cur[name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-38s %-6s %14s %14s %9s  %s\n", name, d.unit, fmtMedian(o), fmtMedian(n), "", "only in one file")
			continue
		}
		mo, mn := median(o), median(n)
		change := 0.0
		if mo != 0 {
			change = (mn - mo) / mo
		}
		fmt.Fprintf(w, "%-38s %-6s %14.6g %14.6g %+8.2f%%  %s\n", name, d.unit, mo, mn, 100*change, verdict(d, e2e[name], change))
	}
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g", median(xs))
}

// verdict reads a change by the metric's direction and, end to end, by
// its bound.
func verdict(d metricDef, e2e bool, change float64) string {
	worse := change
	switch d.better {
	case "higher":
		worse = -change
	case "lower":
	default:
		return "unknown metric"
	}
	switch {
	case e2e && worse > d.bound:
		return fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*d.bound)
	case worse > 0:
		return "worse"
	case worse < 0:
		return "better"
	}
	return "same"
}
