package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/registry"
)

// TestSelectSuites: every mode resolves -suite to the suites it covers, and
// each flag combination a mode would silently ignore — or a value that
// would check nothing, like -linz -rand 0 — is an error (the CLI exits 1
// on them) instead of a vacuous pass.
func TestSelectSuites(t *testing.T) {
	core := registry.CoreNames()
	sweepAll := append(append([]string(nil), core...), "workload")
	cases := []struct {
		name    string
		o       options
		want    []string // nil: an error containing wantErr
		wantErr string
	}{
		{name: "sweep all", o: options{suite: "all"}, want: sweepAll},
		{name: "sweep one", o: options{suite: "uniqueue"}, want: []string{"uniqueue"}},
		{name: "sweep workload", o: options{suite: "workload"}, want: []string{"workload"}},
		{name: "sweep off-default skips workload", o: options{suite: "all", policy: "fcfs"}, want: core},
		{name: "sweep arrival skips workload", o: options{suite: "all", arrival: "bursty"}, want: core},
		{name: "sweep one off-default", o: options{suite: "unilist", policy: "age-slo", arrival: "bursty"}, want: []string{"unilist"}},
		{name: "unknown policy", o: options{suite: "all", policy: "edf"}, wantErr: `unknown policy "edf"`},
		{name: "unknown arrival", o: options{suite: "all", arrival: "bogus"}, wantErr: `unknown trace "bogus"`},
		{name: "unknown suite", o: options{suite: "bogus"}, wantErr: `unknown suite "bogus" (have [`},
		{name: "baseline is no sweep suite", o: options{suite: "locklist"}, wantErr: `unknown suite "locklist"`},
		{name: "workload off-default", o: options{suite: "workload", policy: "fcfs"}, wantErr: "the workload suite drives its own scheduler config"},
		{name: "linz all", o: options{suite: "all", linz: true, randN: 5}, want: registry.Names()},
		{name: "linz baseline", o: options{suite: "locklist", linz: true, randN: 5}, want: []string{"locklist"}},
		{name: "linz policy", o: options{suite: "all", linz: true, randN: 5, policy: "reverse-priority"}, want: registry.Names()},
		{name: "linz unknown object", o: options{suite: "bogus", linz: true, randN: 5}, wantErr: `unknown object "bogus"`},
		{name: "linz rand 0", o: options{suite: "all", linz: true, randN: 0}, wantErr: "-rand 0"},
		{name: "linz rand negative", o: options{suite: "uniqueue", linz: true, randN: -3}, wantErr: "-rand -3"},
		{name: "linz arrival", o: options{suite: "all", linz: true, randN: 5, arrival: "bursty"}, wantErr: "-arrival shapes the sweep cast"},
		{name: "linz swarm", o: options{suite: "all", linz: true, swarm: true, randN: 5, budget: 10}, wantErr: "-swarm samples the sweep space"},
		{name: "swarm all", o: options{suite: "all", swarm: true, budget: 10}, want: core},
		{name: "swarm one", o: options{suite: "multiqueue", swarm: true, budget: 10}, want: []string{"multiqueue"}},
		{name: "swarm policy", o: options{suite: "all", swarm: true, budget: 10, policy: "fcfs"}, wantErr: "-swarm spans every policy and arrival template"},
		{name: "swarm arrival", o: options{suite: "all", swarm: true, budget: 10, arrival: "bursty"}, wantErr: "-swarm spans every policy and arrival template"},
		{name: "swarm workload", o: options{suite: "workload", swarm: true, budget: 10}, wantErr: `-swarm covers the core objects (have [`},
		{name: "swarm budget 0", o: options{suite: "all", swarm: true}, wantErr: "-swarm needs a positive -budget"},
	}
	for _, tc := range cases {
		got, err := selectSuites(tc.o)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: suites %v, want %v", tc.name, got, tc.want)
		}
	}
}
