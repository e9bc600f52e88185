package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSelectExperiments: -exp resolves to exactly one experiment or to
// all of them in run order; an unknown name and -sweepseeds below one are
// errors (the CLI exits 2 on them) instead of a run that does nothing.
func TestSelectExperiments(t *testing.T) {
	all := experimentNames()
	cases := []struct {
		exp        string
		sweepSeeds int
		want       []string // nil: an error containing wantErr
		wantErr    string
	}{
		{exp: "all", sweepSeeds: 3, want: all},
		{exp: "fig1", sweepSeeds: 3, want: []string{"fig1"}},
		{exp: "sec34", sweepSeeds: 3, want: []string{"sec34"}},
		{exp: "service", sweepSeeds: 1, want: []string{"service"}},
		{exp: "bogus", sweepSeeds: 3, wantErr: `unknown experiment "bogus" (want fig1|ext|mwcas|`},
		{exp: "", sweepSeeds: 3, wantErr: "unknown experiment"},
		{exp: "Fig1", sweepSeeds: 3, wantErr: "unknown experiment"},
		{exp: "sweep", sweepSeeds: 0, wantErr: "-sweepseeds 0"},
		{exp: "all", sweepSeeds: -1, wantErr: "-sweepseeds -1"},
	}
	for _, tc := range cases {
		sel, err := selectExperiments(tc.exp, tc.sweepSeeds)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-exp %q -sweepseeds %d: err = %v, want one containing %q", tc.exp, tc.sweepSeeds, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q -sweepseeds %d: %v", tc.exp, tc.sweepSeeds, err)
			continue
		}
		var got []string
		for _, x := range sel {
			got = append(got, x.name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-exp %q selected %v, want %v", tc.exp, got, tc.want)
		}
	}
	if len(all) != 11 || all[0] != "fig1" || all[len(all)-1] != "service" {
		t.Errorf("experiment list %v, want the 11 experiments fig1 .. service", all)
	}
}
