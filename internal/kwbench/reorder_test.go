package kwbench

import (
	"strings"
	"testing"
)

// TestRunReorderSched runs the memory-locality knobs end to end: a reordered
// closed loop under both scheduler modes, with the per-op sim cross-check on
// — the harness-level enforcement that relabeling and scheduling never change
// an output.
func TestRunReorderSched(t *testing.T) {
	for _, sched := range []string{"steal", "fixed"} {
		sc := &Scenario{
			Name:       "test-reorder-" + sched,
			Driver:     DriverInprocFast,
			Graphs:     []GraphSpec{{Gen: "ba:300:3:9", Name: "ba-300"}},
			Matrix:     Matrix{Algos: []string{"kw", "kw2"}},
			Closed:     &ClosedLoop{Concurrency: 2, Ops: 16},
			Seeds:      4,
			Reorder:    true,
			Sched:      sched,
			CrossCheck: true,
		}
		res, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatalf("sched=%s: %v", sched, err)
		}
		checkCommon(t, res, 16)
		if res.CrossChecked != 16 || res.Mismatches != 0 {
			t.Errorf("sched=%s: cross-checked %d with %d mismatches", sched, res.CrossChecked, res.Mismatches)
		}
	}
}

func TestReorderSchedSpecValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:   "v",
			Driver: DriverInprocFast,
			Graphs: []GraphSpec{{Gen: "ba:100:2:1"}},
			Closed: &ClosedLoop{Concurrency: 1, Ops: 4},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"bad sched", func(sc *Scenario) { sc.Sched = "guided" }, "unknown sched"},
		{"sched on sim driver", func(sc *Scenario) { sc.Driver = DriverInprocSim; sc.Sched = "fixed" }, "require the inproc-fast driver"},
		{"reorder on http driver", func(sc *Scenario) { sc.Driver = DriverHTTPServe; sc.Reorder = true }, "require the inproc-fast driver"},
		{"reorder with kwcds", func(sc *Scenario) { sc.Reorder = true; sc.Matrix.Algos = []string{"kwcds"} }, "kw|kw2|frac"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	good := base()
	good.Reorder, good.Sched = true, "steal"
	if err := good.Validate(); err != nil {
		t.Fatalf("valid reorder+steal spec rejected: %v", err)
	}
}
