package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kwmds/internal/fastpath"
	"kwmds/internal/gen"
	"kwmds/internal/graphio"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// solve workload re-executes itself as its solving child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == solveChildArg {
		os.Exit(solveChildMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeSized shrinks a workload to a few seconds' worth of work.
func smokeSized(w workload) workload {
	w.N, w.Radius = 2000, 0.05
	w.Rate = min(w.Rate, 300)
	w.WarmSeconds = 0.2
	w.Keys = min(w.Keys, 8)
	w.PreMutates = min(w.PreMutates, 8)
	w.SetupReps, w.LayerReps, w.HandlerOps = 2, 4, min(w.HandlerOps, 40)
	return w
}

// TestSmokeAllWorkloads runs every workload at smoke size, untraced and
// traced, against a kwmds binary built from this checkout, and requires a
// complete, all-correct result line from each.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds kwmds and spawns servers")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kwmds")
	if out, err := exec.Command("go", "build", "-o", bin, "kwmds/cmd/kwmds").CombinedOutput(); err != nil {
		t.Fatalf("building kwmds: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := smokeSized(w), trace
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 7, seconds: 2, trace: trace, kwmds: bin, workdir: t.TempDir(), conns: 2}
				rep, err := run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Wrong != 0 || rep.Errors != 0 || rep.Sheds != 0 {
					t.Fatalf("%d wrong, %d errors, %d sheds: %v", rep.Wrong, rep.Errors, rep.Sheds, rep.Notes)
				}
				line, err := resultLine(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(line, `{"correct":true,`) {
					t.Fatalf("result line %s", line)
				}
			})
		}
	}
}

// TestChecksCatchWrongAnswers feeds the serve-read check a served answer
// that disagrees with the in-process solve in each compared field.
func TestChecksCatchWrongAnswers(t *testing.T) {
	g, err := gen.UnitDisk(500, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := solveOp(42, 3, true)
	var c checker
	refs, err := c.references(fastpath.New(), g, []refKey{{o.Seed, o.K}})
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[refKey{o.Seed, o.K}]
	digest := graphio.Digest(g)
	good := sample{Status: 200, Digest: digest, Size: ref.size, LP: ref.lp, Members: true, MembersHash: ref.members}
	if _, err := c.checkRead(g, []phase{{ops: []op{o}, samples: []sample{good}}}); err != nil || c.wrong != 0 {
		t.Fatalf("a correct answer was flagged: %v %v", err, c.notes)
	}
	for name, mutate := range map[string]func(*sample){
		"size":    func(s *sample) { s.Size++ },
		"lp":      func(s *sample) { s.LP = math.Nextafter(ref.lp, math.Inf(1)) },
		"members": func(s *sample) { s.MembersHash++ },
		"digest":  func(s *sample) { s.Digest = "00" },
		"epoch":   func(s *sample) { s.Epoch = 1 },
		"missing": func(s *sample) { s.Members = false },
	} {
		bad := good
		mutate(&bad)
		var c checker
		if _, err := c.checkRead(g, []phase{{ops: []op{o}, samples: []sample{bad}}}); err != nil {
			t.Fatal(err)
		}
		if c.wrong != 1 {
			t.Errorf("%s: wrong answer counted %d times, want 1", name, c.wrong)
		}
	}
}
