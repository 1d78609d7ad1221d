package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"

	"kwmds"
	"kwmds/internal/fastpath"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/lp"
)

// The solve-udg100k timed loop runs in a child process of the benchmark
// (this binary, re-executed with solveChildArg first), so its CPU time and
// peak resident set are the solving program's alone, not the generator's.
const solveChildArg = "solve-child"

// childOp is one timed library call as the solve child reports it.
type childOp struct {
	Seed       int64   `json:"seed"`
	StartNS    int64   `json:"start_ns"` // unix ns
	EndNS      int64   `json:"end_ns"`
	LagNS      int64   `json:"lag_ns"`
	CPUNS      int64   `json:"cpu_ns"`
	Size       int     `json:"size"`
	LP         float64 `json:"lp"`
	Members    uint64  `json:"members"`
	Dominating bool    `json:"dominating"`
	Traced     bool    `json:"traced"`
}

// childReport is the solve child's whole output.
type childReport struct {
	SetupMS    []float64 `json:"setup_ms"`
	Ops        []childOp `json:"ops"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	GCCycles   uint32    `json:"gc_cycles"`
	GCMaxPause float64   `json:"gc_max_pause_ms"`
}

// solveChildMain opens the graph like a library user would (mapped open +
// structure verification, repeated for the set-up figure), then runs the
// closed loop: one caller, kwmds.DominatingSet on the fastpath, k = 3, a
// fresh seed per op. Each result is checked outside the timed interval.
func solveChildMain(args []string) int {
	fs := flag.NewFlagSet(solveChildArg, flag.ContinueOnError)
	path := fs.String("graph", "", "kwcsr container")
	seconds := fs.Float64("seconds", 10, "timed loop length")
	seed := fs.Int64("seed", 1, "workload seed")
	reps := fs.Int("setup-reps", 9, "set-up repetitions")
	trace := fs.Bool("trace", false, "mark ops in odd seconds as traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var rep childReport
	var m *graphio.MappedGraph
	for r := 0; r < *reps; r++ {
		if m != nil {
			m.Close()
		}
		t0 := time.Now()
		var err error
		if m, err = graphio.OpenMapped(*path); err == nil {
			err = m.VerifyStructure()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "solve child:", err)
			return 1
		}
		rep.SetupMS = append(rep.SetupMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	defer m.Close()
	g := m.Graph()
	// Warm the solver pool: lazy set-up a long-running caller pays once.
	if _, err := kwmds.DominatingSet(g, kwmds.Options{K: solveK, Seed: -1, Sequential: true, SolverWorkers: solverWorkers}); err != nil {
		fmt.Fprintln(os.Stderr, "solve child:", err)
		return 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	origin := time.Now()
	deadline := origin.Add(time.Duration(*seconds * float64(time.Second)))
	due := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		opts := kwmds.Options{K: solveK, Seed: opSeed(*seed, i), Sequential: true, SolverWorkers: solverWorkers}
		cpu0 := selfCPU()
		start := time.Now()
		res, err := kwmds.DominatingSet(g, opts)
		end := time.Now()
		cpu1 := selfCPU()
		if err != nil {
			fmt.Fprintln(os.Stderr, "solve child:", err)
			return 1
		}
		rep.Ops = append(rep.Ops, childOp{
			Seed: opts.Seed, StartNS: start.UnixNano(), EndNS: end.UnixNano(),
			LagNS: start.Sub(due).Nanoseconds(), CPUNS: (cpu1 - cpu0).Nanoseconds(),
			Size: res.Size, LP: res.LPObjective, Members: hashMembers(graph.Members(res.InDS)),
			Dominating: g.IsDominatingSet(res.InDS),
			Traced:     *trace && int(start.Sub(origin)/time.Second)%2 == 1,
		})
		due = time.Now()
	}
	runtime.ReadMemStats(&after)
	rep.GCCycles = after.NumGC - before.NumGC
	// PauseNs keeps the last 256 pauses; cycle c's is at (c+255)%256.
	for c := max(before.NumGC+1, after.NumGC-min(after.NumGC, 255)); c <= after.NumGC; c++ {
		rep.GCMaxPause = math.Max(rep.GCMaxPause, float64(after.PauseNs[(c+255)%256])/1e6)
	}
	var err error
	if rep.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		fmt.Fprintln(os.Stderr, "solve child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(&rep); err != nil {
		return 1
	}
	return 0
}

// runSolveChild runs the timed loop in a child and returns its report.
func runSolveChild(cfg config, w workload, in *inputs) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, solveChildArg, "-graph", in.Path, "-seconds", fmt.Sprint(cfg.seconds),
		"-seed", fmt.Sprint(cfg.seed), "-setup-reps", fmt.Sprint(w.SetupReps), "-trace="+fmt.Sprint(cfg.trace))
	cmd.SysProcAttr = childAttr()
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("solve child exited early: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("solve child output: %w", err)
	}
	if len(rep.Ops) == 0 {
		return nil, fmt.Errorf("solve child completed no solves")
	}
	return &rep, nil
}

// checkSolves verifies the child's answers: every set was checked to
// dominate the graph in the child, and the first, middle and last ops are
// re-solved here on an unpooled fastpath solver and compared bit for bit.
func (c *checker) checkSolves(g *graph.Graph, ops []childOp) error {
	for i, o := range ops {
		if !o.Dominating {
			c.fail("op %d (seed %d): returned set does not dominate the graph", i, o.Seed)
		}
	}
	s := fastpath.New()
	for _, i := range []int{0, len(ops) / 2, len(ops) - 1} {
		o := ops[i]
		res, err := s.Solve(g, fastpath.Options{K: solveK, Seed: o.Seed, Workers: solverWorkers})
		if err != nil {
			return err
		}
		if res.Size != o.Size || math.Float64bits(lp.Objective(res.X)) != math.Float64bits(o.LP) ||
			hashMembers(graph.Members(res.InDS)) != o.Members {
			c.fail("op %d (seed %d): library answer differs from a fresh fastpath solve", i, o.Seed)
		}
	}
	return nil
}
