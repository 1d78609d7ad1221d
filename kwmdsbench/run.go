package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"kwmds"
	"kwmds/internal/lp"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	kwmds   string // server binary
	workdir string // everything the run writes goes under here
	conns   int    // client goroutines and connections
}

// lagLimit is how far behind its schedule the load generator may run (p99)
// before a serve run is declared invalid rather than slow.
const lagLimit = 250 * time.Millisecond

// invalidError marks a run whose numbers must not be used: the load
// generator fell behind or a child exited early.
type invalidError struct{ reason string }

func (e *invalidError) Error() string { return "run invalid: " + e.reason }

// run executes one workload and returns its report.
func run(cfg config, w workload) (*report, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := generate(w, cfg.seed, cfg.seconds, dir)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := &report{Workload: w.Name, Trace: cfg.trace}
	if w.Serve {
		err = runServe(cfg, w, in, tr, dir, rep)
	} else {
		err = runSolve(cfg, w, in, tr, dir, rep)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.SpansFile = path
	}
	return rep, nil
}

// latencyMetrics derives the end-to-end latency figures from per-op
// latencies in ms: median, the tail percentile (p99 when ten samples lie
// beyond it, else the highest percentile that has ten beyond) and p99
// itself when reportable.
func latencyMetrics(rep *report, prefix string, ms []float64) {
	s := sorted(ms)
	n := len(s)
	rep.add(prefix+"_p50_ms", "ms", median(s), fmt.Sprintf("n=%d", n))
	if q, ok := tailQuantile(n); ok {
		rep.add(prefix+"_tail_ms", "ms", quantile(s, q), fmt.Sprintf("p%.4g, n=%d, %d beyond", 100*q, n, beyond(n, q)))
	}
	if p99Reportable(n) {
		rep.add(prefix+"_p99_ms", "ms", quantile(s, 0.99), fmt.Sprintf("n=%d", n))
	} else {
		rep.omit(prefix+"_p99_ms", fmt.Sprintf("only %d samples, fewer than 10 beyond p99", n))
	}
}

// stealNote explains host_steal_frac, which describes the machine, not the
// program: wall-clock figures of a run with high steal are the host's.
const stealNote = "CPU time the hypervisor took from this VM during the timed phase (not a program metric)"

// overhead is the traced arm's median over the untraced arm's, minus one.
func overhead(traced, untraced []float64) float64 {
	return median(traced)/median(untraced) - 1
}

func runSolve(cfg config, w workload, in *inputs, tr *tracer, dir string, rep *report) error {
	clientCPU0 := selfCPU()
	steal0, total0 := stealTicks()
	child, err := runSolveChild(cfg, w, in)
	if err != nil {
		return &invalidError{err.Error()}
	}
	steal := stealSince(steal0, total0)
	clientCPU := selfCPU() - clientCPU0
	var c checker
	if err := c.checkSolves(in.G, child.Ops); err != nil {
		return err
	}
	rep.Attempted, rep.Wrong, rep.Notes = len(child.Ops), c.wrong, c.notes

	var lat, latTraced, lags, sizes []float64
	var busy, cpu time.Duration
	for _, o := range child.Ops {
		d := time.Duration(o.EndNS - o.StartNS)
		busy += d
		cpu += time.Duration(o.CPUNS)
		lags = append(lags, float64(o.LagNS)/1e6)
		sizes = append(sizes, float64(o.Size))
		if o.Traced {
			latTraced = append(latTraced, float64(d)/1e6)
			tr.record("kwmds.DominatingSet", 0, o.Seed, time.Unix(0, o.StartNS), time.Unix(0, o.EndNS))
		} else {
			lat = append(lat, float64(d)/1e6)
		}
	}
	n := float64(len(child.Ops))
	latencyMetrics(rep, "solve", lat)
	rep.add("solves_per_s", "1/s", n/busy.Seconds(), "one caller, time inside DominatingSet")
	rep.add("cpu_ms_per_op", "ms", float64(cpu.Nanoseconds())/1e6/n, "solving process CPU")
	rep.add("setup_s", "s", median(child.SetupMS)/1000, fmt.Sprintf("median of %d mapped open + verify", len(child.SetupMS)))
	rep.add("peak_rss_mb", "MB", child.PeakRSSMB, "solving process VmHWM")
	rep.add("ds_ratio", "ratio", mean(sizes)/lp.DegreeLowerBound(in.G), "")
	rep.add("host_steal_frac", "ratio", steal, stealNote)

	if !cfg.trace {
		return nil
	}
	var solves []kwmds.Options
	var bodies [][]byte
	var handler []op
	for i := 0; i < w.LayerReps; i++ {
		o := solveOp(opSeed(cfg.seed, i), solveK, false)
		solves = append(solves, kwmds.Options{K: solveK, Seed: o.Seed, Sequential: true, SolverWorkers: solverWorkers})
		bodies = append(bodies, o.Body)
		if i < w.HandlerOps {
			handler = append(handler, o)
		}
	}
	st, err := replayLayers(tr, layerInputs{g: in.G, kwcsr: in.Path, solves: solves, bodies: bodies,
		handler: handler, toggles: in.Toggles, batch: 1, reps: w.LayerReps}, dir)
	if err != nil {
		return err
	}
	addLayers(rep, st, layerContext{
		gcCycles:   float64(child.GCCycles),
		gcMaxPause: child.GCMaxPause,
		e2eP50MS:   median(lat),
		layersMS:   []float64{st.solveMS},
		hitRatio:   ratio(float64(st.hits), float64(st.hits+st.misses)),
		hitBase:    fmt.Sprintf("in-process handler: %d hits / %d lookups", st.hits, st.hits+st.misses),
		batchMean:  ratio(float64(st.batched), float64(st.batches)),
		sheds:      float64(st.sheds),
		fsyncs:     st.fsyncsPerAppend,
		walSource:  "in-process log of the toggles",
		recoveryMS: st.recoveryMS,
		lagP99MS:   quantile(sorted(lags), 0.99),
		clientCPU:  float64(clientCPU.Nanoseconds()) / 1e6 / n,
		ops:        n,
		overhead:   overhead(latTraced, lat),
	})
	return nil
}

// layerContext carries the figures addLayers takes from the timed phase.
type layerContext struct {
	// GC cycles and the longest stop-the-world pause of the program.
	gcCycles, gcMaxPause float64
	e2eP50MS             float64
	layersMS             []float64 // layer medians on the end-to-end path
	hitRatio             float64
	hitBase              string
	batchMean            float64
	sheds                float64
	fsyncs               float64
	walSource            string // where fsyncs and recoveryMS were read
	recoveryMS           float64
	lagP99MS             float64
	clientCPU            float64 // ms per op
	ops                  float64
	overhead             float64
}

// addLayers records every per-layer metric.
func addLayers(rep *report, st layerStats, lc layerContext) {
	facade := st.solveMS - st.lpMS - st.roundMS
	rep.layer("fastpath.lp_ms", "ms", st.lpMS, "Solver.Fractional")
	rep.layer("fastpath.round_ms", "ms", st.roundMS, "Solver.Round")
	rep.layer("kwmds.facade_ms", "ms", facade, fmt.Sprintf("DominatingSet %.4g ms minus LP and rounding", st.solveMS))
	rep.layer("fastpath.batch_ms", "ms", st.batchMS, "one DominatingSetMany call")
	rep.layer("fastpath.allocs_per_solve", "count", st.allocsPerSolve, "DominatingSet")
	rep.layer("fastpath.bytes_per_solve", "bytes", st.bytesPerSolve, "DominatingSet")
	rep.layer("runtime.gc_cycles_per_kop", "1/kop", 1000*lc.gcCycles/lc.ops, fmt.Sprintf("%.0f cycles over %.0f ops", lc.gcCycles, lc.ops))
	rep.layer("runtime.gc_pause_ms", "ms", lc.gcMaxPause, "longest stop-the-world pause in the timed phase")
	rep.layer("graphio.open_ms", "ms", st.openMS, "OpenMapped + VerifyStructure")
	rep.layer("graphio.decode_us", "us", st.decodeUS, "DecodeSolveRequest")
	rep.layer("graphio.digest_ms", "ms", st.digestMS, "Digest of each new epoch")
	rep.layer("server.handler_us_p50", "us", st.handlerP50US, "in-process ServeHTTP, solves")
	rep.layer("server.handler_us_p99", "us", st.handlerP99US, "in-process ServeHTTP, solves")
	var sum float64
	for _, l := range lc.layersMS {
		sum += l
	}
	rep.layer("unattributed_us", "us", 1000*unattributed(lc.e2eP50MS, lc.layersMS...),
		fmt.Sprintf("solve_p50 %.4g ms minus layers %.4g ms", lc.e2eP50MS, sum))
	rep.layer("server.cache_hit_ratio", "ratio", lc.hitRatio, lc.hitBase)
	rep.layer("server.batch_size_mean", "count", lc.batchMean, "batched solves / batches")
	rep.layer("server.sheds", "count", lc.sheds, "429 answers")
	rep.layer("dyngraph.commit_ms", "ms", st.commitMS, "ApplyEdgeDeltas + Commit")
	rep.layer("wal.append_ms", "ms", st.appendMS, "Log.Append with sync")
	rep.layer("wal.fsyncs_per_append", "ratio", lc.fsyncs, lc.walSource)
	rep.layer("wal.recovery_ms", "ms", lc.recoveryMS, lc.walSource)
	rep.layer("loadgen.lag_p99_ms", "ms", lc.lagP99MS, "send time minus due time")
	rep.layer("loadgen.cpu_ms_per_op", "ms", lc.clientCPU, "benchmark process CPU")
	rep.layer("trace.overhead_frac", "ratio", lc.overhead, "traced over untraced solve_p50, minus 1")
}

// msOf returns the latencies (ms) of ok samples of kind whose traced flag
// equals traced.
func msOf(ss []sample, kind opKind, traced bool) []float64 {
	var out []float64
	for i := range ss {
		if s := &ss[i]; s.ok() && s.Kind == kind && s.Traced == traced {
			out = append(out, float64(s.Lat)/1e6)
		}
	}
	return out
}

func runServe(cfg config, w workload, in *inputs, tr *tracer, dir string, rep *report) error {
	args := []string{"-preload", graphName + "=" + in.Path}
	if w.Durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	}
	client := newClient(cfg.conns)
	var phases []phase
	var setups []float64
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	if len(in.Pre) > 0 {
		// Fresh start, then the untimed mutates the restarts recover.
		p, err := startServer(cfg.kwmds, args, false)
		if err != nil {
			return err
		}
		srv = p
		phases = append(phases, phase{ops: in.Pre, samples: sequential(client, p.url(""), in.Pre)})
		if err := p.stop(); err != nil {
			return &invalidError{err.Error()}
		}
		srv = nil
	}
	for r := 0; r < w.SetupReps; r++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return &invalidError{err.Error()}
			}
		}
		p, err := startServer(cfg.kwmds, args, cfg.trace)
		srv = p
		if err != nil {
			return err
		}
		setups = append(setups, p.setup.Seconds())
		client.CloseIdleConnections()
	}
	base := srv.url("")
	if len(in.Fill) > 0 {
		phases = append(phases, phase{ops: in.Fill, samples: sequential(client, base, in.Fill)})
	}
	phases = append(phases, phase{ops: in.Warm, samples: openLoop(client, base, in.Warm, w.Rate, cfg.conns, nil, false)})

	before, err := scrape(srv)
	if err != nil {
		return err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	clientCPU0 := selfCPU()
	steal0, total0 := stealTicks()
	t0 := time.Now()
	timed := openLoop(client, base, in.Timed, w.Rate, cfg.conns, tr, cfg.trace)
	t1 := time.Now()
	steal := stealSince(steal0, total0)
	clientCPU := selfCPU() - clientCPU0
	cpu1, err1 := cpuSeconds(pid)
	after, err2 := scrape(srv)
	rss, err3 := peakRSSMB(pid)
	if !srv.alive() {
		return &invalidError{"server exited during the timed phase: " + srv.lastLines()}
	}
	for _, e := range []error{err1, err2, err3} {
		if e != nil {
			return e
		}
	}
	gcs := srv.gcBetween(t0, t1)
	if err := srv.stop(); err != nil {
		return &invalidError{err.Error()}
	}
	srv = nil
	phases = append(phases, phase{ops: in.Timed, samples: timed, timed: true})

	// Untimed answer checks.
	var c checker
	check := c.checkRead
	if w.Durable {
		check = c.checkChurn
	}
	dsRatio, err := check(in.G, phases)
	if err != nil {
		return err
	}
	rep.Wrong, rep.Notes = c.wrong, c.notes
	var lags []float64
	completed := 0
	for _, ph := range phases {
		for i := range ph.samples {
			s := &ph.samples[i]
			rep.Attempted++
			switch {
			case s.shed():
				rep.Sheds++
			case !s.ok():
				rep.Errors++
				if len(rep.Notes) < 8 {
					rep.Notes = append(rep.Notes, fmt.Sprintf("op %d: %s", s.Op, s.Err))
				}
			case ph.timed:
				completed++
			}
			if ph.timed {
				lags = append(lags, float64(s.Lag)/1e6)
			}
		}
	}
	lagP99 := quantile(sorted(lags), 0.99)
	if lagP99 > float64(lagLimit.Milliseconds()) {
		return &invalidError{fmt.Sprintf("load generator fell behind its schedule: lag p99 %.1f ms > %v", lagP99, lagLimit)}
	}

	solveMS := msOf(timed, opSolve, false)
	window := t1.Sub(t0).Seconds()
	latencyMetrics(rep, "solve", solveMS)
	if w.MutateFrac > 0 {
		latencyMetrics(rep, "mutate", append(msOf(timed, opMutate, false), msOf(timed, opMutate, true)...))
	}
	nSolves := len(solveMS) + len(msOf(timed, opSolve, true))
	rep.add("solves_per_s", "1/s", float64(nSolves)/window, fmt.Sprintf("offered %.0f ops/s", w.Rate))
	rep.add("cpu_ms_per_op", "ms", 1000*(cpu1-cpu0)/float64(completed), fmt.Sprintf("server CPU over %d ops", completed))
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d spawn-to-healthy starts", len(setups)))
	rep.add("peak_rss_mb", "MB", rss, "server VmHWM")
	rep.add("ds_ratio", "ratio", dsRatio, "")
	rep.add("host_steal_frac", "ratio", steal, stealNote)

	if !cfg.trace {
		return nil
	}
	hits := delta(before, after, "kwmds_cache_hits_total")
	lookups := hits + delta(before, after, "kwmds_cache_misses_total")
	batches := delta(before, after, "kwmds_solve_batches_total")
	batched := delta(before, after, "kwmds_batched_solves_total")
	walKey := fmt.Sprintf("{graph=%q}", graphName)
	li := layerInputs{g: in.G, kwcsr: in.Path, durable: w.Durable, reps: w.LayerReps,
		batch: min(max(1, int(math.Round(ratio(batched, batches)))), 8)}
	for _, o := range in.Timed {
		if o.Kind == opSolve {
			li.solves = append(li.solves, kwmds.Options{K: o.K, Seed: o.Seed, Sequential: true, SolverWorkers: solverWorkers})
			li.bodies = append(li.bodies, o.Body)
		} else if len(li.toggles) < 100 {
			li.toggles = append(li.toggles, o)
		}
	}
	if len(in.Fill) > 0 {
		// serve-read: the LP/rounding replay solves the distinct keys.
		li.solves = li.solves[:0]
		for _, o := range in.Fill {
			li.solves = append(li.solves, kwmds.Options{K: o.K, Seed: o.Seed, Sequential: true, SolverWorkers: solverWorkers})
		}
		li.toggles = in.Toggles
	}
	li.handler = append(append([]op(nil), in.Fill...), in.Timed[:min(w.HandlerOps, len(in.Timed))]...)
	li.skip = len(in.Fill)
	st, err := replayLayers(tr, li, dir)
	if err != nil {
		return err
	}
	var gcMaxPause float64
	for _, c := range gcs {
		gcMaxPause = math.Max(gcMaxPause, c.Pause)
	}
	fsyncs, recovery, walSource := st.fsyncsPerAppend, st.recoveryMS, "in-process log of the toggles"
	if w.Durable {
		fsyncs = ratio(delta(before, after, "kwmds_wal_fsyncs_total"+walKey), delta(before, after, "kwmds_wal_appends_total"+walKey))
		recovery, walSource = after["kwmds_recovery_ms"+walKey], "server /metrics"
	}
	addLayers(rep, st, layerContext{
		gcCycles:   float64(len(gcs)),
		gcMaxPause: gcMaxPause,
		e2eP50MS:   median(solveMS),
		layersMS:   []float64{st.handlerP50US / 1000},
		hitRatio:   ratio(hits, lookups),
		hitBase:    fmt.Sprintf("/metrics diff: %.0f hits / %.0f lookups", hits, lookups),
		batchMean:  ratio(batched, batches),
		sheds:      delta(before, after, "kwmds_sheds_total"),
		fsyncs:     fsyncs,
		walSource:  walSource,
		recoveryMS: recovery,
		lagP99MS:   lagP99,
		clientCPU:  float64(clientCPU.Nanoseconds()) / 1e6 / float64(len(timed)),
		ops:        float64(len(timed)),
		overhead:   overhead(msOf(timed, opSolve, true), solveMS),
	})
	return nil
}
