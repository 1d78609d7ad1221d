package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"kwmds"
	"kwmds/internal/cli"
	"kwmds/internal/dyngraph"
	"kwmds/internal/fastpath"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
	"kwmds/internal/wal"
)

// layerInputs are the generated inputs a traced run replays through each
// module's public functions, in-process and without sockets.
type layerInputs struct {
	g     *graph.Graph
	kwcsr string
	// solves are the workload's solve options, in stream order.
	solves []kwmds.Options
	// bodies are solve request bodies exactly as sent.
	bodies [][]byte
	// handler is the request stream replayed through Server.Handler();
	// the first skip requests warm the cache and are not measured.
	handler []op
	skip    int
	// toggles are single-edge mutations for the dyngraph/WAL replay.
	toggles []op
	// batch is the DominatingSetMany batch width to time.
	batch   int
	durable bool
	reps    int
}

// layerStats are the replay's per-layer figures (medians unless noted).
type layerStats struct {
	openMS, lpMS, roundMS, solveMS, batchMS float64
	allocsPerSolve, bytesPerSolve           float64
	decodeUS, digestMS                      float64
	commitMS, appendMS, recoveryMS          float64
	fsyncsPerAppend                         float64
	handlerP50US, handlerP99US              float64
	// Counters of the in-process server the handler replay ran against.
	hits, misses, batches, batched, sheds int64
}

// replayLayers times each layer's public entry points on li, recording a
// span per call under one root span.
func replayLayers(tr *tracer, li layerInputs, dir string) (layerStats, error) {
	var st layerStats
	root := tr.begin("layers", 0, -1)
	defer tr.finish(root)

	// graphio: mapped open + structure verification.
	for r := 0; r < 9; r++ {
		var err error
		tr.timed("graphio.open", root, -1, func() {
			var m *graphio.MappedGraph
			if m, err = graphio.OpenMapped(li.kwcsr); err == nil {
				err = m.VerifyStructure()
				m.Close()
			}
		})
		if err != nil {
			return st, err
		}
	}

	// fastpath LP stage and rounding, then the facade around both.
	reps := min(li.reps, len(li.solves))
	for r := 0; r < reps; r++ {
		opts := li.solves[r]
		fo := fastpath.Options{K: opts.K, Seed: opts.Seed, Workers: opts.SolverWorkers}
		s := fastpath.Acquire(li.g.N())
		var x []float64
		var err error
		tr.timed("fastpath.lp", root, int64(r), func() { x, err = s.Fractional(li.g, fo) })
		if err == nil {
			x = append([]float64(nil), x...)
			tr.timed("fastpath.round", root, int64(r), func() { _, err = s.Round(li.g, x, fo) })
		}
		fastpath.Release(s)
		if err != nil {
			return st, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		_, err := kwmds.DominatingSet(li.g, li.solves[r])
		end := time.Now()
		if err != nil {
			return st, err
		}
		tr.record("kwmds.DominatingSet", root, int64(r), start, end)
	}
	runtime.ReadMemStats(&m1)
	st.allocsPerSolve = float64(m1.Mallocs-m0.Mallocs) / float64(reps)
	st.bytesPerSolve = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
	for lo := 0; lo+li.batch <= reps; lo += li.batch {
		var err error
		tr.timed("fastpath.batch", root, int64(lo), func() {
			_, err = kwmds.DominatingSetMany(li.g, li.solves[lo:lo+li.batch])
		})
		if err != nil {
			return st, err
		}
	}

	// graphio request decoding on the bodies as sent.
	for i, body := range li.bodies[:min(len(li.bodies), 2000)] {
		var err error
		tr.timed("graphio.decode", root, int64(i), func() { _, err = graphio.DecodeSolveRequest(bytes.NewReader(body)) })
		if err != nil {
			return st, err
		}
	}

	// dyngraph commit → digest → durable WAL append, the mutate path's
	// sequence, then recovery of the log just written.
	if err := replayMutations(tr, root, li, filepath.Join(dir, "layers-wal"), &st); err != nil {
		return st, err
	}

	// The whole server handler, in-process, on the request stream.
	if err := replayHandler(tr, root, li, filepath.Join(dir, "layers-data"), &st); err != nil {
		return st, err
	}

	st.openMS = median(tr.durations("graphio.open"))
	st.lpMS = median(tr.durations("fastpath.lp"))
	st.roundMS = median(tr.durations("fastpath.round"))
	st.solveMS = median(tr.durations("kwmds.DominatingSet"))
	st.batchMS = median(tr.durations("fastpath.batch"))
	st.decodeUS = 1000 * median(tr.durations("graphio.decode"))
	st.digestMS = median(tr.durations("graphio.digest"))
	st.commitMS = median(tr.durations("dyngraph.commit"))
	st.appendMS = median(tr.durations("wal.append"))
	st.recoveryMS = median(tr.durations("wal.recovery"))
	return st, nil
}

func replayMutations(tr *tracer, root int64, li layerInputs, dir string, st *layerStats) error {
	rec, err := wal.Open(dir, li.g, nil, wal.Options{SnapshotEveryEpochs: -1, SnapshotEveryBytes: -1})
	if err != nil {
		return err
	}
	log, dyn, pre := rec.Log, rec.Dyn, rec.Digest
	for i, t := range li.toggles {
		edge := [][2]int32{{int32(t.Edge[0]), int32(t.Edge[1])}}
		var add, rem [][2]int32
		if t.Add {
			add = edge
		} else {
			rem = edge
		}
		var d *dyngraph.Delta
		start := time.Now()
		dyn.ApplyEdgeDeltas(add, rem)
		r := &wal.Record{Pre: pre}
		r.Adds, r.Rems, r.Weights, r.Grew = dyn.NormalizedPending()
		d, err = dyn.Commit()
		end := time.Now()
		if err != nil {
			log.Close()
			return fmt.Errorf("commit of toggle %d: %w", i, err)
		}
		tr.record("dyngraph.commit", root, int64(i), start, end)
		tr.timed("graphio.digest", root, int64(i), func() { pre = graphio.DigestRaw(d.Next) })
		r.Epoch, r.Post = d.Epoch, pre
		tr.timed("wal.append", root, int64(i), func() { err = log.Append(r, true) })
		if err != nil {
			log.Close()
			return err
		}
	}
	m := log.MetricsSnapshot()
	st.fsyncsPerAppend = ratio(float64(m.Fsyncs), float64(m.Appends))
	if err := log.Close(); err != nil {
		return err
	}
	var rec2 *wal.Recovered
	tr.timed("wal.recovery", root, -1, func() { rec2, err = wal.Open(dir, li.g, nil, wal.Options{}) })
	if err != nil {
		return err
	}
	if rec2.Dyn.Epoch() != int64(len(li.toggles)) {
		err = fmt.Errorf("wal replay recovered epoch %d, want %d", rec2.Dyn.Epoch(), len(li.toggles))
	}
	if rec2.Mapped != nil {
		rec2.Mapped.Close()
	}
	rec2.Log.Close()
	return err
}

func replayHandler(tr *tracer, root int64, li layerInputs, dataDir string, st *layerStats) error {
	cfg := cli.ServeConfig{Preload: []string{graphName + "=" + li.kwcsr}}
	if li.durable {
		cfg.DataDir = dataDir
	}
	srv, cleanup, err := cli.BuildServer(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	h := srv.Handler()
	var solveUS []float64
	for i, o := range li.handler {
		path := "/v1/solve"
		if o.Kind == opMutate {
			path = "/v1/graphs/" + graphName + "/mutate"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(o.Body))
		rw := httptest.NewRecorder()
		d := tr.timed("server.handler", root, int64(i), func() { h.ServeHTTP(rw, req) })
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: op %d: %d %s", i, rw.Code, rw.Body.String())
		}
		if i >= li.skip && o.Kind == opSolve {
			solveUS = append(solveUS, float64(d.Nanoseconds())/1e3)
		}
	}
	s := sorted(solveUS)
	st.handlerP50US, st.handlerP99US = median(s), quantile(s, 0.99)
	_, st.hits, st.misses = srv.Stats()
	st.batches, st.batched = srv.BatchStats()
	st.sheds, _ = srv.QueueStats()
	return nil
}
