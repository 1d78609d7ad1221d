package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// memoKeys lists the LP memo's retained keys, sorted.
func memoKeys(s *Server) []string {
	s.lps.mu.Lock()
	defer s.lps.mu.Unlock()
	return slices.Sorted(maps.Keys(s.lps.items))
}

// digestOf returns the current digest of a preloaded graph.
func digestOf(t *testing.T, s *Server, name string) string {
	t.Helper()
	p, ok := s.lookup(name)
	if !ok {
		t.Fatalf("no graph %q", name)
	}
	_, digest, _, _ := p.snapshot()
	return digest
}

func mustMutate(t *testing.T, ts *httptest.Server, name, body string) {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v1/graphs/"+name+"/mutate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate %s: %d %s", body, resp.StatusCode, raw)
	}
}

// TestMemoMatchesFacade is the memo's correctness contract: every fast-engine
// answer served through the shared LP stage — kw, kw2, kwcds and frac, with
// and without the graph's weights, both rounding variants, several seeds per
// LP configuration, with and without Reorder — equals the facade's solo
// answer bit for bit, and each LP configuration runs its LP stage once.
func TestMemoMatchesFacade(t *testing.T) {
	g, err := gen.PrefAttach(300, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, reorder := range []bool{false, true} {
		t.Run(fmt.Sprintf("reorder=%v", reorder), func(t *testing.T) {
			srv := New(Config{Workers: 2, CacheEntries: 128, Reorder: reorder,
				Graphs: map[string]*graph.Graph{"g": g}})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// A weight-only epoch: the topology (and g) stay, costs appear.
			mustMutate(t, ts, "g", `{"mutations":[{"op":"set_weight","u":0,"w":3},{"op":"set_weight","u":7,"w":2.5}]}`)
			p, _ := srv.lookup("g")
			_, _, _, costs := p.snapshot()

			algos := []struct {
				algo string
				k    int
			}{{"kw", 0}, {"kw2", 2}, {"kwcds", 2}, {"frac", 0}}
			cold := 0
			for _, a := range algos {
				for _, variant := range []string{"", "ln-lnln"} {
					for _, weighted := range []bool{false, true} {
						for seed := int64(1); seed <= 3; seed++ {
							req := &graphio.SolveRequest{GraphRef: "g", Algo: a.algo, K: a.k, Seed: seed,
								Variant: variant, UseGraphWeights: weighted, Members: true}
							got, err := srv.solve(context.Background(), req)
							if err != nil {
								t.Fatalf("%s %q weighted=%v seed %d: %v", a.algo, variant, weighted, seed, err)
							}
							cold++
							opts := kwmds.Options{K: a.k, Seed: seed, Sequential: true, KnownDelta: a.algo == "kw2"}
							if variant == "ln-lnln" {
								opts.Variant = kwmds.VariantLnMinusLnLn
							}
							if weighted {
								opts.Weights = costs
							}
							ctx := fmt.Sprintf("%s %q weighted=%v seed %d", a.algo, variant, weighted, seed)
							if a.algo == "frac" {
								want, err := kwmds.FractionalDominatingSet(g, opts)
								if err != nil {
									t.Fatal(err)
								}
								if got.K != want.K || got.LPObjective != want.Objective || got.Bound != want.Bound {
									t.Fatalf("%s: served {k %d lp %v bound %v} != facade {k %d lp %v bound %v}",
										ctx, got.K, got.LPObjective, got.Bound, want.K, want.Objective, want.Bound)
								}
								continue
							}
							var want *kwmds.Result
							if a.algo == "kwcds" {
								want, err = kwmds.ConnectedDominatingSet(g, opts)
							} else {
								want, err = kwmds.DominatingSet(g, opts)
							}
							if err != nil {
								t.Fatal(err)
							}
							if got.K != want.K || got.Size != want.Size || got.WeightedCost != want.WeightedCost ||
								got.LPObjective != want.LPObjective || got.JoinedRandom != want.JoinedRandom ||
								got.JoinedFixup != want.JoinedFixup || got.Connectors != want.Connectors {
								t.Fatalf("%s: served %+v != facade {k %d size %d cost %v lp %v jr %d jf %d conn %d}",
									ctx, *got, want.K, want.Size, want.WeightedCost, want.LPObjective,
									want.JoinedRandom, want.JoinedFixup, want.Connectors)
							}
							if members := kwmds.SetMembers(want.InDS); !slices.Equal(got.Members, members) {
								t.Fatalf("%s: members %v, facade %v", ctx, got.Members, members)
							}
						}
					}
				}
			}
			// kw and frac share the LP configuration (k = 0, Algorithm 3),
			// so three configurations per cost vector.
			if batches, solves := srv.BatchStats(); batches != 6 || solves != int64(cold) {
				t.Errorf("BatchStats = (%d LP runs, %d cold solves), want (6, %d)", batches, solves, cold)
			}
		})
	}
}

// TestMemoRouting: every fast-engine algo takes the memo path, while the
// sim engine runs the whole pipeline on its own and leaves the memo alone.
func TestMemoRouting(t *testing.T) {
	g, err := gen.UnitDisk(120, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	for _, algo := range []string{"kw", "kw2", "kwcds", "frac"} {
		if _, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Algo: algo, Engine: "sim", Seed: 1}); err != nil {
			t.Fatalf("sim %s: %v", algo, err)
		}
	}
	if batches, solves := srv.BatchStats(); batches != 0 || solves != 0 {
		t.Fatalf("sim solves touched the LP memo: BatchStats = (%d, %d)", batches, solves)
	}
	for i, algo := range []string{"kw", "kw2", "kwcds", "frac"} {
		if _, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Algo: algo, Seed: 1}); err != nil {
			t.Fatalf("fast %s: %v", algo, err)
		}
		if _, solves := srv.BatchStats(); solves != int64(i+1) {
			t.Fatalf("fast %s bypassed the LP memo: %d memo solves after %d requests", algo, solves, i+1)
		}
	}
}

// TestMemoOneLPPerEpoch: concurrent distinct-seed cold solves on one epoch
// coalesce on a single LP flight — the LP stage runs exactly once.
func TestMemoOneLPPerEpoch(t *testing.T) {
	g, err := gen.UnitDisk(400, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	// Hold every worker slot so the LP flight parks in admission while
	// the rest of the burst piles onto it.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", K: 3, Seed: seed})
			if err == nil && resp.Size < 1 {
				err = fmt.Errorf("seed %d: empty set", seed)
			}
			errs <- err
		}(int64(i + 1))
	}
	waitersOn(t, srv.lps, digestOf(t, srv, "g")+"|"+lpKey(kwmds.Options{K: 3}), n)
	<-srv.sem
	<-srv.sem
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if batches, solves := srv.BatchStats(); batches != 1 || solves != n {
		t.Fatalf("BatchStats = (%d LP runs, %d cold solves), want (1, %d)", batches, solves, n)
	}
}

// TestMemoInvalidation: a topology mutation drops the old digest's LP
// entries, while a weight-only epoch keeps the unweighted entry and keys
// each weighted LP by its cost vector's hash.
func TestMemoInvalidation(t *testing.T) {
	g, err := gen.UnitDisk(200, 0.12, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	solve := func(seed int64, weighted bool) {
		t.Helper()
		if _, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Seed: seed, UseGraphWeights: weighted}); err != nil {
			t.Fatal(err)
		}
	}
	lpRuns := func() int64 {
		b, _ := srv.BatchStats()
		return b
	}
	d0 := digestOf(t, srv, "g")
	unweighted := d0 + "|" + lpKey(kwmds.Options{})
	solve(1, false)
	if keys := memoKeys(srv); len(keys) != 1 || keys[0] != unweighted {
		t.Fatalf("memo keys = %v, want [%s]", keys, unweighted)
	}

	// Weight-only epochs leave the digest and the unweighted entry alone.
	mustMutate(t, ts, "g", `{"mutations":[{"op":"set_weight","u":3,"w":2}]}`)
	if d := digestOf(t, srv, "g"); d != d0 {
		t.Fatalf("weight-only epoch changed the digest")
	}
	solve(2, false)
	if lpRuns() != 1 {
		t.Fatalf("unweighted solve after a weight-only epoch re-ran the LP (%d runs)", lpRuns())
	}
	weightedKey := func() string {
		p, _ := srv.lookup("g")
		_, _, _, costs := p.snapshot()
		return d0 + "|" + lpKey(kwmds.Options{Weights: costs})
	}
	w1 := weightedKey()
	solve(1, true)
	mustMutate(t, ts, "g", `{"mutations":[{"op":"set_weight","u":3,"w":5}]}`)
	w2 := weightedKey()
	if w1 == w2 {
		t.Fatal("distinct cost vectors share an LP key")
	}
	solve(1, true)
	if lpRuns() != 3 {
		t.Fatalf("LP runs = %d after two weighted configurations, want 3", lpRuns())
	}
	want := []string{unweighted, w1, w2}
	sort.Strings(want)
	if keys := memoKeys(srv); strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("memo keys = %v, want %v", keys, want)
	}

	// A topology mutation retires d0 and every LP entry under it.
	mustMutate(t, ts, "g", `{"mutations":[{"op":"add_edge","u":0,"v":199}]}`)
	if keys := memoKeys(srv); len(keys) != 0 {
		t.Fatalf("memo kept %v across a topology mutation", keys)
	}
	solve(1, false)
	if keys := memoKeys(srv); len(keys) != 1 || !strings.HasPrefix(keys[0], digestOf(t, srv, "g")+"|") {
		t.Fatalf("memo keys after the new epoch's solve = %v", keys)
	}
}

// TestMemoInvalidatesInFlight: an LP flight still running when a topology
// mutation retires its digest answers its waiter but is not retained, so a
// stale epoch's LP never squats in the memo.
func TestMemoInvalidatesInFlight(t *testing.T) {
	g, err := gen.UnitDisk(200, 0.12, 6)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.sem <- struct{}{} // park the LP flight in admission
	errc := make(chan error, 1)
	go func() {
		_, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Seed: 1})
		errc <- err
	}()
	waitersOn(t, srv.lps, digestOf(t, srv, "g")+"|"+lpKey(kwmds.Options{}), 1)
	mustMutate(t, ts, "g", `{"mutations":[{"op":"add_edge","u":0,"v":199}]}`)
	<-srv.sem
	if err := <-errc; err != nil {
		t.Fatalf("solve of the retired epoch: %v", err)
	}
	if keys := memoKeys(srv); len(keys) != 0 {
		t.Fatalf("retired epoch's LP retained under %v", keys)
	}
}

// TestMemoRetentionOff: CacheEntries < 0 turns off retention in the LP memo
// too, so a second cold solve of the same epoch runs the LP again.
func TestMemoRetentionOff(t *testing.T) {
	g, err := gen.Grid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, CacheEntries: -1, Graphs: map[string]*graph.Graph{"g": g}})
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if batches, _ := srv.BatchStats(); batches != 2 || len(memoKeys(srv)) != 0 {
		t.Fatalf("retention off: %d LP runs, memo keys %v; want 2 runs, none kept", batches, memoKeys(srv))
	}
}

// TestAdmissionMemoBurst: with one worker and one queue slot, bursts of
// same-epoch cold solves — the first of each epoch running the LP flight,
// all of them rounding under a second admission — answer only 200 or 429
// and never deadlock.
func TestAdmissionMemoBurst(t *testing.T) {
	srv, ts := admissionServer(t, Config{Workers: 1, MaxQueue: 1})
	const n = 24
	for round := 0; round < 3; round++ {
		codes := make(chan int, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				resp := postSolveSeed(t, ts.URL, seed)
				resp.Body.Close()
				codes <- resp.StatusCode
			}(int64(round*n + i + 1))
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: burst still blocked after 30s (deadlock)", round)
		}
		close(codes)
		ok := 0
		for code := range codes {
			switch code {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
			default:
				t.Fatalf("round %d: status %d, want 200 or 429", round, code)
			}
		}
		if ok == 0 {
			t.Errorf("round %d: no solve of %d was answered", round, n)
		}
		// Next round on a fresh epoch, so its burst contends with an LP flight.
		mustMutate(t, ts, "g", fmt.Sprintf(`{"mutations":[{"op":"add_edge","u":0,"v":%d}]}`, 10+round))
	}
	if _, depth := srv.QueueStats(); depth != 0 {
		t.Errorf("queue depth %d after the bursts drained", depth)
	}
	if len(srv.sem) != 0 {
		t.Errorf("%d worker slots still held after the bursts drained", len(srv.sem))
	}
}

// TestMemoAbortWhenAllWaitersLeave: an LP flight parked in admission aborts
// once every solve waiting on it has left, and nothing is retained; the
// next solve runs a fresh LP.
func TestMemoAbortWhenAllWaitersLeave(t *testing.T) {
	g, err := gen.UnitDisk(200, 0.12, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Graphs: map[string]*graph.Graph{"g": g}})
	srv.sem <- struct{}{} // the LP flight cannot be admitted
	const n = 3
	cancels := make([]context.CancelFunc, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		go func(seed int64) {
			_, err := srv.solve(ctx, &graphio.SolveRequest{GraphRef: "g", Seed: seed})
			errs <- err
		}(int64(i + 1))
	}
	key := digestOf(t, srv, "g") + "|" + lpKey(kwmds.Options{})
	call := waitersOn(t, srv.lps, key, n)
	for i, cancel := range cancels {
		cancel()
		if i < n-1 {
			// Abort only on a unanimous walkout.
			waitersOn(t, srv.lps, key, n-1-i)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned solve: err = %v, want context.Canceled", err)
		}
	}
	select {
	case <-call.done:
	case <-time.After(5 * time.Second):
		t.Fatal("LP flight still parked after every waiter left")
	}
	if !errors.Is(call.err, errSolveAbandoned) {
		t.Errorf("LP flight ended with %v, want errSolveAbandoned", call.err)
	}
	if keys := memoKeys(srv); len(keys) != 0 {
		t.Fatalf("canceled LP retained under %v", keys)
	}
	<-srv.sem
	if _, err := srv.solve(context.Background(), &graphio.SolveRequest{GraphRef: "g", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if batches, _ := srv.BatchStats(); batches != 2 {
		t.Errorf("LP runs = %d, want 2 (the aborted flight and a fresh one)", batches)
	}
}

// TestInlineSolveAdmission: an inline graph is built under a worker slot
// taken through admission control, so with the pool busy the request is
// shed (queue timeout, queue full) or gives up with its caller's context —
// it never blocks past either.
func TestInlineSolveAdmission(t *testing.T) {
	g := graph.MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	raw, _ := json.Marshal(graphio.JSONGraph{N: g.N(), Edges: g.Edges()})
	inline := func() *graphio.SolveRequest { return &graphio.SolveRequest{Graph: raw, Seed: 1} }
	// solveWithin runs an inline solve under a 100ms context and fails the
	// test if it has not returned within 2s.
	solveWithin := func(t *testing.T, srv *Server) error {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := srv.solve(ctx, inline())
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatal("inline solve still blocked after 2s: neither shed nor canceled")
			return nil
		}
	}
	hold := func(t *testing.T, srv *Server) {
		srv.sem <- struct{}{}
		t.Cleanup(func() { <-srv.sem })
	}

	t.Run("queue timeout", func(t *testing.T) {
		srv := New(Config{Workers: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond})
		hold(t, srv)
		if err := solveWithin(t, srv); !errors.Is(err, errOverloaded) {
			t.Fatalf("err = %v, want a queue-timeout shed", err)
		}
		if sheds, _ := srv.QueueStats(); sheds != 1 {
			t.Errorf("sheds = %d, want 1", sheds)
		}
	})
	t.Run("caller leaves", func(t *testing.T) {
		srv := New(Config{Workers: 1})
		hold(t, srv)
		if err := solveWithin(t, srv); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
	t.Run("queue full answers 429", func(t *testing.T) {
		srv := New(Config{Workers: 1, MaxQueue: 1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		hold(t, srv)
		// Fill the one queue slot; cleanups run last-in first-out, so the
		// waiter leaves (returning any slot it got) before the held slot
		// is released and the test server closes.
		stop := make(chan struct{})
		go func() {
			if srv.admit(stop) == nil {
				<-srv.sem
			}
		}()
		t.Cleanup(func() { close(stop) })
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, depth := srv.QueueStats(); depth == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("queue waiter never registered")
			}
			time.Sleep(time.Millisecond)
		}
		body, _ := json.Marshal(inline())
		client := &http.Client{Timeout: 2 * time.Second}
		resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("inline solve with the queue full: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
	})
}

// TestHealthReportsBatchCounters: the /healthz LP memo counters exist and
// move.
func TestHealthReportsBatchCounters(t *testing.T) {
	g, err := gen.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Graphs: map[string]*graph.Graph{"g": g}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postSolve(t, ts, `{"graph_ref":"g","seed":1}`)
	resp, raw := postSolve(t, ts, `{"graph_ref":"g","seed":2}`)
	if resp.StatusCode != 200 {
		t.Fatalf("solve failed: %s", raw)
	}
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	// Two cold solves of one epoch: one LP run serving both.
	for k, want := range map[string]float64{"solve_batches": 1, "batched_solves": 2} {
		if v, ok := h[k].(float64); !ok || v != want {
			t.Errorf("healthz %s = %v, want %v", k, h[k], want)
		}
	}
}
