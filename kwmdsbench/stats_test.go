package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {1001, true}, {60000, true}} {
		if got := p99Reportable(tc.n); got != tc.want {
			t.Errorf("p99Reportable(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	if _, ok := tailQuantile(10); ok {
		t.Error("tailQuantile(10) reported a tail with no sample to spare")
	}
	for n := 11; n <= 5000; n++ {
		q, ok := tailQuantile(n)
		if !ok {
			t.Fatalf("tailQuantile(%d) not ok", n)
		}
		if b := beyond(n, q); b < minBeyond {
			t.Fatalf("n=%d: tail p%v has %d samples beyond it", n, 100*q, b)
		}
		if n >= 1000 && q != 0.99 {
			t.Fatalf("n=%d: tail is p%v, want p99 once it is reportable", n, 100*q)
		}
		if n < 1000 && beyond(n, q) != minBeyond {
			t.Fatalf("n=%d: tail p%v is not the highest with %d beyond", n, 100*q, minBeyond)
		}
	}
	q, _ := tailQuantile(500)
	if q != 0.98 {
		t.Errorf("tailQuantile(500) = %v, want 0.98", q)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestUnattributed(t *testing.T) {
	if got := unattributed(10, 3, 4); got != 3 {
		t.Errorf("unattributed(10, 3, 4) = %v, want 3", got)
	}
	if got := unattributed(5); got != 5 {
		t.Errorf("with no layers everything is unattributed: got %v", got)
	}
	// Layers timed in isolation can sum past the end-to-end median; the
	// remainder is then reported negative, not clamped away.
	if got := unattributed(5, 4, 2); got != -1 {
		t.Errorf("unattributed(5, 4, 2) = %v, want -1", got)
	}
}

func TestNameCharset(t *testing.T) {
	for _, ok := range []string{"solve_p50_ms", "fastpath.lp_ms", "serve-read", "a", "9lives", "x.y-z_1"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "lat(ms)", "naïve", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "1/kop", "%", "count", "bytes", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "µs", "seventeen-chars-x"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if !validName(d.Name) || !validUnit(d.Unit) || seen[d.Name] {
				t.Errorf("metric %q (%q): bad name or unit, or used twice", d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloads {
		if !validName(w.Name) || seen[w.Name] {
			t.Errorf("workload %q: bad or duplicate name", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestBenchmarkJSONMatchesCode keeps the benchmark's declaration and the
// metrics this program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// Every declared workload is one this program runs; serve-read is
	// runnable but left out of the declaration (see README.md).
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one this program runs", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}

const metricsText = `# HELP kwmds_cache_hits_total Result cache hits.
# TYPE kwmds_cache_hits_total counter
kwmds_cache_hits_total 120
kwmds_cache_misses_total 30
kwmds_cache_hit_rate 0.8
kwmds_wal_appends_total{graph="g"} 40
kwmds_wal_fsyncs_total{graph="g"} 38
kwmds_solve_latency_ms{engine="fast",quantile="0.99"} 3.5
kwmds_recovery_ms{graph="g"} 12.25
`

func TestMetricsCounterDiff(t *testing.T) {
	before, err := parseProm(metricsText)
	if err != nil {
		t.Fatal(err)
	}
	if v := before[`kwmds_solve_latency_ms{engine="fast",quantile="0.99"}`]; v != 3.5 {
		t.Errorf("labelled series = %v, want 3.5", v)
	}
	after, err := parseProm(`kwmds_cache_hits_total 1120
kwmds_cache_misses_total 31
kwmds_wal_appends_total{graph="g"} 140
kwmds_wal_fsyncs_total{graph="g"} 88
kwmds_solve_batches_total 4
`)
	if err != nil {
		t.Fatal(err)
	}
	hits := delta(before, after, "kwmds_cache_hits_total")
	lookups := hits + delta(before, after, "kwmds_cache_misses_total")
	if hits != 1000 || lookups != 1001 {
		t.Errorf("hits %v / lookups %v, want 1000 / 1001", hits, lookups)
	}
	key := `{graph="g"}`
	if got := ratio(delta(before, after, "kwmds_wal_fsyncs_total"+key), delta(before, after, "kwmds_wal_appends_total"+key)); got != 0.5 {
		t.Errorf("fsyncs per append = %v, want 0.5", got)
	}
	// A family absent from the first scrape counts from zero.
	if got := delta(before, after, "kwmds_solve_batches_total"); got != 4 {
		t.Errorf("delta of a series new in the second scrape = %v, want 4", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if _, err := parseProm("kwmds_cache_hits_total twelve\n"); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

func TestParseGCTrace(t *testing.T) {
	pause, ok := parseGCTrace("gc 7 @0.135s 1%: 0.015+1.2+0.004 ms clock, 0.030+0.1/0.5/0+0.008 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || math.Abs(pause-0.019) > 1e-12 {
		t.Errorf("pause = %v, %v; want 0.019 ms", pause, ok)
	}
	if _, ok := parseGCTrace("kwmds serve: listening on 127.0.0.1:1"); ok {
		t.Error("a non-gctrace line parsed as a GC cycle")
	}
}

func TestScheduleChargesQueueNotGeneratorLateness(t *testing.T) {
	const ms = int64(1e6)
	// Two connections, requests due every 1 ms, each served in 3 ms.
	// Request 2 must wait for a connection until 3 ms; it was actually sent
	// at 4.5 ms because the generator overslept, which is not charged.
	ss := []sample{
		{Due: 0, Start: 0, End: 3 * ms},
		{Due: 1 * ms, Start: 1 * ms, End: 4 * ms},
		{Due: 2 * ms, Start: 4500000, End: 7500000},
		{Due: 10 * ms, Start: 10 * ms, End: 11 * ms},
	}
	schedule(ss, 2)
	for i, want := range []struct{ lat, lag int64 }{
		{3 * ms, 0}, {3 * ms, 0}, {4 * ms, 1500000}, {1 * ms, 0},
	} {
		if ss[i].Lat != want.lat || ss[i].Lag != want.lag {
			t.Errorf("request %d: lat %d lag %d, want %d and %d", i, ss[i].Lat, ss[i].Lag, want.lat, want.lag)
		}
	}
	// One connection: everything queues behind the first answer.
	one := []sample{{Due: 0, Start: 0, End: 5 * ms}, {Due: 1 * ms, Start: 5 * ms, End: 6 * ms}}
	schedule(one, 1)
	if one[1].Lat != 5*ms || one[1].Lag != 0 {
		t.Errorf("queued request: lat %d lag %d, want %d and 0", one[1].Lat, one[1].Lag, 5*ms)
	}
}

func TestCheckMonotoneEpochs(t *testing.T) {
	ok := func(epoch, start, end int64) sample {
		return sample{Status: 200, Epoch: epoch, Start: start, End: end}
	}
	var c checker
	// Overlapping requests may see either order; a request sent after an
	// answer was received may not go back.
	c.checkMonotone([]phase{{samples: []sample{ok(1, 0, 10), ok(2, 5, 20), ok(1, 8, 30), ok(2, 25, 40)}}})
	if c.wrong != 0 {
		t.Fatalf("legal interleaving flagged: %v", c.notes)
	}
	c.checkMonotone([]phase{{samples: []sample{ok(3, 0, 10), ok(2, 11, 20)}}})
	if c.wrong != 1 {
		t.Fatalf("stale epoch after a newer answer not flagged (wrong=%d)", c.wrong)
	}
	var c2 checker
	c2.checkMonotone([]phase{{samples: []sample{ok(5, 0, 10)}}, {samples: []sample{ok(4, 0, 10)}}})
	if c2.wrong != 1 {
		t.Fatalf("epoch going back across phases not flagged (wrong=%d)", c2.wrong)
	}
}
