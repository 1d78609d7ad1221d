package baseline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"kwmds/internal/exact"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

func testFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	g, err := gen.GNP(80, 0.07, 1)
	add("gnp", g, err)
	g, err = gen.UnitDisk(90, 0.17, 2)
	add("udg", g, err)
	g, err = gen.Grid(7, 9)
	add("grid", g, err)
	g, err = gen.Star(25)
	add("star", g, err)
	g, err = gen.Clique(10)
	add("clique", g, err)
	g, err = gen.CliqueChain(3, 5)
	add("cliquechain", g, err)
	g, err = gen.RandomTree(40, 3)
	add("tree", g, err)
	add("edgeless", graph.MustNew(5, nil), nil)
	return out
}

func TestGreedyDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		res := Greedy(g)
		if !g.IsDominatingSet(res.InDS) {
			t.Errorf("%s: greedy set not dominating", name)
		}
		if res.Size != graph.SetSize(res.InDS) {
			t.Errorf("%s: size mismatch", name)
		}
	}
}

func TestGreedyKnownOptima(t *testing.T) {
	tests := []struct {
		name string
		mk   func() (*graph.Graph, error)
		want int
	}{
		{"star", func() (*graph.Graph, error) { return gen.Star(30) }, 1},
		{"clique", func() (*graph.Graph, error) { return gen.Clique(8) }, 1},
		{"cliquechain", func() (*graph.Graph, error) { return gen.CliqueChain(4, 6) }, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if res := Greedy(g); res.Size != tc.want {
				t.Errorf("greedy size = %d, want %d", res.Size, tc.want)
			}
		})
	}
}

// Greedy's ratio never exceeds H(∆+1) ≈ ln(∆+1)+1 against the exact optimum.
func TestGreedyRatioBound(t *testing.T) {
	for trial := int64(0); trial < 15; trial++ {
		g, err := gen.GNP(22, 0.15, trial)
		if err != nil {
			t.Fatal(err)
		}
		res := Greedy(g)
		opt, err := exact.Size(g)
		if err != nil {
			t.Fatal(err)
		}
		h := 0.0
		for i := 1; i <= g.MaxDegree()+1; i++ {
			h += 1 / float64(i)
		}
		if float64(res.Size) > h*float64(opt)+1e-9 {
			t.Errorf("trial %d: greedy %d > H(∆+1)·opt = %v·%d", trial, res.Size, h, opt)
		}
	}
}

func TestGreedyStepsConsistent(t *testing.T) {
	g, err := gen.UnitDisk(60, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, order := GreedySteps(g)
	if !g.IsDominatingSet(res.InDS) {
		t.Error("GreedySteps set not dominating")
	}
	if len(order) != res.Size {
		t.Errorf("order length %d != size %d", len(order), res.Size)
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d chosen twice", v)
		}
		seen[v] = true
		if !res.InDS[v] {
			t.Fatalf("ordered vertex %d not in set", v)
		}
	}
	// Both greedy variants are proper greedy executions; sizes must agree
	// on graphs without tie-sensitive branching, and never differ wildly.
	fast := Greedy(g)
	if math.Abs(float64(fast.Size-res.Size)) > 0.25*float64(res.Size)+2 {
		t.Errorf("greedy variants disagree: bucket %d vs scan %d", fast.Size, res.Size)
	}
}

func TestTrivial(t *testing.T) {
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res := Trivial(g)
	if res.Size != 5 || !g.IsDominatingSet(res.InDS) {
		t.Errorf("trivial: size %d", res.Size)
	}
}

func TestJRSDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		for seed := int64(0); seed < 3; seed++ {
			res, err := JRS(g, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !g.IsDominatingSet(res.InDS) {
				t.Errorf("%s seed %d: JRS set not dominating", name, seed)
			}
		}
	}
}

func TestJRSQualityOnStar(t *testing.T) {
	// On a star the max-span candidate is the hub; JRS should pick a set
	// within a small factor of 1 (the hub, plus possibly a few leaves that
	// joined before coverage propagated).
	g, err := gen.Star(60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := JRS(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Errorf("JRS on star picked %d nodes", res.Size)
	}
}

func TestJRSRoundsPolylog(t *testing.T) {
	g, err := gen.GNP(300, 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := JRS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// O(log n · log ∆) with generous constants: log₂300 ≈ 8.2, log₂∆ ≈ 4.
	// 6 rounds per phase; allow 30 phases.
	if res.Rounds > 6*30 {
		t.Errorf("JRS used %d rounds, suspiciously many", res.Rounds)
	}
	if res.Rounds == 0 {
		t.Error("JRS reported zero rounds on a nonempty graph")
	}
}

func TestWuLiDominatesEverywhere(t *testing.T) {
	for name, g := range testFamilies(t) {
		res, err := WuLi(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.IsDominatingSet(res.InDS) {
			t.Errorf("%s: Wu-Li set not dominating", name)
		}
		if res.Rounds != 5 {
			t.Errorf("%s: Wu-Li used %d rounds, want constant 5", name, res.Rounds)
		}
	}
}

func TestWuLiMarkedSetOnPath(t *testing.T) {
	// On a path 0-1-2-3-4, internal vertices have two non-adjacent
	// neighbors → marked: {1,2,3}; pruning rule 2 removes nobody on a
	// path of this length (neighbors of 2 are 1,3 which are not adjacent).
	// Rule 1: N[1] ⊆ N[2]? N[1]={0,1,2}, N[2]={1,2,3} → no.
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 3} {
		if !res.Marked[v] {
			t.Errorf("path vertex %d should be marked", v)
		}
	}
	if res.Marked[0] || res.Marked[4] {
		t.Error("path endpoints should not be marked")
	}
}

func TestWuLiMarkedConnectedOnUDG(t *testing.T) {
	g, err := gen.UnitDisk(80, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Skip("seed gave disconnected UDG")
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	members := graph.Members(res.Marked)
	if len(members) == 0 {
		t.Skip("degenerate marking")
	}
	sub, _ := g.Subgraph(members)
	if !sub.IsConnected() {
		t.Error("Wu-Li marked set (pre-fallback) not connected on a connected UDG")
	}
	// The marked set should itself dominate here (fallback only fires on
	// degenerate graphs).
	if res.FallbackJoins > 0 && !g.IsDominatingSet(res.Marked) {
		t.Logf("note: fallback fired %d times", res.FallbackJoins)
	}
}

func TestWuLiCliqueFallback(t *testing.T) {
	// Complete graph: nothing is marked; fallback elects exactly vertex 0.
	g, err := gen.Clique(7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WuLi(g)
	if err != nil {
		t.Fatal(err)
	}
	if graph.SetSize(res.Marked) != 0 {
		t.Error("clique should mark nothing")
	}
	if res.Size != 1 || !res.InDS[0] {
		t.Errorf("clique fallback picked %v (size %d), want just vertex 0",
			graph.Members(res.InDS), res.Size)
	}
	if res.FallbackJoins != 1 {
		t.Errorf("FallbackJoins = %d, want 1", res.FallbackJoins)
	}
}

func TestLubyMISProperties(t *testing.T) {
	for name, g := range testFamilies(t) {
		for seed := int64(0); seed < 3; seed++ {
			res, err := LubyMIS(g, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			// Independence.
			for _, e := range g.Edges() {
				if res.InDS[e[0]] && res.InDS[e[1]] {
					t.Fatalf("%s seed %d: MIS contains edge %v", name, seed, e)
				}
			}
			// Maximality ⇒ domination.
			if !g.IsDominatingSet(res.InDS) {
				t.Fatalf("%s seed %d: MIS not maximal/dominating", name, seed)
			}
		}
	}
}

func TestLubyMISRoundsLogarithmic(t *testing.T) {
	g, err := gen.GNP(400, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LubyMIS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rounds per phase, expect ≈ O(log n) ≈ 9 phases; allow 25.
	if res.Rounds > 3*25 {
		t.Errorf("Luby used %d rounds", res.Rounds)
	}
}

func TestDistributedBaselinesOnEmptyAndSingleton(t *testing.T) {
	empty := graph.MustNew(0, nil)
	single := graph.MustNew(1, nil)
	if res, err := JRS(empty, 1); err != nil || res.Size != 0 {
		t.Errorf("JRS empty: %v %v", res, err)
	}
	if res, err := JRS(single, 1); err != nil || res.Size != 1 {
		t.Errorf("JRS singleton: size=%d err=%v, want 1", res.Size, err)
	}
	if res, err := WuLi(single); err != nil || res.Size != 1 {
		t.Errorf("WuLi singleton: size=%d err=%v, want 1", res.Size, err)
	}
	if res, err := LubyMIS(single, 1); err != nil || res.Size != 1 {
		t.Errorf("Luby singleton: size=%d err=%v, want 1", res.Size, err)
	}
}

func TestCeilPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {100, 128},
	}
	for _, tc := range tests {
		if got := ceilPow2(tc.in); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNbrListBits(t *testing.T) {
	if nbrList(nil).Bits() != 1 {
		t.Error("empty list should cost 1 bit")
	}
	// ids 1 (1 bit) and 255 (8 bits).
	if got := nbrList([]int32{1, 255}).Bits(); got != 9 {
		t.Errorf("Bits = %d, want 9", got)
	}
	if got := nbrList([]int32{0}).Bits(); got != 1 {
		t.Errorf("Bits([0]) = %d, want 1", got)
	}
}

// goldenCorpus is the fixed graph corpus TestDistributedBaselinesGolden
// pins the distributed baselines on.
func goldenCorpus(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	type entry = struct {
		name string
		g    *graph.Graph
	}
	var out []entry
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, entry{name, g})
	}
	g, err := gen.UnitDisk(110, 0.16, 4)
	add("udg", g, err)
	g, err = gen.GNP(90, 0.06, 8)
	add("gnp", g, err)
	g, err = gen.Grid(8, 9)
	add("grid", g, err)
	g, err = gen.RandomTree(70, 6)
	add("tree", g, err)
	g, err = gen.Star(60)
	add("star", g, err)
	g, err = gen.CliqueChain(6, 9)
	add("cliquechain", g, err)
	g, err = gen.Clique(12)
	add("clique", g, err)
	g, err = gen.Path(17)
	add("path", g, err)
	add("empty", graph.MustNew(0, nil), nil)
	add("singleton", graph.MustNew(1, nil), nil)
	return out
}

// goldenRow is one pinned baseline outcome: the set size, the simulator's
// round, message and bit counts, and FNV-64a digests of the member sets.
// marked and fallback are Wu–Li's pre-fallback set and join count (zero
// for the other baselines).
type goldenRow struct {
	graph, algo  string
	seed         int64
	size, rounds int
	msgs, bits   int64
	inDS, marked uint64
	fallback     int
}

// setDigest hashes the member ids of a vertex set.
func setDigest(set []bool) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for v, in := range set {
		if in {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// runGolden runs one baseline and reduces its result to a goldenRow.
func runGolden(t *testing.T, name string, g *graph.Graph, algo string, seed int64, opts ...sim.Option) goldenRow {
	t.Helper()
	row := goldenRow{graph: name, algo: algo, seed: seed}
	var res *Result
	var err error
	switch algo {
	case "jrs":
		res, err = JRS(g, seed, opts...)
	case "mis":
		res, err = LubyMIS(g, seed, opts...)
	case "wuli":
		var wr *WuLiResult
		wr, err = WuLi(g, opts...)
		if err == nil {
			res = &wr.Result
			row.marked = setDigest(wr.Marked)
			row.fallback = wr.FallbackJoins
		}
	}
	if err != nil {
		t.Fatalf("%s %s seed %d: %v", name, algo, seed, err)
	}
	row.size, row.rounds, row.msgs, row.bits = res.Size, res.Rounds, res.Messages, res.Bits
	row.inDS = setDigest(res.InDS)
	return row
}

// TestDistributedBaselinesGolden pins JRS, LubyMIS and WuLi bit for bit —
// chosen vertices, rounds, messages and bits — on a fixed corpus, at
// several worker counts. The property tests above would miss a change
// that keeps the set dominating but picks different vertices or sends a
// different number of messages; this table does not.
func TestDistributedBaselinesGolden(t *testing.T) {
	want := goldenRows
	var got []goldenRow
	workerOpts := [][]sim.Option{{sim.WithWorkers(1)}, {sim.WithWorkers(3)}, nil}
	for _, c := range goldenCorpus(t) {
		for _, algo := range []string{"jrs", "mis", "wuli"} {
			seeds := []int64{1, 2, 3, 4, 5}
			if algo == "wuli" {
				seeds = []int64{0} // Wu–Li draws no randomness
			}
			for _, seed := range seeds {
				var first goldenRow
				for i, opts := range workerOpts {
					row := runGolden(t, c.name, c.g, algo, seed, opts...)
					if i == 0 {
						first = row
					} else if row != first {
						t.Errorf("%s %s seed %d: workers variant %d gave %+v, want %+v",
							c.name, algo, seed, i, row, first)
					}
				}
				got = append(got, first)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// goldenRows was recorded from the goroutine-per-node closure
// implementation of the three baselines; a port to another engine API must
// reproduce it exactly.
var goldenRows = []goldenRow{
	{"udg", "jrs", 1, 33, 36, 9982, 24749, 0x5e173cfbc49eb8d4, 0x0, 0},
	{"udg", "jrs", 2, 29, 36, 11980, 31302, 0xb7f42915249a6ef7, 0x0, 0},
	{"udg", "jrs", 3, 29, 24, 7625, 18418, 0xe32f27b4d1a0fbc7, 0x0, 0},
	{"udg", "jrs", 4, 26, 42, 14516, 35534, 0x70f2b70421a29c8, 0x0, 0},
	{"udg", "jrs", 5, 29, 30, 8436, 20188, 0x8763665300982cf1, 0x0, 0},
	{"udg", "mis", 1, 24, 6, 1776, 53651, 0x721fa5b167140e02, 0x0, 0},
	{"udg", "mis", 2, 24, 6, 1834, 57134, 0x38e7d395a7789735, 0x0, 0},
	{"udg", "mis", 3, 25, 9, 1975, 65541, 0x4daa0adb37093861, 0x0, 0},
	{"udg", "mis", 4, 23, 9, 1824, 56491, 0xe1f30febd10e3b99, 0x0, 0},
	{"udg", "mis", 5, 25, 6, 1770, 52829, 0xb5fe06091cc20db9, 0x0, 0},
	{"udg", "wuli", 0, 50, 5, 3152, 40353, 0x652fd99f274f54fc, 0x652fd99f274f54fc, 0},
	{"gnp", "jrs", 1, 22, 30, 6656, 13781, 0xe4d1c33f9dcb3cd7, 0x0, 0},
	{"gnp", "jrs", 2, 20, 36, 7834, 16410, 0xca47e89db11b2b61, 0x0, 0},
	{"gnp", "jrs", 3, 25, 30, 6704, 13651, 0xf7e24c6dcc1de7c4, 0x0, 0},
	{"gnp", "jrs", 4, 21, 36, 7208, 14863, 0x74b0bfa97d6983a3, 0x0, 0},
	{"gnp", "jrs", 5, 19, 30, 6722, 14310, 0xc1df50921573706a, 0x0, 0},
	{"gnp", "mis", 1, 29, 9, 1310, 42461, 0xaffe306cd5312955, 0x0, 0},
	{"gnp", "mis", 2, 27, 9, 1202, 36943, 0xae5222674f049e22, 0x0, 0},
	{"gnp", "mis", 3, 29, 9, 1244, 39283, 0xc821854f49d8494e, 0x0, 0},
	{"gnp", "mis", 4, 29, 9, 1340, 44421, 0x8d2158c6e037b3ab, 0x0, 0},
	{"gnp", "mis", 5, 32, 9, 1218, 36851, 0xe966b6fa7074e367, 0x0, 0},
	{"gnp", "wuli", 0, 90, 5, 1968, 18444, 0x27749b04b69acc14, 0x27749b04b69acc14, 0},
	{"grid", "jrs", 1, 26, 36, 3206, 6110, 0xb9e70ae468475b84, 0x0, 0},
	{"grid", "jrs", 2, 28, 30, 3346, 6008, 0xcec711904b40b6e3, 0x0, 0},
	{"grid", "jrs", 3, 29, 18, 2566, 5142, 0xa19cea09e0a1a6ac, 0x0, 0},
	{"grid", "jrs", 4, 27, 30, 3115, 5814, 0xc32ca7d2ad1ce38a, 0x0, 0},
	{"grid", "jrs", 5, 27, 42, 3366, 6381, 0x694e8a87638b7199, 0x0, 0},
	{"grid", "mis", 1, 28, 9, 706, 22298, 0xf5ad279cad0ca804, 0x0, 0},
	{"grid", "mis", 2, 27, 6, 630, 17720, 0x1b81069e10222ebd, 0x0, 0},
	{"grid", "mis", 3, 27, 9, 666, 20095, 0x3d2bbd3febe0155d, 0x0, 0},
	{"grid", "mis", 4, 26, 9, 656, 19474, 0x8577fd44dc36e327, 0x0, 0},
	{"grid", "mis", 5, 29, 6, 675, 20174, 0x1972f9e4cefe3b18, 0x0, 0},
	{"grid", "wuli", 0, 72, 5, 1016, 5662, 0x46edf10679a98025, 0x46edf10679a98025, 0},
	{"tree", "jrs", 1, 32, 30, 1098, 1897, 0x63e52ca9a1c29824, 0x0, 0},
	{"tree", "jrs", 2, 32, 24, 1134, 1991, 0xe79f9ad62435b48a, 0x0, 0},
	{"tree", "jrs", 3, 30, 18, 1033, 1828, 0xb423dd4dcb1041fa, 0x0, 0},
	{"tree", "jrs", 4, 30, 30, 1204, 2065, 0x710a73152f93ab0c, 0x0, 0},
	{"tree", "jrs", 5, 29, 24, 1207, 2095, 0x7cf31e51534f6899, 0x0, 0},
	{"tree", "mis", 1, 37, 6, 351, 9956, 0x1168d0cf82dcfb72, 0x0, 0},
	{"tree", "mis", 2, 40, 6, 353, 9902, 0xb35450012731db74, 0x0, 0},
	{"tree", "mis", 3, 40, 6, 363, 10432, 0x983708a220cd273a, 0x0, 0},
	{"tree", "mis", 4, 38, 6, 348, 9770, 0x6d4f61731db163b5, 0x0, 0},
	{"tree", "mis", 5, 38, 6, 356, 10185, 0x86a209c65df1d84c, 0x0, 0},
	{"tree", "wuli", 0, 34, 5, 552, 2163, 0xca7a02251b7909ac, 0xca7a02251b7909ac, 0},
	{"star", "jrs", 1, 1, 6, 590, 1711, 0x4d25767f9dce13f5, 0x0, 0},
	{"star", "jrs", 2, 1, 6, 590, 1711, 0x4d25767f9dce13f5, 0x0, 0},
	{"star", "jrs", 3, 1, 6, 590, 1711, 0x4d25767f9dce13f5, 0x0, 0},
	{"star", "jrs", 4, 1, 6, 590, 1711, 0x4d25767f9dce13f5, 0x0, 0},
	{"star", "jrs", 5, 1, 6, 590, 1711, 0x4d25767f9dce13f5, 0x0, 0},
	{"star", "mis", 1, 59, 6, 347, 10656, 0x278d6ba1950763f5, 0x0, 0},
	{"star", "mis", 2, 59, 6, 325, 9331, 0x278d6ba1950763f5, 0x0, 0},
	{"star", "mis", 3, 59, 6, 300, 7875, 0x278d6ba1950763f5, 0x0, 0},
	{"star", "mis", 4, 59, 6, 296, 7597, 0x278d6ba1950763f5, 0x0, 0},
	{"star", "mis", 5, 59, 6, 318, 8967, 0x278d6ba1950763f5, 0x0, 0},
	{"star", "wuli", 0, 1, 5, 472, 17936, 0x4d25767f9dce13f5, 0x4d25767f9dce13f5, 0},
	{"cliquechain", "jrs", 1, 8, 18, 4290, 13369, 0x29478dabc34310b6, 0x0, 0},
	{"cliquechain", "jrs", 2, 9, 18, 3168, 9802, 0x55d02b2e9e2455fc, 0x0, 0},
	{"cliquechain", "jrs", 3, 8, 6, 2275, 7137, 0xc8f65eef5d64f662, 0x0, 0},
	{"cliquechain", "jrs", 4, 10, 24, 5217, 15396, 0xed2c48d3a83488b9, 0x0, 0},
	{"cliquechain", "jrs", 5, 9, 12, 3096, 9658, 0x496f055a6ddb0620, 0x0, 0},
	{"cliquechain", "mis", 1, 6, 3, 932, 27879, 0x1566796ea47d7a9f, 0x0, 0},
	{"cliquechain", "mis", 2, 6, 3, 933, 27798, 0x9f1d34e9c9b3ca9e, 0x0, 0},
	{"cliquechain", "mis", 3, 6, 3, 933, 28029, 0xaeb6e3f23462bc50, 0x0, 0},
	{"cliquechain", "mis", 4, 6, 3, 935, 27836, 0xd7c51394fedec590, 0x0, 0},
	{"cliquechain", "mis", 5, 6, 3, 933, 27967, 0xae684ca5a6c1a352, 0x0, 0},
	{"cliquechain", "wuli", 0, 10, 5, 1768, 18958, 0x1af186412fc6cf90, 0x1af186412fc6cf90, 0},
	{"clique", "jrs", 1, 1, 12, 1331, 4235, 0xad2aca7747985764, 0x0, 0},
	{"clique", "jrs", 2, 1, 6, 671, 2123, 0xd301e6ef1629ad3, 0x0, 0},
	{"clique", "jrs", 3, 2, 6, 682, 2134, 0x2ab27252177e10e9, 0x0, 0},
	{"clique", "jrs", 4, 2, 18, 2002, 6358, 0xdb77547a31baba8, 0x0, 0},
	{"clique", "jrs", 5, 1, 6, 671, 2123, 0x2d401a55eec16520, 0x0, 0},
	{"clique", "mis", 1, 1, 3, 275, 8250, 0x2d401a55eec16520, 0x0, 0},
	{"clique", "mis", 2, 1, 3, 275, 8371, 0x8d1ace904a398d17, 0x0, 0},
	{"clique", "mis", 3, 1, 3, 275, 8382, 0x6d3572669b2cde42, 0x0, 0},
	{"clique", "mis", 4, 1, 3, 275, 8382, 0xed202287f403d086, 0x0, 0},
	{"clique", "mis", 5, 1, 3, 275, 8338, 0xad2aca7747985764, 0x0, 0},
	{"clique", "wuli", 0, 1, 5, 660, 4642, 0x4d25767f9dce13f5, 0xcbf29ce484222325, 1},
	{"path", "jrs", 1, 7, 12, 294, 556, 0x7b414ad0adeac776, 0x0, 0},
	{"path", "jrs", 2, 8, 12, 238, 429, 0x717d55394131a64e, 0x0, 0},
	{"path", "jrs", 3, 9, 24, 322, 558, 0x33b20f235f79820a, 0x0, 0},
	{"path", "jrs", 4, 7, 18, 242, 431, 0xa15961c60edd8a30, 0x0, 0},
	{"path", "jrs", 5, 10, 18, 310, 502, 0xf445cc6ef3d25af7, 0x0, 0},
	{"path", "mis", 1, 7, 6, 81, 2269, 0xc6a5efdaad52c29c, 0x0, 0},
	{"path", "mis", 2, 8, 6, 80, 2162, 0x5a801b2fb139fbda, 0x0, 0},
	{"path", "mis", 3, 7, 9, 90, 2790, 0x57f1a7c3ba98507f, 0x0, 0},
	{"path", "mis", 4, 7, 6, 81, 2284, 0xf4d0377da706d57e, 0x0, 0},
	{"path", "mis", 5, 8, 6, 85, 2390, 0x4bd660ec381a5ade, 0x0, 0},
	{"path", "wuli", 0, 15, 5, 128, 299, 0x5ffe0b97d0791155, 0x5ffe0b97d0791155, 0},
	{"empty", "jrs", 1, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "jrs", 2, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "jrs", 3, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "jrs", 4, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "jrs", 5, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "mis", 1, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "mis", 2, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "mis", 3, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "mis", 4, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "mis", 5, 0, 0, 0, 0, 0xcbf29ce484222325, 0x0, 0},
	{"empty", "wuli", 0, 0, 0, 0, 0, 0xcbf29ce484222325, 0xcbf29ce484222325, 0},
	{"singleton", "jrs", 1, 1, 6, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "jrs", 2, 1, 6, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "jrs", 3, 1, 6, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "jrs", 4, 1, 6, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "jrs", 5, 1, 6, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "mis", 1, 1, 3, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "mis", 2, 1, 3, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "mis", 3, 1, 3, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "mis", 4, 1, 3, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "mis", 5, 1, 3, 0, 0, 0x4d25767f9dce13f5, 0x0, 0},
	{"singleton", "wuli", 0, 1, 5, 0, 0, 0x4d25767f9dce13f5, 0xcbf29ce484222325, 1},
}
