package fastpath

import (
	"fmt"
	"slices"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// grayTwin copies the state the white→gray transition reads and writes,
// so each path can run on its own copy of one mid-run state.
func grayTwin(s *Solver) *Solver {
	return &Solver{
		n: s.n, nw: s.nw, off: s.off, adj: s.adj,
		dtil:       slices.Clone(s.dtil[:s.n]),
		support:    s.support.Clone(),
		gray:       s.gray.Clone(),
		dirty:      s.dirty.Clone(),
		whiteCount: s.whiteCount,
		nchunks:    s.nchunks,
		newGray:    s.newGray,
	}
}

// checkGrayInvariant verifies a transition's outcome from scratch: δ̃(v) is
// the number of white vertices in N[v], the support is exactly the set of
// vertices with δ̃ ≥ 1, and the dirty scratch set is empty again.
func checkGrayInvariant(t *testing.T, ctx string, s *Solver) {
	t.Helper()
	for v := 0; v < s.n; v++ {
		want := int32(0)
		if !s.gray.Test(v) {
			want++
		}
		for _, u := range s.adj[s.off[v]:s.off[v+1]] {
			if !s.gray.Test(int(u)) {
				want++
			}
		}
		if s.dtil[v] != want {
			t.Fatalf("%s: δ̃(%d) = %d, want %d", ctx, v, s.dtil[v], want)
		}
		if s.support.Test(v) != (want > 0) {
			t.Fatalf("%s: support bit of %d is %v with δ̃ = %d", ctx, v, s.support.Test(v), want)
		}
	}
	if !s.dirty.None() {
		t.Fatalf("%s: dirty set not empty after the transition", ctx)
	}
}

// TestGrayTransitionsAgree drives both white→gray paths, the dense rebuild
// and the incremental decrement, from every transition state that real LP
// runs reach, and requires identical δ̃, support words, gray words and
// white counts. The table must reach each path on its own choice at least
// once, so neither path is only ever exercised here.
func TestGrayTransitionsAgree(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	corpus := []struct {
		name string
		g    *graph.Graph
	}{
		{"udg-600", mk(gen.UnitDisk(600, 0.07, 5))},
		{"gnp-400", mk(gen.GNP(400, 0.02, 6))},
		{"pa-500", mk(gen.PrefAttach(500, 3, 7))},
		{"star-50", mk(gen.Star(50))},
		{"path-100", mk(gen.Path(100))},
		{"cliquechain-10x6", mk(gen.CliqueChain(10, 6))},
	}
	var chose [2]int // transitions per path applyNewGray picked: decrement, rebuild
	for _, w := range corpus {
		costs := costsFor(w.g)
		for _, alg := range []Algorithm{Alg2, Alg3, AlgWeighted} {
			for k := 1; k <= 6; k++ {
				opt := Options{K: k, Algorithm: alg, Workers: 1}
				if alg == AlgWeighted {
					opt.Costs = costs
				}
				name := fmt.Sprintf("%s alg%d k=%d", w.name, alg, k)
				s := New()
				step := 0
				s.grayProbe = func(s *Solver, rebuild bool) {
					if rebuild {
						chose[1]++
					} else {
						chose[0]++
					}
					ctx := fmt.Sprintf("%s transition %d", name, step)
					step++
					a, b := grayTwin(s), grayTwin(s)
					a.rebuildWhite()
					b.decrementWhite()
					if !slices.Equal(a.dtil, b.dtil) {
						t.Fatalf("%s: δ̃ differs between rebuild and decrement", ctx)
					}
					if !slices.Equal(a.support.Words(), b.support.Words()) {
						t.Fatalf("%s: support words differ between rebuild and decrement", ctx)
					}
					if !slices.Equal(a.gray.Words(), b.gray.Words()) || a.whiteCount != b.whiteCount {
						t.Fatalf("%s: gray state differs between rebuild and decrement", ctx)
					}
					checkGrayInvariant(t, ctx, a)
				}
				if _, err := s.Fractional(w.g, opt); err != nil {
					t.Fatal(err)
				}
				if step == 0 {
					t.Fatalf("%s: no white→gray transition ran", name)
				}
			}
		}
	}
	if chose[0] == 0 || chose[1] == 0 {
		t.Fatalf("path choices %v (decrement, rebuild): the table must reach both", chose)
	}
	t.Logf("transitions per path (decrement, rebuild): %v", chose)
}
