package kwmds

import (
	"math"
	"testing"

	"kwmds/internal/testsupport"
)

// TestRoundFractionalMatchesDominatingSet pins RoundFractional's contract:
// rounding the fractional solution FractionalDominatingSet returns for
// opts reproduces DominatingSet(g, opts) bit for bit — membership, size,
// LP objective, join counts and the simulation statistics — on both
// engines and over a degree-ordered relabeling, for every LP configuration,
// rounding variant and seed. One fractional solution serves all variants
// and seeds of its configuration, the reuse the serve subsystem's LP memo
// relies on.
func TestRoundFractionalMatchesDominatingSet(t *testing.T) {
	mk := func(g *Graph, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	corpus := []struct {
		name string
		g    *Graph
	}{
		{"gnp-150", mk(GNP(150, 0.05, 301))},
		{"udg-150", mk(UnitDisk(150, 0.15, 302))},
		{"grid-12x12", mk(Grid(12, 12))},
		{"tree-150", mk(RandomTree(150, 303))},
	}
	for _, w := range corpus {
		costs := make([]float64, w.g.N())
		for v := range costs {
			costs[v] = 1 + float64(v%5)
		}
		engines := []struct {
			name string
			base Options
		}{
			{"sim", Options{}},
			{"fast", Options{Sequential: true}},
			{"fast-reordered", Options{Sequential: true, Reordered: Reorder(w.g)}},
		}
		lps := []struct {
			name string
			set  func(*Options)
		}{
			{"alg3", func(*Options) {}},
			{"alg2", func(o *Options) { o.KnownDelta = true }},
			{"weighted", func(o *Options) { o.Weights = costs }},
		}
		for _, e := range engines {
			for _, lp := range lps {
				for k := 1; k <= 4; k++ {
					opts := e.base
					opts.K = k
					lp.set(&opts)
					frac, err := FractionalDominatingSet(w.g, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, variant := range []RoundingVariant{VariantLn, VariantLnMinusLnLn} {
						for seed := int64(1); seed <= 3; seed++ {
							o := opts
							o.Variant, o.Seed = variant, seed
							want, err := DominatingSet(w.g, o)
							if err != nil {
								t.Fatal(err)
							}
							got, err := RoundFractional(w.g, frac, o)
							if err != nil {
								t.Fatalf("%s/%s/%s k=%d variant %d seed %d: %v", w.name, e.name, lp.name, k, variant, seed, err)
							}
							testsupport.RequireBitIdentical(t, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRoundFractionalRejectsBadInput: a fractional vector of the wrong
// length or with a NaN entry, or a nil result, is refused on both engines,
// as are invalid options.
func TestRoundFractionalRejectsBadInput(t *testing.T) {
	g, err := UnitDisk(60, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []bool{false, true} {
		opts := Options{K: 2, Sequential: seq}
		frac, err := FractionalDominatingSet(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		short := *frac
		short.X = frac.X[:g.N()-1]
		nan := *frac
		nan.X = append([]float64(nil), frac.X...)
		nan.X[7] = math.NaN()
		for name, f := range map[string]*FractionalResult{"short": &short, "nan": &nan, "nil": nil} {
			if _, err := RoundFractional(g, f, opts); err == nil {
				t.Errorf("sequential=%v: %s fractional result accepted", seq, name)
			}
		}
		if _, err := RoundFractional(g, frac, Options{K: -1, Sequential: seq}); err == nil {
			t.Errorf("sequential=%v: invalid options accepted", seq)
		}
	}
}
