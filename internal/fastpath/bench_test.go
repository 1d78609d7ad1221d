package fastpath

import (
	"sync"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// stageCase is one configuration of the stage benchmarks. The udg rows at
// k = 3 are the solve-udg100k shape, where nearly every white→gray
// transition takes the dense rebuild; the PrefAttach rows and Alg2 at k = 6
// spread the coverage over many iterations, so most transitions take the
// decrement path instead.
type stageCase struct {
	name  string
	graph func() (*graph.Graph, error)
	opt   Options
}

var (
	benchUDG = sync.OnceValues(func() (*graph.Graph, error) { return gen.UnitDisk(100000, 0.0065, 1) })
	benchPA  = sync.OnceValues(func() (*graph.Graph, error) { return gen.PrefAttach(100000, 3, 1) })
)

var stageCases = []stageCase{
	{"udg100k-alg3-k3", benchUDG, Options{K: 3, Algorithm: Alg3, Seed: 1, Workers: 1}},
	{"udg100k-alg2-k6", benchUDG, Options{K: 6, Algorithm: Alg2, Seed: 1, Workers: 1}},
	{"pa100k-alg3-k3", benchPA, Options{K: 3, Algorithm: Alg3, Seed: 1, Workers: 1}},
	{"pa100k-alg3-k8", benchPA, Options{K: 8, Algorithm: Alg3, Seed: 1, Workers: 1}},
}

// reportPerAdj adds the ns-per-adjacency-entry metric: the stages sweep
// CSR rows, so this normalizes across graphs of different density.
func reportPerAdj(b *testing.B, g *graph.Graph) {
	_, adj := g.CSR()
	if len(adj) > 0 && b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(adj)), "ns/adj")
	}
}

// BenchmarkFractionalFastpath times the LP stage alone (Fractional) on one
// worker, after a warm-up run has sized the buffers and cached δ⁽²⁾.
func BenchmarkFractionalFastpath(b *testing.B) {
	for _, tc := range stageCases {
		b.Run(tc.name, func(b *testing.B) {
			g, err := tc.graph()
			if err != nil {
				b.Fatal(err)
			}
			s := New()
			if _, err := s.Fractional(g, tc.opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Fractional(g, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPerAdj(b, g)
		})
	}
}

// BenchmarkRoundFastpath times the rounding stage alone (Round) on one
// worker, over the x-vector the same configuration's LP stage produces.
func BenchmarkRoundFastpath(b *testing.B) {
	for _, tc := range stageCases {
		b.Run(tc.name, func(b *testing.B) {
			g, err := tc.graph()
			if err != nil {
				b.Fatal(err)
			}
			s := New()
			x, err := s.Fractional(g, tc.opt)
			if err != nil {
				b.Fatal(err)
			}
			x = append([]float64(nil), x...)
			if _, err := s.Round(g, x, tc.opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Round(g, x, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportPerAdj(b, g)
		})
	}
}
