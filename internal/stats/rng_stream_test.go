package stats

import (
	"math"
	"testing"
)

// TestStreamFloat64MatchesNewStreamRand pins the contract the rounding
// fastpath relies on: StreamFloat64(seed, stream) is bit-identical to the
// first Float64 drawn from NewStreamRand(seed, stream), across negative
// and extreme seeds and streams.
func TestStreamFloat64MatchesNewStreamRand(t *testing.T) {
	seeds := []int64{0, 1, 7, 42, -1, -3, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	streams := []int64{-1, math.MinInt64, math.MaxInt64, 1 << 31}
	for stream := int64(0); stream < 500; stream++ {
		streams = append(streams, stream)
	}
	for _, seed := range seeds {
		for _, stream := range streams {
			want := NewStreamRand(seed, stream).Float64()
			got := StreamFloat64(seed, stream)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("StreamFloat64(%d, %d) = %v, want %v", seed, stream, got, want)
			}
		}
	}
}

// TestStreamFloat64NoAlloc keeps the fast flip genuinely heap-free.
func TestStreamFloat64NoAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		StreamFloat64(7, 123)
	})
	if allocs != 0 {
		t.Fatalf("StreamFloat64 allocates %.1f objects per call, want 0", allocs)
	}
}
