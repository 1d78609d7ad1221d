package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie strictly above a reported tail
// percentile: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the q-quantile among n
// sorted samples: the smallest r with r/n ≥ q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// p99Reportable reports whether a p99 over n samples has at least
// minBeyond samples beyond it (n ≥ 1000).
func p99Reportable(n int) bool { return n > 0 && beyond(n, 0.99) >= minBeyond }

// tailQuantile is the quantile the tail metric reports over n samples: p99
// when at least minBeyond samples lie beyond it, otherwise the highest
// quantile that still has minBeyond samples beyond it. ok is false when
// there are too few samples for any tail (n ≤ minBeyond).
func tailQuantile(n int) (q float64, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	if p99Reportable(n) {
		return 0.99, true
	}
	return float64(n-minBeyond) / float64(n), true
}

// quantile returns the nearest-rank q-quantile of the ascending samples s
// (NaN when empty).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rank(len(s), q)-1]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty); the mean of the two middle values for an
// even count, so a median of a few setup repeats is not biased upward.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// unattributed is the part of an end-to-end median no measured layer
// accounts for: the end-to-end median minus the sum of the layers'
// medians. It is negative when the layers, timed in isolation, cost more
// than the end-to-end path (medians do not add exactly).
func unattributed(endToEnd float64, layers ...float64) float64 {
	rest := endToEnd
	for _, l := range layers {
		rest -= l
	}
	return rest
}

// validName reports whether s is a usable metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a usable unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			strings.ContainsRune("_/%.-", c)
		if !ok {
			return false
		}
	}
	return true
}

// promSample is a scrape of a Prometheus text exposition: series key (the
// metric name plus its label set exactly as exposed) → value.
type promSample map[string]float64

// parseProm reads the sample lines of a text exposition; comments and
// blank lines are skipped.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[key] − before[key]; a series missing from a scrape
// counts as 0 (some families appear only once they have a sample).
func delta(before, after promSample, key string) float64 {
	return after[key] - before[key]
}

// ratio returns num/den, or 0 when den is 0 (no events: nothing to rate).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
