package kwbench

import "kwmds/internal/hdr"

// latencySummary converts the histogram's percentile block into the
// report-schema shape.
func latencySummary(h *hdr.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		P50: s.P50, P90: s.P90, P99: s.P99, P999: s.P999,
		Min: s.Min, Max: s.Max, Mean: s.Mean,
	}
}
