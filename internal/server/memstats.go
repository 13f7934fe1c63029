package server

import (
	"math"
	rtmetrics "runtime/metrics"

	"hyperprov/internal/engine"
)

// Runtime memory observability for the allocation-free hot path: the
// engine's claim is that steady-state reads allocate nothing, and the
// way to watch that claim in production is GC behavior — live heap,
// pause distribution, cycle count. These gauges come from
// runtime/metrics (the GC-internal accounting, cheap to sample) and
// are served in the memory section of /v1/stats.

// memMetricNames are the runtime/metrics samples the memory section
// reads. Read defensively: a name missing in some future runtime
// yields KindBad and its fields are simply omitted.
var memMetricNames = []string{
	"/gc/heap/live:bytes",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
}

// MemoryStats is the sampled runtime memory block. Pause percentiles
// are in microseconds, computed over the runtime's whole-process pause
// histogram (cumulative since start).
type MemoryStats struct {
	HeapLiveBytes uint64  `json:"heapLiveBytes"`
	GCCycles      uint64  `json:"gcCycles"`
	Goroutines    uint64  `json:"goroutines"`
	GCPauseP50us  float64 `json:"gcPauseP50us"`
	GCPauseP90us  float64 `json:"gcPauseP90us"`
	GCPauseP99us  float64 `json:"gcPauseP99us"`
}

// ReadMemoryStats samples the runtime. Exported for the serve command
// and benchmarks; allocation cost is a handful of samples per call,
// nowhere near any hot path.
func ReadMemoryStats() MemoryStats {
	samples := make([]rtmetrics.Sample, len(memMetricNames))
	for i, name := range memMetricNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	var ms MemoryStats
	for _, s := range samples {
		switch s.Name {
		case "/gc/heap/live:bytes":
			if s.Value.Kind() == rtmetrics.KindUint64 {
				ms.HeapLiveBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == rtmetrics.KindUint64 {
				ms.GCCycles = s.Value.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == rtmetrics.KindUint64 {
				ms.Goroutines = s.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == rtmetrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				ms.GCPauseP50us = histPercentile(h, 0.50) * 1e6
				ms.GCPauseP90us = histPercentile(h, 0.90) * 1e6
				ms.GCPauseP99us = histPercentile(h, 0.99) * 1e6
			}
		}
	}
	return ms
}

// histPercentile reads the q-quantile out of a runtime histogram,
// reporting the upper bound of the bucket where the cumulative count
// crosses q (0 for an empty histogram; the last finite bound when the
// crossing lands in the +Inf overflow bucket).
func histPercentile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			// Bucket i spans (Buckets[i], Buckets[i+1]].
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// collectMemoryStats contributes the memory section of /v1/stats.
func collectMemoryStats(s *Server, e engine.DB, out map[string]any) {
	ms := ReadMemoryStats()
	out["heapLiveBytes"] = ms.HeapLiveBytes
	out["gcCycles"] = ms.GCCycles
	out["goroutines"] = ms.Goroutines
	out["gcPauseP50us"] = ms.GCPauseP50us
	out["gcPauseP90us"] = ms.GCPauseP90us
	out["gcPauseP99us"] = ms.GCPauseP99us
}
