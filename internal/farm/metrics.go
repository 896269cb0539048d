package farm

import (
	"sync/atomic"
	"time"
)

// Metrics aggregates evaluation throughput across every pool that shares it
// — the campaign daemon publishes one instance for all jobs.
type Metrics struct {
	start   time.Time
	evals   atomic.Int64
	busyNs  atomic.Int64
	batches atomic.Int64
	chunks  atomic.Int64
}

// NewMetrics starts the clock.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// chunkDone records one worker pass over a chunk of n evaluations.
func (m *Metrics) chunkDone(n int, d time.Duration) {
	m.evals.Add(int64(n))
	m.busyNs.Add(int64(d))
	m.chunks.Add(1)
}

// MetricsSnapshot is a point-in-time reading.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Evaluations   int64   `json:"evaluations"`
	Batches       int64   `json:"batches"`
	// Chunks counts worker passes, one per chunk dispatched: Evaluations
	// over Chunks is the mean chunk size.
	Chunks      int64   `json:"chunks"`
	BusySeconds float64 `json:"busy_seconds"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	// Utilization is busy worker-time over budget×uptime — how much of the
	// configured worker budget is doing evaluations.
	Utilization float64 `json:"worker_utilization"`
}

// Snapshot reads the counters; budget is the campaign's worker budget (for
// the utilization figure; <=0 omits it).
func (m *Metrics) Snapshot(budget int) MetricsSnapshot {
	up := time.Since(m.start).Seconds()
	s := MetricsSnapshot{
		UptimeSeconds: up,
		Evaluations:   m.evals.Load(),
		Batches:       m.batches.Load(),
		Chunks:        m.chunks.Load(),
		BusySeconds:   time.Duration(m.busyNs.Load()).Seconds(),
	}
	if up > 0 {
		s.EvalsPerSec = float64(s.Evaluations) / up
		if budget > 0 {
			s.Utilization = s.BusySeconds / (up * float64(budget))
		}
	}
	return s
}
