package fleet

import (
	"time"

	"repro/internal/mathx"
)

// WorkerState is a worker's health as the coordinator sees it.
type WorkerState string

const (
	// WorkerLive is a healthy worker: deliveries go straight through.
	WorkerLive WorkerState = "live"
	// WorkerSuspect is a worker with recent consecutive failures, being
	// retried on a backoff schedule; its nodes' events journal and wait.
	WorkerSuspect WorkerState = "suspect"
	// WorkerDown is a declared-dead worker: its nodes failed over, and
	// the coordinator probes it on a capped backoff for a rejoin.
	WorkerDown WorkerState = "down"
)

// workerHealth is the coordinator's per-worker health ledger. All times
// are telemetry time — the coordinator clock advances with the event
// stream, never with the wall clock — and the retry jitter comes from a
// per-worker RNG forked from the coordinator seed, so a fault scenario
// replays byte-identically.
type workerHealth struct {
	id    int
	state WorkerState
	// failures counts consecutive failed delivery/probe attempts;
	// reaching the failure threshold declares the worker dead.
	failures int
	// nextRetry is the earliest telemetry time of the next attempt
	// while suspect or down.
	nextRetry time.Time
	// modelStale marks a worker that missed a committed deploy (down,
	// or its commit failed); re-staged when it comes back.
	modelStale bool
	// incarnation is the Response.Incarnation the worker last answered
	// an ingestion-path call with.
	incarnation uint64
	rng         *mathx.RNG
}

// restarted records the incarnation a worker answered with and reports
// whether it differs from the last one seen: the worker restarted and
// lost every node's state in between.
func (h *workerHealth) restarted(incarnation uint64) bool {
	changed := incarnation != h.incarnation
	h.incarnation = incarnation
	return changed
}

// backoff computes the delay before the next retry after the attempt-th
// consecutive failure (1-based): exponential doubling from base, a
// ±50% deterministic jitter to de-synchronize probe schedules, capped at
// retryBackoffMax.
func (h *workerHealth) backoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	jitter := 0.5 + h.rng.Float64()
	return min(time.Duration(float64(d)*jitter), retryBackoffMax)
}
