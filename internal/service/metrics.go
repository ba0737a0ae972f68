package service

import "repro/internal/obs"

// Service-level metric families, on top of whatever the jobs themselves
// emit (field_*, cluster_*, exp_* series all land in the same registry
// when the daemon wires one observer through everything).
const (
	// MetricJobsSubmitted counts accepted job submissions.
	MetricJobsSubmitted = "service_jobs_submitted_total"
	// MetricJobsFinished counts terminal transitions, labeled
	// state="done"|"failed"|"cancelled"|"dead".
	MetricJobsFinished = "service_jobs_finished_total"
	// MetricJobsRunning gauges jobs in state running, derived from the
	// job table at every state change.
	MetricJobsRunning = "service_jobs_running"
	// MetricQueueDepth gauges jobs waiting in the priority scheduler,
	// due and parked alike.
	MetricQueueDepth = "service_queue_depth"
	// MetricJobSeconds is a histogram of per-attempt wall-clock seconds.
	MetricJobSeconds = "service_job_seconds"
	// MetricCheckpoints counts epoch-boundary checkpoints written.
	MetricCheckpoints = "service_checkpoints_total"
	// MetricResumes counts field jobs resumed from a spooled checkpoint.
	MetricResumes = "service_resumes_total"
	// MetricHTTPRequests counts API requests, labeled code="<status>".
	MetricHTTPRequests = "service_http_requests_total"
	// MetricRetries counts failed attempts re-queued under a backoff
	// park (dead-letter transitions are not retries and count elsewhere).
	MetricRetries = "service_retries_total"
	// MetricDeadLetter counts jobs moved to the dead-letter spool after
	// exhausting their retry budget.
	MetricDeadLetter = "service_deadletter_total"
	// MetricBreakerState gauges circuit breakers per state, labeled
	// state="open"|"half_open" (closed breakers carry no state worth
	// counting).
	MetricBreakerState = "service_breaker_state"
	// MetricSchedDelay is a histogram of seconds between a job becoming
	// due and a worker dispatching it — the scheduler's queueing delay.
	MetricSchedDelay = "service_sched_delay_seconds"
)

var (
	seriesJobsDone        = obs.Series(MetricJobsFinished, "state", string(StateDone))
	seriesJobsFailed      = obs.Series(MetricJobsFinished, "state", string(StateFailed))
	seriesJobsCancelled   = obs.Series(MetricJobsFinished, "state", string(StateCancelled))
	seriesJobsDead        = obs.Series(MetricJobsFinished, "state", string(StateDead))
	seriesBreakerOpen     = obs.Series(MetricBreakerState, "state", "open")
	seriesBreakerHalfOpen = obs.Series(MetricBreakerState, "state", "half_open")
)

// finishedSeries maps a terminal state to its counter series.
func finishedSeries(s State) string {
	switch s {
	case StateDone:
		return seriesJobsDone
	case StateFailed:
		return seriesJobsFailed
	case StateDead:
		return seriesJobsDead
	default:
		return seriesJobsCancelled
	}
}

// RegisterMetrics pre-registers the service series with help text;
// emission works without it, registering makes /metrics self-describing.
func RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricJobsSubmitted, "accepted job submissions")
	reg.Counter(seriesJobsDone, "terminal job transitions")
	reg.Counter(seriesJobsFailed, "terminal job transitions")
	reg.Counter(seriesJobsCancelled, "terminal job transitions")
	reg.Counter(seriesJobsDead, "terminal job transitions")
	reg.Gauge(MetricJobsRunning, "jobs in state running")
	reg.Gauge(MetricQueueDepth, "jobs waiting in the priority scheduler, due or parked")
	reg.Histogram(MetricJobSeconds, "per-attempt job wall-clock in seconds", nil)
	reg.Counter(MetricCheckpoints, "epoch-boundary checkpoints written")
	reg.Counter(MetricResumes, "field jobs resumed from a spooled checkpoint")
	reg.Counter(MetricRetries, "failed attempts re-queued with backoff")
	reg.Counter(MetricDeadLetter, "jobs dead-lettered after retry exhaustion")
	reg.Gauge(seriesBreakerOpen, "circuit breakers per state")
	reg.Gauge(seriesBreakerHalfOpen, "circuit breakers per state")
	reg.Histogram(MetricSchedDelay, "seconds between a job coming due and dispatch", nil)
}
