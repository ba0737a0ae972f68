package service

import (
	"net/http"
	"time"
)

// Health is the /v1/healthz body: a structured liveness snapshot that
// answers "is the daemon keeping up" in one request — uptime, queue
// pressure, pool occupancy, job-table composition and spool state.
type Health struct {
	Status   string `json:"status"` // always "ok" when the daemon can answer
	UptimeMS int64  `json:"uptime_ms"`

	QueueDepth int `json:"queue_depth"`
	QueueLimit int `json:"queue_limit"`

	Workers int `json:"workers"`
	Running int `json:"running"` // jobs in state running, from the job table

	// Jobs counts the job table by state.
	Jobs map[string]int `json:"jobs"`

	SpoolDir    string `json:"spool_dir"`
	DeadLetters int    `json:"dead_letters"`
}

// Health assembles the daemon's liveness snapshot.
func (m *Manager) Health() Health {
	h := Health{
		Status:     "ok",
		UptimeMS:   time.Since(m.created).Milliseconds(),
		QueueDepth: m.sched.depth(),
		QueueLimit: m.sched.limit,
		Workers:    m.poolSize,
		Jobs:       m.store.countAll(),
		SpoolDir:   m.spool.Dir(),
	}
	h.Running = h.Jobs[string(StateRunning)]
	if ids, err := m.spool.DeadLetters(); err == nil {
		h.DeadLetters = len(ids)
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Health())
}
