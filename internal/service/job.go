package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a job's lifecycle position:
//
//	queued → running → done | failed | cancelled | dead
//	   ↑         │
//	   ├─────────┤  retry backoff / breaker park (NextRun in the future)
//	   ├─────────┘  daemon killed (re-queued on restart, checkpoint intact)
//	   ├── done ─┘  recurring spec (every_ms): next run queued at +every
//	   └── dead ──  POST /v1/jobs/{id}/retry (operator resurrection)
//
// While queued, Job.RetryState distinguishes a plain queue wait from a
// backoff park ("backoff") or an open-breaker park ("parked"); StateDead
// ("exhausted") is terminal until explicitly resurrected.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDead is the dead-letter state: the job exhausted its retry
	// budget. Terminal for the scheduler (never re-queued automatically)
	// but resurrectable via Manager.Retry.
	StateDead State = "dead"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateDead
}

// Job is one submitted simulation. The struct doubles as the spool
// manifest: everything needed to re-queue and resume the job after a
// crash serializes from here (the Result lives in its own spool file to
// keep manifests cheap to rewrite every epoch).
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`

	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	// Class is the resolved dispatch class (spec class, batch default),
	// denormalized here so list filters and operators need not re-derive
	// it. Fingerprint is the spec's canonical hash — the circuit
	// breaker's key and the dead-letter spool's cross-reference.
	Class       string `json:"class,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Deadline is the resolved soft completion target (EDF tie-break
	// only, never enforced by killing).
	Deadline *time.Time `json:"deadline,omitempty"`

	// Epoch counts completed (checkpointed) epochs; Epochs is the
	// target. Both stay 0 for sweep jobs, which have no boundary to
	// report progress at.
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs,omitempty"`

	// Attempts counts the times a worker picked the job up. Each
	// crash-recovery re-queue, retry attempt and recurring run adds one.
	Attempts int `json:"attempts"`
	// Failures counts consecutive failed attempts of the current run;
	// it resets on success and on resurrection, and is what the retry
	// budget meters.
	Failures int `json:"failures,omitempty"`
	// RetryState is the queued-job holding pattern: "" (plain queue
	// wait), "backoff", "parked" (breaker open) or "exhausted" (dead).
	RetryState string `json:"retry_state,omitempty"`
	// NextRun is when a queued job becomes due (backoff target, breaker
	// cooldown end, or next recurrence); nil means due immediately.
	NextRun *time.Time `json:"next_run,omitempty"`
	// Runs counts completed successful runs — only ever >1 for recurring
	// specs.
	Runs int `json:"runs,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Result is the terminal payload (field.Summary or sweepResult
	// JSON). Populated in job detail responses; omitted from list
	// responses and manifests.
	Result json.RawMessage `json:"result,omitempty"`
}

// newJobID returns a 16-hex-char random identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy pool is gone; there
		// is no meaningful degraded mode for ID generation.
		panic(fmt.Sprintf("service: entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// store is the in-memory job table. Accessors hand out copies so readers
// never race a transition's mutation, and the per-state counts are kept
// in step with every mutation, so the running gauge and Health read the
// table itself rather than a counter maintained beside it. The spool,
// not the store, is the durable source of truth — the store is rebuilt
// from it on startup.
type store struct {
	mu     sync.Mutex
	jobs   map[string]*storeEntry
	counts map[State]int
	obs    obs.Observer // receives the running gauge; nil disables
}

// storeEntry is one job plus the lock that orders its transitions: held
// across a transition's mutate and its side effects, so one job's
// manifest writes land in the order of its state changes while two jobs
// never wait on each other's fsync.
type storeEntry struct {
	order sync.Mutex
	job   Job
}

func newStore(o obs.Observer) *store {
	return &store{jobs: make(map[string]*storeEntry), counts: make(map[State]int), obs: o}
}

// put inserts a new job (submission and recovery).
func (st *store) put(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.ID] = &storeEntry{job: *j}
	st.recount("", j.State)
}

// delete removes a job (submission rollback only).
func (st *store) delete(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.jobs[id]; ok {
		st.recount(e.job.State, "")
		delete(st.jobs, id)
	}
}

// get returns a copy of the job.
func (st *store) get(id string) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return e.job, true
}

// list returns copies of every job, oldest first (ties broken by ID so
// the order is total and stable).
func (st *store) list() []Job {
	st.mu.Lock()
	out := make([]Job, 0, len(st.jobs))
	for _, e := range st.jobs {
		out = append(out, e.job)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// countAll returns the job count per state.
func (st *store) countAll() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]int, len(st.counts))
	for s, n := range st.counts {
		if n > 0 {
			out[string(s)] = n
		}
	}
	return out
}

// lock takes the job's transition lock; the caller runs unlock when its
// transition's side effects are complete.
func (st *store) lock(id string) (unlock func(), ok bool) {
	st.mu.Lock()
	e, ok := st.jobs[id]
	st.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.order.Lock()
	return e.order.Unlock, true
}

// update applies fn to the job under the store lock and returns a copy of
// the result. fn sees and may mutate the canonical struct; a non-nil
// return refuses the change, and fn must then leave the job untouched.
func (st *store) update(id string, fn func(*Job) error) (Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	before := e.job.State
	if err := fn(&e.job); err != nil {
		return Job{}, err
	}
	st.recount(before, e.job.State)
	return e.job, nil
}

// recount moves one job from state from to state to ("" for none) and
// publishes the running gauge. It runs under st.mu, so the gauge moves
// with the state it describes.
func (st *store) recount(from, to State) {
	if from == to {
		return
	}
	if from != "" {
		st.counts[from]--
	}
	if to != "" {
		st.counts[to]++
	}
	if st.obs != nil {
		st.obs.Set(MetricJobsRunning, float64(st.counts[StateRunning]))
	}
}
