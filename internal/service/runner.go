package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sse"
)

// ErrQueueFull is returned by Submit when the scheduler has no free
// queue slot; the HTTP layer translates it to 429 with Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrStopped is returned by Submit after Stop has begun.
var ErrStopped = errors.New("service: manager stopped")

// ErrNotFound is returned for operations on unknown job IDs.
var ErrNotFound = errors.New("service: no such job")

// ErrJobDone is returned by Cancel on a job already in a terminal state.
var ErrJobDone = errors.New("service: job already finished")

// ErrNotDead is returned by Retry on a job that is not dead-lettered.
var ErrNotDead = errors.New("service: job is not dead-lettered")

// Config configures a Manager.
type Config struct {
	// SpoolDir is the durable state directory (required).
	SpoolDir string
	// Workers is the number of jobs executing concurrently; 0 means 1.
	// Parallelism inside a job is the job spec's Workers field.
	Workers int
	// QueueDepth bounds the scheduler queue (jobs queued but not
	// running); 0 means 64. Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// BreakerThreshold is the consecutive-failure streak that trips a
	// spec fingerprint's circuit breaker; 0 means 5, negative disables
	// breaking.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker parks attempts
	// before allowing a half-open probe; 0 means 30s.
	BreakerCooldown time.Duration
	// Obs receives service- and job-level metrics; nil disables.
	Obs obs.Observer
	// Log receives request and lifecycle logging; nil discards.
	Log *log.Logger
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

// Manager owns the job table, the priority scheduler and the worker
// pool. One Manager per spool directory per process; New recovers the
// spool's jobs, Start launches the workers, Stop drains them.
type Manager struct {
	spool    *Spool
	store    *store
	sched    *jobScheduler
	breakers *breakerSet
	obs      obs.Observer
	log      *log.Logger

	created time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	stopped  bool
	started  bool
	poolSize int
	cancels  map[string]context.CancelFunc // interrupt handles of in-flight attempts
	feeds    map[string]*sse.Feed

	// requeue holds the IDs recovery found interrupted, pushed into the
	// scheduler (oldest first, so FIFO order within a class survives the
	// crash) by Start.
	requeue []string
}

// New opens the spool, recovers its jobs into the store and prepares the
// worker pool (not yet running — call Start). Interrupted jobs (queued
// or running at crash time) come back queued, oldest first, with their
// checkpoints and any pending backoff schedule intact. Dead-lettered
// jobs stay dead until resurrected. Corrupt per-job manifests are logged
// and skipped.
func New(cfg Config) (*Manager, error) {
	sp, err := OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	jobs, requeue, errs := sp.Recover()
	for _, e := range errs {
		lg.Printf("spool recovery: %v", e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		spool:      sp,
		store:      newStore(cfg.Obs),
		sched:      newJobScheduler(cfg.queueDepth()),
		breakers:   newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Obs),
		obs:        cfg.Obs,
		log:        lg,
		baseCtx:    ctx,
		baseCancel: cancel,
		cancels:    make(map[string]context.CancelFunc),
		feeds:      make(map[string]*sse.Feed),
		requeue:    requeue,
		poolSize:   cfg.workers(),
		created:    time.Now().UTC(),
	}
	m.sched.obs = cfg.Obs
	for _, j := range jobs {
		m.store.put(j)
	}
	return m, nil
}

// Start enqueues the recovered jobs and launches the worker pool.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	n := m.poolSize
	requeue := m.requeue
	m.requeue = nil
	m.mu.Unlock()

	for _, id := range requeue {
		j, ok := m.store.get(id)
		if !ok {
			continue
		}
		m.log.Printf("job %s: re-queued after restart", id)
		// Forced: recovered jobs already owned their slots; a restart
		// must never drop them to backpressure.
		if err := m.sched.push(m.pushReq(&j), true); err != nil {
			m.log.Printf("job %s: re-queue: %v", id, err)
		}
	}
	for w := 0; w < n; w++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// pushReq derives a job's scheduler entry from its manifest state.
func (m *Manager) pushReq(j *Job) pushReq {
	r := pushReq{
		id:       j.ID,
		class:    j.Class,
		priority: j.Spec.Priority,
	}
	if j.Deadline != nil {
		r.deadline = *j.Deadline
	}
	if j.NextRun != nil {
		r.nextRun = *j.NextRun
	}
	return r
}

// Submit validates the spec, durably records the job and schedules it.
func (m *Manager) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	now := time.Now().UTC()
	j := &Job{
		ID:          newJobID(),
		Spec:        spec,
		State:       StateQueued,
		Class:       spec.class(),
		Fingerprint: specFingerprint(&spec),
		Created:     now,
	}
	if spec.Type == TypeField {
		j.Epochs = spec.Field.epochs()
	}
	if spec.Type == TypeDist {
		j.Epochs = spec.Dist.Field.epochs()
	}
	if spec.DeadlineMS > 0 {
		d := now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
		j.Deadline = &d
	}
	if spec.DelayMS > 0 {
		nr := now.Add(spec.delay())
		j.NextRun = &nr
	}

	// Durable before runnable: the manifest hits disk before the ID can
	// reach a worker, so a crash between the two re-queues the job
	// instead of losing it. The job's transition lock is held until the
	// "queued" event is out, so a worker's first transition follows it.
	m.store.put(j)
	unlock, _ := m.store.lock(j.ID)
	defer unlock()
	if err := m.spool.SaveManifest(j); err != nil {
		m.store.delete(j.ID)
		return Job{}, err
	}
	// The stopped check and the scheduler push share m.mu with Stop, so
	// a job can never be accepted after Stop has begun: either this push
	// happens before Stop flips the flag (and the durable manifest
	// re-queues the job on the next start), or it observes the flag and
	// rolls back.
	m.mu.Lock()
	err := ErrStopped
	if !m.stopped {
		err = m.sched.push(m.pushReq(j), false)
	}
	m.mu.Unlock()
	if err != nil {
		// Stopped or backpressure: roll the job back entirely.
		m.store.delete(j.ID)
		if err := os.RemoveAll(m.spool.jobPath(j.ID)); err != nil {
			m.log.Printf("job %s: rollback: %v", j.ID, err)
		}
		return Job{}, err
	}
	if m.obs != nil {
		m.obs.Add(MetricJobsSubmitted, 1)
	}
	m.feed(j.ID).Publish("state", stateEvent(j))
	m.log.Printf("job %s: queued (%s, class %s)", j.ID, spec.Type, j.Class)
	return *j, nil
}

// Job returns a copy of the job, with its result attached when one
// exists (terminal jobs, and recurring jobs between runs).
func (m *Manager) Job(id string) (Job, error) {
	j, ok := m.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	if j.Result == nil && (j.State == StateDone || j.Runs > 0) {
		res, err := m.spool.LoadResult(id)
		if err != nil {
			m.log.Printf("job %s: load result: %v", id, err)
		}
		j.Result = res
	}
	return j, nil
}

// Jobs lists every known job, oldest first, without results.
func (m *Manager) Jobs() []Job { return m.store.list() }

// Cancel moves a queued or running job to cancelled, which finishes it
// at once. Queued jobs — including backoff- and breaker-parked ones —
// leave the scheduler and never start; a running job's attempt is
// interrupted at its next epoch boundary and whatever it returns is
// discarded. A recurring job's chain ends with it.
func (m *Manager) Cancel(id string) error {
	var inFlight bool
	_, err := m.transition(id, func(x *Job) error {
		if x.State.Terminal() {
			return ErrJobDone
		}
		inFlight = x.State == StateRunning
		x.State, x.RetryState, x.NextRun = StateCancelled, "", nil
		return nil
	})
	if inFlight {
		m.mu.Lock()
		interrupt := m.cancels[id]
		m.mu.Unlock()
		if interrupt != nil {
			interrupt()
		}
	}
	return err
}

// Retry resurrects a dead-lettered job: its failure streak resets and it
// re-enters the scheduler immediately. The spec's circuit breaker is
// left untouched — if it is still open, the resurrected job parks until
// the cooldown, which is exactly the protection the breaker exists for.
func (m *Manager) Retry(id string) (Job, error) {
	return m.transition(id, func(x *Job) error {
		if x.State != StateDead {
			return ErrNotDead
		}
		x.State, x.RetryState, x.Failures, x.Error = StateQueued, "", 0, ""
		x.Finished, x.NextRun = nil, nil
		return nil
	})
}

// Events returns the job's SSE feed. For a job already terminal (e.g.
// finished before this process started), the feed is primed with the
// terminal state and closed so subscribers get one event and EOF.
func (m *Manager) Events(id string) (*sse.Feed, error) {
	j, ok := m.store.get(id)
	if !ok {
		return nil, ErrNotFound
	}
	f := m.feed(id)
	if j.State.Terminal() {
		f.Publish("state", stateEvent(&j)) // dropped if already closed
		f.Close()
	}
	return f, nil
}

// Stop begins shutdown: no new submissions, running jobs are cancelled
// (they stop at their next epoch boundary, checkpoint already on disk)
// and the pool is drained. Queued jobs — parked or not — keep their
// durable manifests and re-enter the scheduler on the next start.
// Returns ctx.Err() if the drain deadline passes first; the spool stays
// consistent either way.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.sched.close()
	m.baseCancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// feed returns (creating if needed) the job's event feed.
func (m *Manager) feed(id string) *sse.Feed {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.feeds[id]
	if f == nil {
		f = sse.NewFeed()
		m.feeds[id] = f
	}
	return f
}

// stateEvent is the payload of "state" SSE events.
func stateEvent(j *Job) map[string]any {
	ev := map[string]any{"id": j.ID, "state": j.State, "epoch": j.Epoch}
	if j.Epochs > 0 {
		ev["epochs"] = j.Epochs
	}
	if j.Error != "" {
		ev["error"] = j.Error
	}
	if j.RetryState != "" {
		ev["retry_state"] = j.RetryState
	}
	if j.NextRun != nil {
		ev["next_run"] = j.NextRun
	}
	if j.Failures > 0 {
		ev["failures"] = j.Failures
	}
	if j.Runs > 0 {
		ev["runs"] = j.Runs
	}
	return ev
}

// errRaced refuses a step whose precondition another transition already
// invalidated: a cancel won, or the attempt it belongs to already ended.
var errRaced = errors.New("service: job changed state concurrently")

// errShutdown refuses the end-of-attempt step of a job interrupted by
// shutdown: its manifest stays "running" for recovery.
var errShutdown = errors.New("service: interrupted by shutdown")

// transition is the one owner of job state changes. step mutates the job
// under the store lock, or returns an error to refuse — then nothing
// else happens and that error is returned. Otherwise transition applies,
// in one place, everything the new state implies: it stamps Finished on
// entry to a terminal state, persists the manifest, keeps the dead-letter
// index, re-pushes a queued job with its NextRun (or drops a terminal one
// from the scheduler), publishes the state event (closing the feed on
// terminal states) and counts the transition. Epoch progress (running →
// running) only persists. The gauges follow on their own: the store and
// the scheduler publish them under their locks. The job's transition lock
// is held throughout, so its side effects land in the order of its state
// changes. A failed manifest write or re-push is logged and returned
// after the remaining effects are applied, so the in-memory state and
// everything derived from it still agree.
func (m *Manager) transition(id string, step func(*Job) error) (Job, error) {
	unlock, ok := m.store.lock(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	defer unlock()
	var from Job
	j, err := m.store.update(id, func(x *Job) error {
		from = *x
		if err := step(x); err != nil {
			return err
		}
		if x.State.Terminal() && !from.State.Terminal() {
			now := time.Now().UTC()
			x.Finished = &now
		}
		return nil
	})
	if err != nil {
		return j, err
	}
	err = m.spool.SaveManifest(&j)
	switch {
	case j.State == StateDead:
		if derr := m.spool.MarkDead(&j); derr != nil {
			m.log.Printf("job %s: dead-letter index: %v", id, derr)
		}
	case from.State == StateDead:
		if derr := m.spool.ClearDead(id); derr != nil {
			m.log.Printf("job %s: clear dead-letter: %v", id, derr)
		}
	}
	switch {
	case j.State == StateQueued:
		// Forced: the job already held a queue slot (it was popped for an
		// attempt, or is an operator resurrection), so backpressure must
		// not drop it.
		err = errors.Join(err, m.sched.push(m.pushReq(&j), true))
	case j.State.Terminal():
		m.sched.remove(id)
	}
	if err != nil {
		m.log.Printf("job %s: %s: %v", id, j.State, err)
	}
	if from.State == StateRunning && j.State == StateRunning {
		return j, err
	}

	ev := stateEvent(&j)
	f := m.feed(id)
	if from.State == StateDead {
		f.Reopen()
	}
	f.Publish("state", ev)
	finished := j.State.Terminal() && !from.State.Terminal()
	if finished {
		f.Close()
	}
	if m.obs != nil {
		switch {
		case finished:
			m.obs.Add(finishedSeries(j.State), 1)
			if j.State == StateDead {
				m.obs.Add(MetricDeadLetter, 1)
			}
		case from.State == StateRunning && j.RetryState == RetryBackoff:
			m.obs.Add(MetricRetries, 1)
		}
	}
	m.log.Printf("job %s: %s → %s (attempt %d) %v", id, from.State, j.State, j.Attempts, ev)
	return j, err
}

// progress is the step recording a checkpointed epoch on a running job.
func progress(epoch int) func(*Job) error {
	return func(x *Job) error {
		if x.State != StateRunning {
			return errRaced
		}
		x.Epoch = epoch
		return nil
	}
}

// worker is one pool goroutine: wait for a due job, run it, repeat until
// shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		id, due, ok := m.sched.next(m.baseCtx)
		if !ok {
			return
		}
		if m.obs != nil {
			if d := time.Since(due).Seconds(); d >= 0 {
				m.obs.Observe(MetricSchedDelay, d)
			}
		}
		m.runJob(id)
	}
}

// runJob executes one attempt of the job.
func (m *Manager) runJob(id string) {
	j, ok := m.store.get(id)
	if !ok || j.State != StateQueued {
		return // cancelled while queued, or rolled back
	}

	// Circuit-breaker gate: an open breaker parks the attempt until the
	// cooldown instead of running it. The park consumes no attempt and
	// no failure — the job just waits out the storm.
	if wait := m.breakers.gate(j.Fingerprint); wait > 0 {
		nr := time.Now().UTC().Add(wait)
		// A refusal means a cancel won; transition logs any other error.
		_, _ = m.transition(id, func(x *Job) error {
			if x.State != StateQueued {
				return errRaced
			}
			x.RetryState, x.NextRun = RetryParked, &nr
			return nil
		})
		return
	}

	// The interrupt handle is registered before the job can be seen
	// running, so a Cancel that observes "running" always finds it.
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	m.mu.Lock()
	m.cancels[id] = cancel
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.cancels, id)
		m.mu.Unlock()
	}()

	now := time.Now().UTC()
	j, err := m.transition(id, func(x *Job) error {
		if x.State != StateQueued { // cancel won the race since the get above
			return errRaced
		}
		x.State, x.Started, x.RetryState, x.NextRun = StateRunning, &now, "", nil
		x.Attempts++
		return nil
	})
	if errors.Is(err, errRaced) || errors.Is(err, ErrNotFound) {
		return
	}
	var result []byte
	if err != nil {
		err = fmt.Errorf("persist manifest: %w", err)
	} else {
		start := time.Now()
		result, err = m.attempt(ctx, id, &j)
		if m.obs != nil {
			m.obs.Observe(MetricJobSeconds, time.Since(start).Seconds())
		}
	}
	m.endAttempt(&j, result, err)
}

// attempt runs the job's workload once.
func (m *Manager) attempt(ctx context.Context, id string, j *Job) ([]byte, error) {
	switch j.Spec.Type {
	case TypeField:
		return m.runField(ctx, id, j)
	case TypeSweep:
		return j.Spec.Sweep.run(exp.Options{Workers: j.Spec.Workers, Ctx: ctx, Obs: m.obs})
	case TypeProbe:
		return j.Spec.Probe.run(ctx, j.Attempts)
	case TypeDist:
		return m.runDist(ctx, id, j)
	}
	return nil, fmt.Errorf("service: unknown job type %q", j.Spec.Type)
}

// endAttempt ends every attempt through one decision, made on the state
// it observes under the lock:
//
//   - cancelled: Cancel already finished the job; whatever the attempt
//     returned is discarded;
//   - shutdown: the manifest stays "running", the marker recovery turns
//     back into "queued" — the last checkpoint is where the resume picks
//     up;
//   - error: backoff park while the retry budget lasts, then failed
//     (legacy single-attempt specs) or dead;
//   - ok: done, or queued for the next recurrence.
//
// A successful result hits disk before the state does, so a crash between
// the two re-runs the job rather than serving a done job with no result.
func (m *Manager) endAttempt(j *Job, result []byte, runErr error) {
	id := j.ID
	every := j.Spec.every()
	if runErr == nil {
		if err := m.spool.SaveResult(id, result); err != nil {
			runErr = fmt.Errorf("persist result: %w", err)
		} else if every > 0 {
			// The next run is a fresh simulation, not a resume.
			if err := os.Remove(m.spool.SnapshotPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
				m.log.Printf("job %s: clear checkpoint for recurrence: %v", id, err)
			}
		}
	}
	pol := j.Spec.retryPolicy()
	now := time.Now().UTC()
	_, err := m.transition(id, func(x *Job) error {
		switch {
		case x.State != StateRunning:
			return errRaced
		case runErr != nil && m.baseCtx.Err() != nil:
			return errShutdown
		case runErr != nil:
			// The breaker hears the outcome under the lock, before a
			// backoff re-push can bring the job back to its gate.
			m.breakers.failure(x.Fingerprint)
			x.Failures++
			x.Error = runErr.Error()
			switch {
			case x.Failures < pol.maxAttempts:
				nr := now.Add(pol.delay(x.Failures, jitterSeed(id)))
				x.State, x.RetryState, x.NextRun = StateQueued, RetryBackoff, &nr
			case pol.maxAttempts <= 1:
				x.State = StateFailed
			default:
				x.State, x.RetryState, x.NextRun = StateDead, RetryExhausted, nil
			}
		default:
			m.breakers.success(x.Fingerprint)
			x.Failures = 0
			x.Runs++
			x.State = StateDone
			if every > 0 {
				nr := now.Add(every)
				x.State, x.Epoch, x.Error, x.NextRun = StateQueued, 0, "", &nr
			}
		}
		return nil
	})
	// A refusal other than shutdown means Cancel already finished the
	// job; transition logs any other error.
	if errors.Is(err, errShutdown) {
		cur, _ := m.store.get(id)
		m.log.Printf("job %s: interrupted at epoch %d, will resume from checkpoint", id, cur.Epoch)
	}
}

// runField executes (or resumes) a field job, checkpointing at every
// epoch boundary. The checkpoint discipline is the crash-safety core:
// snapshot first (atomic), manifest second, so the spool always holds a
// snapshot at least as new as the manifest's epoch counter, and a
// resume never needs state the spool might have lost.
func (m *Manager) runField(ctx context.Context, id string, j *Job) ([]byte, error) {
	spec := j.Spec.Field
	f, cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	fd := m.feed(id)
	cfg.OnEpoch = func(rep *field.EpochReport) {
		fd.Publish("epoch", rep)
	}

	snapPath := m.spool.SnapshotPath(id)
	var rt *field.Runtime
	snap, rerr := field.ReadSnapshotFile(snapPath)
	switch {
	case rerr == nil:
		rt, err = field.Resume(f, cfg, snap)
		if err != nil {
			return nil, err
		}
		if m.obs != nil {
			m.obs.Add(MetricResumes, 1)
		}
		m.log.Printf("job %s: resumed from checkpoint at epoch %d", id, snap.Epoch)
	case errors.Is(rerr, os.ErrNotExist):
		rt, err = field.New(f, cfg)
		if err != nil {
			return nil, err
		}
	default:
		// A corrupt or foreign-version checkpoint cannot be resumed, but
		// the run is deterministic: starting over produces the identical
		// summary, so recover by restarting rather than failing.
		m.log.Printf("job %s: unusable checkpoint (%v), restarting from epoch 0", id, rerr)
		rt, err = field.New(f, cfg)
		if err != nil {
			return nil, err
		}
	}

	opts := exp.Options{Workers: j.Spec.Workers, Ctx: ctx, Obs: m.obs}
	epochs := spec.epochs()
	for rt.Epoch() < epochs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := rt.RunEpoch(opts); err != nil {
			return nil, err
		}
		if err := rt.Snapshot().WriteFile(snapPath); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		if _, err := m.transition(id, progress(rt.Epoch())); err != nil {
			return nil, fmt.Errorf("checkpoint manifest: %w", err)
		}
		if m.obs != nil {
			m.obs.Add(MetricCheckpoints, 1)
		}
	}
	return json.MarshalIndent(rt.Summary(), "", "  ")
}

// runDist executes (or resumes) a distributed field job: this process
// is the coordinator, the spec's worker URLs are the fleet. The
// checkpoint discipline is runField's, moved into the coordinator's
// commit hook: snapshot first (atomic), manifest second, at every epoch
// boundary — so a daemon crash resumes the coordination from the last
// committed epoch, re-seeding workers through cluster adoption, and the
// determinism contract makes the final summary byte-identical anyway.
func (m *Manager) runDist(ctx context.Context, id string, j *Job) ([]byte, error) {
	spec := j.Spec.Dist
	raw, err := json.Marshal(&spec.Field)
	if err != nil {
		return nil, err
	}
	snapPath := m.spool.SnapshotPath(id)
	var snap *field.Snapshot
	s, rerr := field.ReadSnapshotFile(snapPath)
	switch {
	case rerr == nil:
		snap = s
		if m.obs != nil {
			m.obs.Add(MetricResumes, 1)
		}
		m.log.Printf("job %s: coordinator resuming from checkpoint at epoch %d", id, s.Epoch)
	case errors.Is(rerr, os.ErrNotExist):
		// Fresh run.
	default:
		m.log.Printf("job %s: unusable checkpoint (%v), restarting from epoch 0", id, rerr)
	}

	fd := m.feed(id)
	co, err := dist.New(dist.Config{
		Session:           id,
		Spec:              raw,
		Build:             BuildFieldSpec,
		Workers:           spec.Workers,
		Transport:         &dist.HTTPTransport{},
		Snapshot:          snap,
		EpochTimeout:      time.Duration(spec.EpochTimeoutMS) * time.Millisecond,
		HeartbeatInterval: time.Duration(spec.HeartbeatMS) * time.Millisecond,
		HeartbeatTimeout:  time.Duration(spec.HeartbeatTimeoutMS) * time.Millisecond,
		Obs:               m.obs,
		OnCommit: func(sn *field.Snapshot, rep *field.EpochReport) error {
			if err := sn.WriteFile(snapPath); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if _, err := m.transition(id, progress(rep.Epoch+1)); err != nil {
				return fmt.Errorf("checkpoint manifest: %w", err)
			}
			if m.obs != nil {
				m.obs.Add(MetricCheckpoints, 1)
			}
			fd.Publish("epoch", rep)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	sum, err := co.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sum, "", "  ")
}
