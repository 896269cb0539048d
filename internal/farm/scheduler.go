package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// JobState is the lifecycle of a campaign job.
type JobState int

// The job states.
const (
	JobPending JobState = iota // waiting for worker budget
	JobRunning
	JobDone
	JobFailed   // error or panic; the rest of the campaign continues
	JobCanceled // cancelled by the caller, scheduler shutdown or timeout
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return "state(?)"
}

// MarshalJSON renders the state as its name.
func (s JobState) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON parses a state name, so API clients can round-trip JobStatus.
func (s *JobState) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, st := range []JobState{JobPending, JobRunning, JobDone, JobFailed,
		JobCanceled} {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("farm: unknown job state %q", name)
}

// ErrBudgetExceeded reports a durable submission requesting more workers
// than the scheduler's budget. Durable jobs are rejected rather than clamped:
// the journal records the spec verbatim, and a silently clamped worker count
// would survive restarts even under a budget that could honour the request.
var ErrBudgetExceeded = errors.New("requested workers exceed the scheduler budget")

// ErrQuotaExceeded reports a submission that would push its tenant past a
// configured cap (TenantLimits.MaxJobs or MaxWorkers). The submission is
// refused before it is queued or journaled: quota-rejected work never
// consumes budget tokens or a queue position. The daemon maps this to
// HTTP 429 — retryable once the tenant's earlier jobs drain.
var ErrQuotaExceeded = errors.New("tenant quota exceeded")

// DefaultRetention is how many terminal job statuses the scheduler keeps
// per tenant before evicting the oldest (see SetRetention).
const DefaultRetention = 256

// JobStatus is a point-in-time view of a job, JSON-ready for the daemon.
type JobStatus struct {
	ID    int      `json:"id"`
	Name  string   `json:"name"`
	State JobState `json:"state"`
	// Tenant is the identity the job is accounted under (AnonymousTenant
	// when the submitter carried none).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the submitter-declared admission priority; higher admits
	// first. The tenant's weight is added on top at admission time but is
	// not part of the job's own status.
	Priority int `json:"priority,omitempty"`
	// Workers is the effective worker count the job holds budget tokens for.
	Workers int `json:"workers"`
	// RequestedWorkers is the submitted count when the scheduler clamped it
	// to the budget; omitted when the request was honoured as-is.
	RequestedWorkers int `json:"requested_workers,omitempty"`

	// Search progress, as reported by the job via Progress.
	Generation     int     `json:"generation"`
	MaxGenerations int     `json:"max_generations,omitempty"`
	BestFitness    float64 `json:"best_fitness"`

	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// JobFunc is the body of a job. It must return promptly once ctx is done;
// partial results are welcome (a cancelled GA search returns best-so-far).
// The job handle lets it publish progress.
type JobFunc func(ctx context.Context, j *Job) (any, error)

// Job is one scheduled search.
type Job struct {
	id        int
	name      string
	tenant    string
	priority  int
	seq       uint64 // admission arrival order, assigned under Scheduler.mu at submit
	workers   int
	requested int      // submitted worker count before any clamp
	journal   *Journal // nil unless submitted via SubmitDurable

	mu       sync.Mutex
	state    JobState
	gen      int
	maxGen   int
	best     float64
	err      error
	result   any
	canceled bool
	watchers map[chan struct{}]struct{}

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	done   chan struct{}
}

// ID returns the scheduler-assigned job id.
func (j *Job) ID() int { return j.id }

// Tenant returns the tenant the job is accounted under. Immutable after
// submit, so no lock is needed.
func (j *Job) Tenant() string { return j.tenant }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress publishes search progress (typically from the GA's OnGeneration
// hook). Safe to call from the job's own goroutines.
func (j *Job) Progress(gen, maxGen int, best float64) {
	j.mu.Lock()
	j.gen, j.maxGen, j.best = gen, maxGen, best
	j.notifyLocked()
	j.mu.Unlock()
}

// Watch subscribes to the job's progress and state changes: the returned
// channel receives a (coalesced) signal whenever Progress is called, the
// job starts, or it reaches a terminal state. The caller re-reads Status
// on each signal — the channel carries no payload, so a slow consumer
// (an SSE client on a bad link) never blocks the search. The second return
// unsubscribes; always call it.
func (j *Job) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[chan struct{}]struct{})
	}
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.watchers, ch)
		j.mu.Unlock()
	}
}

// notifyLocked pokes every watcher without blocking: a full buffer means a
// signal is already pending and the watcher will re-read the latest state.
func (j *Job) notifyLocked() {
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Checkpoint journals the job's newest resumable state, bytes opaque to the
// farm. A restarted daemon re-queues the job from the last state this call
// durably recorded. The journal keeps cp, so the caller must not change it
// afterwards. No-op for jobs without a journal.
func (j *Job) Checkpoint(cp []byte) error {
	if j.journal == nil {
		return nil
	}
	return j.journal.setCheckpoint(j.id, cp)
}

// Result returns the job's outcome once Done is closed.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		Name:           j.name,
		State:          j.state,
		Tenant:         j.tenant,
		Priority:       j.priority,
		Workers:        j.workers,
		Generation:     j.gen,
		MaxGenerations: j.maxGen,
		BestFitness:    j.best,
		Submitted:      j.submitted,
	}
	if j.requested != j.workers {
		st.RequestedWorkers = j.requested
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// waiter is one job parked in the admission queue. ready is closed exactly
// once — by dispatchLocked with granted set (tokens already deducted), or by
// a cancel/close path with granted false.
type waiter struct {
	j       *Job
	n       int    // budget tokens the job needs
	prio    int    // effective priority: job priority + tenant weight
	seq     uint64 // admission order within a priority band
	granted bool
	ready   chan struct{}
}

// Scheduler runs campaign jobs concurrently under a global worker budget: a
// job submitted with N workers holds N budget tokens while it runs, so the
// total number of concurrently evaluating workers never exceeds the budget.
// Admission is an explicit FIFO-within-priority queue: jobs are granted in
// (priority desc, submission order) and the head of the queue blocks
// everything behind it, so a large job can never be starved by a stream of
// smaller later ones. One job failing — error, timeout or panic — never
// affects the others.
type Scheduler struct {
	budget int

	mu        sync.Mutex
	avail     int
	closed    bool
	nextID    int
	nextSeq   uint64
	jobs      map[int]*Job
	queue     []*waiter // admission queue, sorted (prio desc, seq asc)
	tenants   map[string]*tenantState
	retention int
	journal   *Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewScheduler builds a scheduler with the given worker budget.
func NewScheduler(budget int) (*Scheduler, error) {
	if budget < 1 {
		return nil, fmt.Errorf("farm: budget = %d", budget)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		budget:     budget,
		avail:      budget,
		jobs:       make(map[int]*Job),
		tenants:    make(map[string]*tenantState),
		retention:  DefaultRetention,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	return s, nil
}

// Budget returns the configured worker budget.
func (s *Scheduler) Budget() int { return s.budget }

// InUse returns how many budget tokens running jobs currently hold.
func (s *Scheduler) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget - s.avail
}

// SetJournal attaches a journal for SubmitDurable jobs. Attach it before
// the first submission; the scheduler never writes to a journal it was not
// given.
func (s *Scheduler) SetJournal(jl *Journal) {
	s.mu.Lock()
	s.journal = jl
	s.mu.Unlock()
}

// JobSpec describes a job: the scheduling knobs plus, for durable jobs, the
// opaque payload a restarted daemon needs to rebuild it. Checkpoint carries
// an initial resumable state when the job itself is a re-queued recovery.
type JobSpec struct {
	Name string
	// Tenant is the identity the job is accounted (and quota-checked)
	// under; empty means AnonymousTenant.
	Tenant string
	// Priority orders admission: higher admits first, FIFO within a band.
	// The tenant's configured weight is added on top.
	Priority   int
	Workers    int
	Timeout    time.Duration
	Payload    json.RawMessage
	Checkpoint []byte
	// Recovered marks a journal-recovery re-submission: the work was already
	// admitted (and quota-checked) by a previous process, so the tenant's
	// caps are not re-checked — a durable job must not be stranded in the
	// journal because its tenant's limits were lowered between restarts. The
	// ledger is still charged, so later fresh submissions see the true load.
	Recovered bool
}

// SubmitJob queues a job requesting spec.Workers workers (clamped to the
// budget so it can always start; the clamp is surfaced through
// JobStatus.RequestedWorkers) and returns immediately. A positive
// spec.Timeout cancels the job that long after it starts running.
func (s *Scheduler) SubmitJob(spec JobSpec, fn JobFunc) (*Job, error) {
	return s.submit(spec, fn, false)
}

// SubmitDurable is SubmitJob for a job that must survive a daemon restart: the
// spec is journaled before the job is visible, updated with every
// Job.Checkpoint, and retired when the job reaches a terminal state — except
// a shutdown, which leaves the entry behind for the next process to re-queue.
// Unlike SubmitJob, a worker request exceeding the budget is rejected with
// ErrBudgetExceeded instead of clamped, so the journal never records a
// silently reduced worker count.
func (s *Scheduler) SubmitDurable(spec JobSpec, fn JobFunc) (*Job, error) {
	return s.submit(spec, fn, true)
}

func (s *Scheduler) submit(spec JobSpec, fn JobFunc, durable bool) (*Job, error) {
	if fn == nil {
		return nil, fmt.Errorf("farm: nil job")
	}
	requested := spec.Workers
	if requested < 1 {
		requested = 1
	}
	workers := requested
	if workers > s.budget {
		if durable {
			return nil, fmt.Errorf("farm: durable job %q requests %d workers "+
				"with budget %d: %w", spec.Name, requested, s.budget,
				ErrBudgetExceeded)
		}
		workers = s.budget
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = AnonymousTenant
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("farm: scheduler closed")
	}
	journal := s.journal
	if durable && journal == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("farm: durable submit without a journal")
	}
	// Quotas are enforced here, before the job exists anywhere: a rejected
	// submission must not hold a queue position, budget tokens or a journal
	// entry. Recovery re-submissions skip the check — they were admitted by
	// the previous process and must not be lost to a tightened quota. The
	// error is built before the unlock: the ledger it quotes is s.mu's.
	ts := s.tenantLocked(tenant)
	if !spec.Recovered {
		var err error
		if lim := ts.limits.MaxJobs; lim > 0 && ts.live >= lim {
			err = fmt.Errorf("farm: tenant %q already has %d live jobs (cap %d): %w",
				tenant, ts.live, lim, ErrQuotaExceeded)
		} else if lim := ts.limits.MaxWorkers; lim > 0 && ts.demand+workers > lim {
			err = fmt.Errorf("farm: tenant %q job %q wants %d workers with %d "+
				"already committed (quota %d): %w",
				tenant, spec.Name, workers, ts.demand, lim, ErrQuotaExceeded)
		}
		if err != nil {
			ts.rejections++
			s.mu.Unlock()
			return nil, err
		}
	}
	s.nextID++
	s.nextSeq++
	j := &Job{
		id:        s.nextID,
		seq:       s.nextSeq,
		name:      spec.Name,
		tenant:    tenant,
		priority:  spec.Priority,
		workers:   workers,
		requested: requested,
		state:     JobPending,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if durable {
		j.journal = journal
	}
	s.jobs[j.id] = j
	ts.live++
	ts.demand += workers
	s.wg.Add(1)
	w := &waiter{
		j:     j,
		n:     workers,
		prio:  j.priority + ts.limits.Weight,
		seq:   j.seq,
		ready: make(chan struct{}),
	}
	if !durable {
		s.admitLocked(w)
	}
	s.mu.Unlock()

	if durable {
		// Journal before the job can run: a job that starts evaluating before
		// its spec is durable could vanish in a crash. Tenant and priority
		// ride in the entry so a restarted daemon re-queues with the same
		// admission ordering.
		err := journal.add(JournalEntry{
			ID:         j.id,
			Name:       spec.Name,
			Tenant:     tenant,
			Priority:   spec.Priority,
			Workers:    workers,
			TimeoutS:   spec.Timeout.Seconds(),
			Spec:       spec.Payload,
			Checkpoint: spec.Checkpoint,
			State:      "pending",
			Submitted:  j.submitted,
		})
		if err != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			ts.live--
			ts.demand -= workers
			s.mu.Unlock()
			s.wg.Done()
			return nil, err
		}
		s.mu.Lock()
		s.admitLocked(w)
		s.mu.Unlock()
	}

	go s.run(j, w, spec.Timeout, fn)
	return j, nil
}

func (s *Scheduler) run(j *Job, w *waiter, timeout time.Duration, fn JobFunc) {
	defer s.wg.Done()
	if !s.acquire(w) {
		s.finish(j, nil, context.Canceled, true)
		return
	}
	defer s.release(j)

	ctx, cancel := jobContext(s.baseCtx, timeout)
	defer cancel()

	j.mu.Lock()
	if j.canceled { // cancelled while pending
		j.mu.Unlock()
		s.finish(j, nil, context.Canceled, true)
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.notifyLocked()
	j.mu.Unlock()
	if j.journal != nil {
		// Best-effort: the state string is informational; the entry itself —
		// written at submit — is what recovery depends on.
		_ = j.journal.setState(j.id, "running")
	}

	var (
		res any
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("farm: job %q panicked: %v", j.name, r)
			}
		}()
		res, err = fn(ctx, j)
	}()
	// A job interrupted by its own timeout or a campaign shutdown counts as
	// cancelled, not failed — its partial result may still be useful.
	canceled := ctx.Err() != nil
	s.finish(j, res, err, canceled && err == nil || isCtxErr(err))
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// jobContext derives a job's run context from the scheduler's base: exactly
// one cancellable context is created whether or not a timeout applies, and
// the returned cancel releases it. (An earlier version always created a
// WithCancel context and then overwrote both it and its cancel func with
// WithTimeout's when a timeout was set — the first context's registration
// on the base context was never released, leaking one orphan per timed job
// for the daemon's lifetime. TestSchedulerJobContextLeak pins this.)
func jobContext(parent context.Context, timeout time.Duration) (
	context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return context.WithCancel(parent)
}

func (s *Scheduler) finish(j *Job, res any, err error, canceled bool) {
	// One scheduler-lock acquisition covers the shutdown read, the job's
	// terminal transition and the tenant/retention bookkeeping, so a
	// concurrent Close/Drain observes either the whole transition or none
	// of it (lock order s.mu -> j.mu, same as acquire's cancellation check).
	s.mu.Lock()
	shutdown := s.closed

	j.mu.Lock()
	j.result = res
	j.err = err
	j.finished = time.Now()
	switch {
	case canceled:
		j.state = JobCanceled
	case err != nil:
		j.state = JobFailed
	default:
		j.state = JobDone
	}
	byUser := j.canceled
	j.notifyLocked()
	j.mu.Unlock()

	ts := s.tenantLocked(j.tenant)
	ts.live--
	ts.demand -= j.workers
	ts.completed++
	ts.terminal = append(ts.terminal, j.id)
	s.evictLocked(ts)
	s.mu.Unlock()

	if j.journal != nil {
		// Retire the entry on any genuine terminal state — done, failed, user
		// cancel, timeout. Only a shutdown-interrupted job stays journaled:
		// that is the one the next process must re-queue. A job that managed
		// to finish during the shutdown is done, not interrupted.
		if shutdown && canceled && !byUser {
			_ = j.journal.setState(j.id, "interrupted")
		} else {
			_ = j.journal.remove(j.id)
		}
	}
	close(j.done)
}

// admitLocked puts a submitted job's waiter in the admission queue and
// grants whatever now fits. submit calls it before returning — for a
// durable job, once the journal holds its entry — so a job queues in
// submission order, never when its goroutine first runs: a later
// submission cannot take budget an earlier one is owed. A scheduler closed
// or a job cancelled while its entry was being journaled wakes the waiter
// ungranted instead.
//
// Admission is an ordered queue, not a free-for-all: every job enters the
// queue at (priority + tenant weight, arrival order) and dispatchLocked
// grants strictly from the front, so the queue head blocks everything
// behind it until it fits and a large job is never starved by a stream of
// smaller ones.
func (s *Scheduler) admitLocked(w *waiter) {
	if s.closed || w.j.isCanceled() {
		close(w.ready)
		return
	}
	s.enqueueLocked(w)
	s.tenantLocked(w.j.tenant).queued++
	s.dispatchLocked()
}

// acquire blocks until the job's budget tokens are granted, the scheduler
// closes, or the waiting job is cancelled — a cancelled pending job must
// terminate immediately, not once earlier jobs release the budget.
func (s *Scheduler) acquire(w *waiter) bool {
	<-w.ready
	s.mu.Lock()
	granted := w.granted
	s.mu.Unlock()
	return granted
}

// enqueueLocked keeps the queue sorted by (priority desc, seq asc) — FIFO
// within a priority band. Seq is assigned under the scheduler lock at
// submit; a durable job queues only once its journal entry is written, so
// it may arrive after a later job and still take its place ahead of it.
func (s *Scheduler) enqueueLocked(w *waiter) {
	i := len(s.queue)
	for k, q := range s.queue {
		if q.prio < w.prio || (q.prio == w.prio && q.seq > w.seq) {
			i = k
			break
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = w
}

// dispatchLocked grants waiters strictly from the queue front while their
// demands fit the free budget. The first waiter that does not fit stops the
// scan: admitting someone behind it would re-introduce the starvation the
// queue exists to prevent.
func (s *Scheduler) dispatchLocked() {
	for len(s.queue) > 0 {
		w := s.queue[0]
		if w.n > s.avail {
			return
		}
		// Nil the vacated slot before reslicing: the backing array outlives
		// the grant, and a dangling reference would keep the waiter (and its
		// job) reachable until the array itself is dropped.
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.avail -= w.n
		w.granted = true
		ts := s.tenantLocked(w.j.tenant)
		ts.queued--
		ts.inUse += w.n
		close(w.ready)
	}
}

// removeWaiter pulls a cancelled job out of the admission queue and wakes
// it ungranted. The queue order of everyone else is untouched; removing the
// head may unblock the waiters behind it, so dispatch runs again.
func (s *Scheduler) removeWaiter(j *Job) {
	s.mu.Lock()
	for i, w := range s.queue {
		if w.j == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.tenantLocked(j.tenant).queued--
			close(w.ready)
			s.dispatchLocked()
			break
		}
	}
	s.mu.Unlock()
}

func (j *Job) isCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

func (s *Scheduler) release(j *Job) {
	s.mu.Lock()
	s.avail += j.workers
	s.tenantLocked(j.tenant).inUse -= j.workers
	s.dispatchLocked()
	s.mu.Unlock()
}

// Job looks a job up by id. Terminal jobs evicted by the retention policy
// are not found; see Status for the journal-backed stub fallback.
func (s *Scheduler) Job(id int) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status reports a job by id. For a job evicted by the retention policy it
// falls back to a terminal stub synthesized from the journal entry where
// one is still on disk (a durable job interrupted before it could retire);
// a job that is neither live nor journaled is simply gone.
func (s *Scheduler) Status(id int) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	jl := s.journal
	s.mu.Unlock()
	if ok {
		return j.Status(), true
	}
	if jl == nil {
		return JobStatus{}, false
	}
	e, ok := jl.Entry(id)
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{
		ID:        e.ID,
		Name:      e.Name,
		State:     JobCanceled, // an entry for an unknown job is an interrupted one
		Tenant:    e.Tenant,
		Priority:  e.Priority,
		Workers:   e.Workers,
		Submitted: e.Submitted,
	}, true
}

// QueueDepth returns how many jobs are waiting for admission.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Jobs returns every job's status, in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel stops a job. Pending jobs are cancelled before they start; running
// jobs get their context cancelled and report partial results.
func (s *Scheduler) Cancel(id int) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	j.canceled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.removeWaiter(j) // wake the job if it is still waiting for admission
	return true
}

// Close cancels every job and refuses new submissions. It does not wait;
// use Wait for that.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	q := s.queue
	s.queue = nil
	for _, w := range q {
		s.tenantLocked(w.j.tenant).queued--
		close(w.ready)
	}
	s.mu.Unlock()
	s.baseCancel()
}

// Wait blocks until every submitted job has reached a terminal state.
func (s *Scheduler) Wait() { s.wg.Wait() }

// Drain is the graceful shutdown: it closes the scheduler (cancelling every
// job, which flushes each search's final checkpoint on its way out) and
// waits up to timeout for the jobs to settle. It reports whether every job
// finished in time; either way, interrupted durable jobs remain journaled
// for the next process. timeout <= 0 waits forever.
func (s *Scheduler) Drain(timeout time.Duration) bool {
	s.Close()
	if timeout <= 0 {
		s.wg.Wait()
		return true
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// An explicit timer, stopped on the way out: time.After's timer would
	// outlive a successful drain by the full deadline, and a daemon that
	// drains often (tests, rolling restarts) would pile them up.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
