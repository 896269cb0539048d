package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdJob submits a job that parks until the returned release func is
// called, and waits until it holds its budget tokens.
func holdJob(t *testing.T, s *Scheduler, name string, workers int) func() {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	_, err := s.SubmitJob(JobSpec{Name: name, Workers: workers},
		func(ctx context.Context, j *Job) (any, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// queueJob submits a job that records its start order into order (under mu)
// and waits until the job is parked in the admission queue.
func queueJob(t *testing.T, s *Scheduler, spec JobSpec, mu *sync.Mutex,
	order *[]string) *Job {
	t.Helper()
	depth := s.QueueDepth()
	j, err := s.SubmitJob(spec, func(ctx context.Context, j *Job) (any, error) {
		mu.Lock()
		*order = append(*order, j.name)
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, fmt.Sprintf("%s to queue", spec.Name), func() bool {
		return s.QueueDepth() == depth+1
	})
	return j
}

// TestSchedulerAdmissionOrdering is the admission-queue matrix: priority
// bands preempt, FIFO holds within a band, tenant weight lifts a band, and
// a cancelled queued job leaves without disturbing the order of the rest.
func TestSchedulerAdmissionOrdering(t *testing.T) {
	cases := []struct {
		name   string
		limits map[string]TenantLimits
		jobs   []JobSpec // queued in order while the budget is held
		cancel string    // job name to cancel while queued
		want   []string  // expected start order
	}{
		{
			name: "priority preempts queued low",
			jobs: []JobSpec{
				{Name: "low1", Workers: 1},
				{Name: "low2", Workers: 1},
				{Name: "high", Workers: 1, Priority: 5},
			},
			want: []string{"high", "low1", "low2"},
		},
		{
			name: "fifo within a priority band",
			jobs: []JobSpec{
				{Name: "a", Workers: 1, Priority: 2},
				{Name: "b", Workers: 1, Priority: 2},
				{Name: "c", Workers: 1, Priority: 2},
			},
			want: []string{"a", "b", "c"},
		},
		{
			name: "bands then fifo",
			jobs: []JobSpec{
				{Name: "l1", Workers: 1},
				{Name: "h1", Workers: 1, Priority: 1},
				{Name: "l2", Workers: 1},
				{Name: "h2", Workers: 1, Priority: 1},
			},
			want: []string{"h1", "h2", "l1", "l2"},
		},
		{
			name:   "tenant weight lifts the band",
			limits: map[string]TenantLimits{"gold": {Weight: 10}},
			jobs: []JobSpec{
				{Name: "anon", Workers: 1},
				{Name: "gold1", Workers: 1, Tenant: "gold"},
			},
			want: []string{"gold1", "anon"},
		},
		{
			name: "cancelled job leaves the queue cleanly",
			jobs: []JobSpec{
				{Name: "a", Workers: 1},
				{Name: "victim", Workers: 1},
				{Name: "c", Workers: 1},
			},
			cancel: "victim",
			want:   []string{"a", "c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewScheduler(1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.limits != nil {
				s.SetTenantLimits(tc.limits)
			}
			release := holdJob(t, s, "holder", 1)
			var mu sync.Mutex
			var order []string
			byName := make(map[string]*Job)
			for _, spec := range tc.jobs {
				byName[spec.Name] = queueJob(t, s, spec, &mu, &order)
			}
			if tc.cancel != "" {
				victim := byName[tc.cancel]
				if !s.Cancel(victim.ID()) {
					t.Fatalf("cancel of queued %q refused", tc.cancel)
				}
				// The cancelled job must terminate while the budget is still
				// held, not once the holder releases it.
				select {
				case <-victim.Done():
				case <-time.After(5 * time.Second):
					t.Fatalf("cancelled queued %q waited for budget", tc.cancel)
				}
				if st := victim.Status(); st.State != JobCanceled {
					t.Fatalf("cancelled queued %q finished %v", tc.cancel, st.State)
				}
			}
			release()
			s.Wait()
			mu.Lock()
			defer mu.Unlock()
			if len(order) != len(tc.want) {
				t.Fatalf("start order %v, want %v", order, tc.want)
			}
			for i := range order {
				if order[i] != tc.want[i] {
					t.Fatalf("start order %v, want %v", order, tc.want)
				}
			}
		})
	}
}

// TestSchedulerLargeJobNotStarved: the head of the admission queue blocks
// everything behind it, so a 2-worker job queued ahead of a stream of
// 1-worker jobs starts as soon as its tokens free up — under the old
// unordered cond.Wait admission any later small job could slip in first,
// starving the large one indefinitely.
func TestSchedulerLargeJobNotStarved(t *testing.T) {
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel1 := holdJob(t, s, "holder1", 1)
	rel2 := holdJob(t, s, "holder2", 1)
	var mu sync.Mutex
	var order []string
	queueJob(t, s, JobSpec{Name: "big", Workers: 2}, &mu, &order)
	queueJob(t, s, JobSpec{Name: "small1", Workers: 2}, &mu, &order)
	queueJob(t, s, JobSpec{Name: "small2", Workers: 2}, &mu, &order)

	// One free token fits small1, but big is the queue head: nothing starts.
	rel1()
	waitFor(t, "holder1 to release", func() bool { return s.InUse() == 1 })
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if len(order) != 0 {
		t.Fatalf("jobs %v started past the blocked queue head", order)
	}
	mu.Unlock()

	rel2()
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"big", "small1", "small2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("start order %v, want %v", order, want)
		}
	}
}

// TestSchedulerAdmitsInSubmitOrder: a job joins the admission queue when it
// is submitted, not when its goroutine first runs. Under GOMAXPROCS(1) the
// Go scheduler runs the most recently started goroutine first, so with
// budget 2, a job B wanting 1 worker submitted right after a job A wanting
// 2 reaches the queue first if queueing waits for the goroutine, and takes
// a token A is owed: B would start before A. The durable pass queues each
// job once its journal entry is written.
func TestSchedulerAdmitsInSubmitOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, durable := range []bool{false, true} {
		s, err := NewScheduler(2)
		if err != nil {
			t.Fatal(err)
		}
		submit := s.SubmitJob
		if durable {
			jl, err := OpenJournal(t.TempDir() + "/jobs.journal")
			if err != nil {
				t.Fatal(err)
			}
			defer jl.Close()
			s.SetJournal(jl)
			submit = s.SubmitDurable
		}
		var mu sync.Mutex
		var order []string
		record := func(ctx context.Context, j *Job) (any, error) {
			mu.Lock()
			order = append(order, j.name)
			mu.Unlock()
			return nil, nil
		}
		a, err := submit(JobSpec{Name: "A", Workers: 2}, record)
		if err != nil {
			t.Fatal(err)
		}
		b, err := submit(JobSpec{Name: "B", Workers: 1}, record)
		if err != nil {
			t.Fatal(err)
		}
		<-a.Done()
		<-b.Done()
		s.Close()
		s.Wait()
		if fmt.Sprint(order) != "[A B]" {
			t.Fatalf("durable=%v: jobs started in order %v, want [A B]", durable, order)
		}
	}
}

// TestSchedulerQuotaRejection: per-tenant job and worker caps reject at
// submit with ErrQuotaExceeded, never consume budget or queue positions,
// and are released as the tenant's jobs drain.
func TestSchedulerQuotaRejection(t *testing.T) {
	s, err := NewScheduler(8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTenantLimits(map[string]TenantLimits{
		"capped": {MaxJobs: 1, MaxWorkers: 3},
	})

	release := make(chan struct{})
	started := make(chan struct{})
	j1, err := s.SubmitJob(JobSpec{Name: "first", Tenant: "capped", Workers: 2},
		func(ctx context.Context, j *Job) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Job cap: a second live job is refused.
	_, err = s.SubmitJob(JobSpec{Name: "second", Tenant: "capped", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-cap submit = %v, want ErrQuotaExceeded", err)
	}
	// The rejection consumed nothing: budget use and queue depth unchanged.
	if got := s.InUse(); got != 2 {
		t.Fatalf("InUse = %d after quota rejection, want 2", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth = %d after quota rejection, want 0", got)
	}
	// Another tenant is unaffected.
	other, err := s.SubmitJob(JobSpec{Name: "other", Tenant: "free", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-other.Done()

	close(release)
	<-j1.Done()
	// With the first job drained the tenant fits again — but the worker
	// quota still caps the request size.
	_, err = s.SubmitJob(JobSpec{Name: "wide", Tenant: "capped", Workers: 4},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("4-worker submit under MaxWorkers=3 = %v, want ErrQuotaExceeded", err)
	}
	ok, err := s.SubmitJob(JobSpec{Name: "fits", Tenant: "capped", Workers: 3},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-ok.Done()

	for _, ts := range s.Tenants() {
		if ts.Tenant == "capped" {
			if ts.QuotaRejections != 2 {
				t.Fatalf("quota rejections = %d, want 2", ts.QuotaRejections)
			}
			if ts.CompletedJobs != 2 {
				t.Fatalf("completed = %d, want 2", ts.CompletedJobs)
			}
		}
	}
}

// TestSchedulerRecoveredBypassesQuota: a journal-recovery re-submission
// (JobSpec.Recovered) is admitted past the tenant's caps — the work was
// already admitted by the previous process, and a quota lowered between
// restarts must not strand it in the journal — while the ledger is still
// charged, so fresh submissions keep seeing the true load.
func TestSchedulerRecoveredBypassesQuota(t *testing.T) {
	s, err := NewScheduler(8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTenantLimits(map[string]TenantLimits{
		"capped": {MaxJobs: 1, MaxWorkers: 2},
	})

	release := make(chan struct{})
	defer close(release)
	park := func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := s.SubmitJob(JobSpec{Name: "live", Tenant: "capped", Workers: 2},
		park); err != nil {
		t.Fatal(err)
	}

	// At the job cap and the worker cap: a fresh submission is refused...
	_, err = s.SubmitJob(JobSpec{Name: "fresh", Tenant: "capped", Workers: 1}, park)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("fresh over-cap submit = %v, want ErrQuotaExceeded", err)
	}
	// ...but a recovered one is re-admitted past both caps.
	rec, err := s.SubmitJob(JobSpec{Name: "recovered", Tenant: "capped",
		Workers: 2, Recovered: true}, park)
	if err != nil {
		t.Fatalf("recovered re-submission rejected: %v", err)
	}
	_ = rec

	// The bypass still charges the ledger: live jobs and committed workers
	// include the recovered job, and only the fresh submit was a rejection.
	for _, tn := range s.Tenants() {
		if tn.Tenant != "capped" {
			continue
		}
		if tn.LiveJobs != 2 || tn.WorkersDemand != 4 {
			t.Fatalf("ledger live=%d demand=%d, want 2/4", tn.LiveJobs, tn.WorkersDemand)
		}
		if tn.QuotaRejections != 1 {
			t.Fatalf("quota rejections = %d, want 1", tn.QuotaRejections)
		}
	}
}

// TestSchedulerRetentionBounded: 10k submissions must not grow the job map
// without bound — terminal jobs beyond the per-tenant retention cap are
// evicted, newest retained, and an evicted id is simply not found.
func TestSchedulerRetentionBounded(t *testing.T) {
	// Budget 1 serializes execution in admission (= submission) order, so
	// "newest retained, oldest evicted" is deterministic by job id.
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keep = 16
	s.SetRetention(keep)
	const n = 10_000
	// Hold the token while submitting so every job parks in the admission
	// queue; admission order is then submit order (seq), so finish order —
	// and therefore which ids survive retention — is deterministic.
	release := holdJob(t, s, "holder", 1)
	var last *Job
	for i := 0; i < n; i++ {
		j, err := s.SubmitJob(JobSpec{Name: "tick", Workers: 1},
			func(ctx context.Context, j *Job) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	waitFor(t, "all jobs to queue", func() bool { return s.QueueDepth() == n })
	release()
	s.Wait()
	if got := len(s.Jobs()); got > keep {
		t.Fatalf("job map holds %d entries after %d submissions, want <= %d",
			got, n, keep)
	}
	if _, ok := s.Job(1); ok {
		t.Fatal("oldest job still in the map past the retention cap")
	}
	if _, ok := s.Status(1); ok {
		t.Fatal("evicted job without a journal entry reported a status")
	}
	if _, ok := s.Job(last.ID()); !ok {
		t.Fatal("newest terminal job evicted")
	}
	st, ok := s.Status(last.ID())
	if !ok || st.State != JobDone {
		t.Fatalf("newest terminal status = %+v, %v", st, ok)
	}
}

// opaqueCtx is a context the stdlib cannot recognize as one of its own
// cancellable contexts, so every context derived from it is propagated by a
// dedicated goroutine — which makes an undisposed derived context countable.
type opaqueCtx struct{ done chan struct{} }

func (o opaqueCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (o opaqueCtx) Done() <-chan struct{}       { return o.done }
func (o opaqueCtx) Err() error                  { return nil }
func (o opaqueCtx) Value(any) any               { return nil }

// TestSchedulerJobContextLeak: jobContext must create exactly one
// cancellable context whose returned cancel disposes it. The old code
// created a WithCancel context and then overwrote both it and its cancel
// with WithTimeout's whenever a timeout was set, leaking the first
// context's registration per timed job; against an opaque parent each such
// orphan keeps a propagation goroutine alive, which this test counts.
func TestSchedulerJobContextLeak(t *testing.T) {
	parent := opaqueCtx{done: make(chan struct{})}
	defer close(parent.done)
	runtime.GC()
	base := runtime.NumGoroutine()
	const n = 64
	for _, timeout := range []time.Duration{0, time.Hour} {
		for i := 0; i < n; i++ {
			ctx, cancel := jobContext(parent, timeout)
			cancel()
			<-ctx.Done() // the one created context must be the one cancelled
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			runtime.GC()
			t.Fatalf("%d goroutines linger after cancelling %d job contexts "+
				"(baseline %d): a context per timed job is leaking",
				runtime.NumGoroutine()-base, 2*n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerDrainFinishRace pins the finish/Close coherence under the
// race detector: jobs finishing (some cancelled, some timing out) while
// Drain closes the scheduler must observe a consistent shutdown flag.
func TestSchedulerDrainFinishRace(t *testing.T) {
	s, err := NewScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	var mu sync.Mutex
	var submitted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			timeout := time.Duration(0)
			if i%3 == 0 {
				timeout = time.Duration(i%5) * time.Millisecond
			}
			j, err := s.SubmitJob(JobSpec{Name: "n", Workers: 1 + i%3,
				Priority: i % 4, Timeout: timeout},
				func(ctx context.Context, j *Job) (any, error) {
					select {
					case <-ctx.Done():
					case <-time.After(time.Duration(i%7) * 100 * time.Microsecond):
					}
					return nil, nil
				})
			if err != nil {
				return // closed mid-storm: expected
			}
			submitted.Add(1)
			mu.Lock()
			ids = append(ids, j.ID())
			mu.Unlock()
		}
	}()
	go func() {
		mu.Lock()
		snapshot := append([]int(nil), ids...)
		mu.Unlock()
		for _, id := range snapshot {
			if id%4 == 0 {
				s.Cancel(id)
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if !s.Drain(10 * time.Second) {
		t.Fatal("drain deadline exceeded")
	}
	wg.Wait()
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", s.InUse())
	}
}

// TestSchedulerWatch: watchers coalesce progress signals and always observe
// the terminal state.
func TestSchedulerWatch(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	step := make(chan struct{})
	j, err := s.SubmitJob(JobSpec{Name: "w", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			for gen := 1; gen <= 3; gen++ {
				<-step
				j.Progress(gen, 3, float64(gen))
			}
			return "done", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	notify, stop := j.Watch()
	defer stop()
	for gen := 1; gen <= 3; gen++ {
		step <- struct{}{}
		select {
		case <-notify:
		case <-time.After(5 * time.Second):
			t.Fatalf("no progress signal for generation %d", gen)
		}
		waitFor(t, "progress to land", func() bool {
			return j.Status().Generation == gen
		})
	}
	<-j.Done()
	if st := j.Status(); st.State != JobDone || st.BestFitness != 3 {
		t.Fatalf("final status %+v", st)
	}
}

// TestSchedulerDurableOrderingSurvivesRestart: tenant and priority ride in
// the journal, and recovery hands entries back in submission order — a
// restarted daemon rebuilds the same admission ordering it shut down with.
func TestSchedulerDurableOrderingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir + "/jobs.journal")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(jl)

	block := func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	specs := []JobSpec{
		{Name: "first", Tenant: "alpha", Priority: 3, Workers: 1},
		{Name: "second", Tenant: "beta", Priority: 7, Workers: 1},
		{Name: "third", Tenant: "alpha", Workers: 1},
	}
	for _, spec := range specs {
		if _, err := s.SubmitDurable(spec, block); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "jobs to settle", func() bool {
		return s.InUse() == 1 && s.QueueDepth() == 2
	})
	s.Close()
	s.Wait()
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenJournal(dir + "/jobs.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rec := reopened.Recovered()
	if len(rec) != len(specs) {
		t.Fatalf("recovered %d entries, want %d", len(rec), len(specs))
	}
	for i, spec := range specs {
		if rec[i].Name != spec.Name || rec[i].Tenant != spec.Tenant ||
			rec[i].Priority != spec.Priority {
			t.Fatalf("entry %d = %+v, want name/tenant/priority of %+v",
				i, rec[i], spec)
		}
	}

	// A fresh scheduler wired to the reopened journal can answer for a
	// journaled-but-not-yet-requeued id with a terminal stub.
	s2, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetJournal(reopened)
	st, ok := s2.Status(rec[1].ID)
	if !ok || st.Name != "second" || st.Tenant != "beta" || st.Priority != 7 ||
		st.State != JobCanceled {
		t.Fatalf("journal-backed stub = %+v, %v", st, ok)
	}
}
