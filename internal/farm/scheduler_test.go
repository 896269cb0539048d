package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerBudgetCap(t *testing.T) {
	s, err := NewScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var inUse, maxInUse atomic.Int64
	for i := 0; i < 6; i++ {
		_, err := s.SubmitJob(JobSpec{Name: fmt.Sprintf("job%d", i), Workers: 2},
			func(ctx context.Context, j *Job) (any, error) {
				cur := inUse.Add(2)
				for {
					old := maxInUse.Load()
					if cur <= old || maxInUse.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				inUse.Add(-2)
				return "ok", nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Wait()
	if m := maxInUse.Load(); m > 4 {
		t.Fatalf("budget exceeded: %d workers in flight", m)
	}
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after all jobs finished", s.InUse())
	}
	for _, st := range s.Jobs() {
		if st.State != JobDone {
			t.Fatalf("job %d finished %v", st.ID, st.State)
		}
	}
}

func TestSchedulerOversizedJobClamped(t *testing.T) {
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.SubmitJob(JobSpec{Name: "big", Workers: 16}, func(ctx context.Context, j *Job) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.Workers != 2 || st.State != JobDone {
		t.Fatalf("status = %+v", st)
	}
	// The clamp must be visible, not silent: the status carries both the
	// effective and the originally requested worker counts.
	if st.RequestedWorkers != 16 {
		t.Fatalf("RequestedWorkers = %d, want 16", st.RequestedWorkers)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"requested_workers":16`) {
		t.Fatalf("requested_workers missing from status JSON: %s", data)
	}
}

func TestSchedulerUnclampedJobOmitsRequested(t *testing.T) {
	s, err := NewScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.SubmitJob(JobSpec{Name: "fits", Workers: 2}, func(ctx context.Context, j *Job) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.RequestedWorkers != 0 {
		t.Fatalf("RequestedWorkers = %d for an unclamped job, want 0 (omitted)",
			st.RequestedWorkers)
	}
}

func TestSchedulerDurableOverBudgetRejected(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir + "/jobs.journal")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetJournal(jl)

	// A durable submission exceeding the budget is rejected, not clamped:
	// journaling a silently shrunk worker count would freeze the clamp into
	// every future re-queue of the job.
	_, err = s.SubmitDurable(JobSpec{Name: "big", Workers: 16},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("SubmitDurable(16 workers, budget 2) = %v, want ErrBudgetExceeded", err)
	}
	if n := len(jl.Recovered()); n != 0 {
		t.Fatalf("rejected job left %d journal entries", n)
	}

	// At the budget it is accepted and journaled with the true count.
	j, err := s.SubmitDurable(JobSpec{Name: "fits", Workers: 2},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.Workers != 2 || st.RequestedWorkers != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSchedulerPanicIsolation(t *testing.T) {
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad, _ := s.SubmitJob(JobSpec{Name: "bad", Workers: 1}, func(ctx context.Context, j *Job) (any, error) {
		panic("evaluation exploded")
	})
	good, _ := s.SubmitJob(JobSpec{Name: "good", Workers: 1}, func(ctx context.Context, j *Job) (any, error) {
		j.Progress(3, 10, 42.5)
		return "fine", nil
	})
	<-bad.Done()
	<-good.Done()
	if st := bad.Status(); st.State != JobFailed || st.Error == "" {
		t.Fatalf("panicking job: %+v", st)
	}
	if st := good.Status(); st.State != JobDone || st.Generation != 3 ||
		st.BestFitness != 42.5 {
		t.Fatalf("good job: %+v", st)
	}
	if res, err := good.Result(); err != nil || res != "fine" {
		t.Fatalf("good result = %v, %v", res, err)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, _ := s.SubmitJob(JobSpec{Name: "slow", Workers: 1, Timeout: 20 * time.Millisecond},
		func(ctx context.Context, j *Job) (any, error) {
			<-ctx.Done()
			return "partial", ctx.Err()
		})
	<-j.Done()
	if st := j.Status(); st.State != JobCanceled {
		t.Fatalf("timed-out job finished %v", st.State)
	}
	if res, _ := j.Result(); res != "partial" {
		t.Fatalf("partial result lost: %v", res)
	}
}

func TestSchedulerCancelPending(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := make(chan struct{})
	running, _ := s.SubmitJob(JobSpec{Name: "holder", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			<-release
			return nil, nil
		})
	var ran atomic.Bool
	pending, _ := s.SubmitJob(JobSpec{Name: "queued", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			ran.Store(true)
			return nil, nil
		})
	if !s.Cancel(pending.ID()) {
		t.Fatal("cancel of pending job refused")
	}
	// The cancelled job must terminate while the budget is still held — it
	// must not sit in the queue until the holder releases its tokens.
	select {
	case <-pending.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled pending job waited for budget")
	}
	close(release)
	s.Wait()
	if ran.Load() {
		t.Fatal("cancelled pending job still ran")
	}
	if st := pending.Status(); st.State != JobCanceled {
		t.Fatalf("pending job finished %v", st.State)
	}
	if st := running.Status(); st.State != JobDone {
		t.Fatalf("holder finished %v", st.State)
	}
	if s.Cancel(999) {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan struct{})
	j, _ := s.SubmitJob(JobSpec{Name: "run", Workers: 1}, func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return "best-so-far", nil
	})
	<-started
	s.Cancel(j.ID())
	<-j.Done()
	if st := j.Status(); st.State != JobCanceled {
		t.Fatalf("state = %v", st.State)
	}
	if res, err := j.Result(); res != "best-so-far" || err != nil {
		t.Fatalf("result = %v, %v", res, err)
	}
}

func TestSchedulerClose(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	running, _ := s.SubmitJob(JobSpec{Name: "r", Workers: 1}, func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	pending, _ := s.SubmitJob(JobSpec{Name: "p", Workers: 1}, func(ctx context.Context, j *Job) (any, error) {
		return nil, nil
	})
	s.Close()
	s.Wait()
	for _, j := range []*Job{running, pending} {
		if st := j.Status(); st.State != JobCanceled {
			t.Fatalf("job %q finished %v", st.Name, st.State)
		}
	}
	if _, err := s.SubmitJob(JobSpec{Name: "late", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil }); err == nil {
		t.Fatal("submission after Close accepted")
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(0); err == nil {
		t.Error("zero budget accepted")
	}
	s, _ := NewScheduler(1)
	defer s.Close()
	if _, err := s.SubmitJob(JobSpec{Name: "nil", Workers: 1}, nil); err == nil {
		t.Error("nil job accepted")
	}
	if _, ok := s.Job(7); ok {
		t.Error("unknown job found")
	}
}

func TestJobStateJSONRoundTrip(t *testing.T) {
	for _, st := range []JobState{JobPending, JobRunning, JobDone, JobFailed,
		JobCanceled} {
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back JobState
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("%v round-tripped to %v", st, back)
		}
	}
	var bad JobState
	if err := json.Unmarshal([]byte(`"exploded"`), &bad); err == nil {
		t.Fatal("unknown state accepted")
	}
}
