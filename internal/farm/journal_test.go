package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

func journaledScheduler(t *testing.T, path string, budget int) (*Scheduler, *Journal) {
	t.Helper()
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(budget)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(jl)
	return s, jl
}

func TestJournalRetiresFinishedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, jl := journaledScheduler(t, path, 2)
	defer s.Close()

	spec := JobSpec{Name: "ok", Workers: 1, Payload: json.RawMessage(`{"k":1}`)}
	j, err := s.SubmitDurable(spec, func(ctx context.Context, j *Job) (any, error) {
		if err := j.Checkpoint(json.RawMessage(`{"gen":3}`)); err != nil {
			return nil, err
		}
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if jl.Len() != 0 {
		t.Fatalf("finished job still journaled (%d entries)", jl.Len())
	}
	// A fresh process over the same file sees nothing to recover.
	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec := jl2.Recovered(); len(rec) != 0 {
		t.Fatalf("recovered %d jobs from a clean journal", len(rec))
	}
}

func TestJournalRetiresUserCancelledAndFailedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, jl := journaledScheduler(t, path, 2)
	defer s.Close()

	started := make(chan struct{})
	blocked, err := s.SubmitDurable(JobSpec{Name: "blocked", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Cancel(blocked.ID())
	<-blocked.Done()

	failed, err := s.SubmitDurable(JobSpec{Name: "failing", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			panic("defective virus")
		})
	if err != nil {
		t.Fatal(err)
	}
	<-failed.Done()

	// Neither a user cancel nor a failure is worth re-queueing on restart.
	if jl.Len() != 0 {
		t.Fatalf("journal holds %d entries, want 0", jl.Len())
	}
}

func TestJournalKeepsDrainInterruptedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, _ := journaledScheduler(t, path, 2)

	started := make(chan struct{})
	spec := JobSpec{
		Name:    "longrun",
		Workers: 2,
		Payload: json.RawMessage(`{"template":"data64"}`),
	}
	_, err := s.SubmitDurable(spec, func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		// The search's drain flush: persist the last generation on the way out.
		if err := j.Checkpoint(json.RawMessage(`{"gen":7}`)); err != nil {
			return nil, err
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}

	// The restarted process finds the job, its spec, and the checkpoint the
	// drain flushed.
	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := jl2.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(rec))
	}
	e := rec[0]
	if e.Name != "longrun" || e.Workers != 2 || e.State != "interrupted" {
		t.Fatalf("recovered entry = %+v", e)
	}
	if string(e.Spec) != `{"template":"data64"}` {
		t.Fatalf("spec = %s", e.Spec)
	}
	if string(e.Checkpoint) != `{"gen":7}` {
		t.Fatalf("checkpoint = %s", e.Checkpoint)
	}
}

func TestJournalSurvivesKillWithoutDrain(t *testing.T) {
	// A SIGKILLed daemon never reaches Drain: whatever the journal holds at
	// the crash is the recovery set. Simulate by abandoning the scheduler.
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, _ := journaledScheduler(t, path, 1)

	checkpointed := make(chan struct{})
	_, err := s.SubmitDurable(JobSpec{Name: "killed", Workers: 1},
		func(ctx context.Context, j *Job) (any, error) {
			if err := j.Checkpoint(json.RawMessage(`{"gen":2}`)); err != nil {
				return nil, err
			}
			close(checkpointed)
			<-ctx.Done() // runs until the "kill"
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	<-checkpointed

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := jl2.Recovered()
	if len(rec) != 1 || string(rec[0].Checkpoint) != `{"gen":2}` {
		t.Fatalf("recovered = %+v", rec)
	}
	s.Close() // cleanup of the "dead" process
	s.Wait()
}

// TestJournalDeltasStayBounded: the on-disk journal must not retain one
// frame per historical state change forever — the in-flight compaction
// rewrites it once the delta history dwarfs the live set.
func TestJournalDeltasStayBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	spec := json.RawMessage(`{"k":1}`)
	for i := 0; i < 2000; i++ {
		if err := jl.add(JournalEntry{ID: i, Name: "j", Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if err := jl.setState(i, "running"); err != nil {
			t.Fatal(err)
		}
		if err := jl.remove(i); err != nil {
			t.Fatal(err)
		}
	}
	if jl.opsSinceCompact >= 3*2000 {
		t.Fatalf("no compaction after %d ops", jl.opsSinceCompact)
	}
	// A fresh open replays to the same (empty) live set.
	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(jl2.Recovered()) != 0 {
		t.Fatal("retired jobs resurrected by replay")
	}
}

// TestJournalCheckpointBytesStayBounded: a job that keeps journaling
// multi-megabyte checkpoints triggers compaction by bytes long before it
// has appended enough ops to trigger it by count, so the store holds a
// bounded number of superseded checkpoints.
func TestJournalCheckpointBytesStayBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if err := jl.add(JournalEntry{ID: 1, Name: "j", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	cp := make([]byte, 3<<20)
	for i := 0; i < 40; i++ {
		cp[0] = byte(i)
		if err := jl.setCheckpoint(1, bytes.Clone(cp)); err != nil {
			t.Fatal(err)
		}
	}
	if size := jl.log.Size(); size > journalCompactMinBytes+8<<20 {
		t.Fatalf("journal holds %d MB after 40 checkpoints of 3 MB", size>>20)
	}
	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if rec := jl2.Recovered(); len(rec) != 1 || rec[0].Checkpoint[0] != 39 {
		t.Fatal("compaction lost the newest checkpoint")
	}
}

// TestJournalRecoveredRetiredOnFirstMutation pins the whole-doc-era
// contract: the previous process's entries stay recoverable on disk until
// the new process journals something, and are gone after.
func TestJournalRecoveredRetiredOnFirstMutation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.add(JournalEntry{ID: 7, Name: "old", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	jl.Close() // "crash": entry 7 left journaled

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec := jl2.Recovered(); len(rec) != 1 || rec[0].ID != 7 {
		t.Fatalf("recovered = %+v", rec)
	}
	jl2.Close() // no mutation: entry 7 must still be on disk

	jl3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec := jl3.Recovered(); len(rec) != 1 {
		t.Fatalf("pre-mutation reopen recovered %d jobs, want 1", len(rec))
	}
	// The first mutation retires it.
	if err := jl3.add(JournalEntry{ID: 100, Name: "new", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := jl3.remove(100); err != nil {
		t.Fatal(err)
	}
	jl3.Close()
	jl4, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl4.Close()
	if rec := jl4.Recovered(); len(rec) != 0 {
		t.Fatalf("post-mutation reopen recovered %+v, want none", rec)
	}
}

func TestSubmitDurableRequiresJournal(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.SubmitDurable(JobSpec{Name: "x"},
		func(ctx context.Context, j *Job) (any, error) { return nil, nil })
	if err == nil {
		t.Fatal("durable submit accepted without a journal")
	}
}
