package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dstress/internal/farm"
	"dstress/internal/fleet"
)

// authedDaemon builds a daemon with bearer auth on: tokA→alpha (MaxJobs 1),
// tokB→beta (uncapped), tokOps→ops (admin: cross-tenant visibility).
func authedDaemon(t *testing.T, budget int) (*daemon, *httptest.Server) {
	t.Helper()
	d, err := newDaemon(budget, 4, 7, nil, nil, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.setAuth(&authConfig{
		Tokens: map[string]string{"tokA": "alpha", "tokB": "beta", "tokOps": "ops"},
		Tenants: map[string]farm.TenantLimits{
			"alpha": {MaxJobs: 1},
		},
		Admins: []string{"ops"},
	})
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	})
	return d, ts
}

// doAuthed sends a request with an optional bearer token and decodes out.
func doAuthed(t *testing.T, method, url, token string, body []byte, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, url, strings.NewReader(string(body)))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAuthMiddleware is the auth matrix: every API route requires a known
// token, failures carry the unauthorized envelope, the pprof surface stays
// open, and the tenant a token resolves to lands in the submitted job.
func TestAuthMiddleware(t *testing.T) {
	_, ts := authedDaemon(t, 4)

	deny := []struct {
		name, token, url string
	}{
		{"no token", "", ts.URL + "/api/v1/jobs"},
		{"unknown token", "nope", ts.URL + "/api/v1/jobs"},
		{"metrics", "", ts.URL + "/api/v1/metrics"},
		{"fleet verb", "", ts.URL + "/api/v1/fleet/join"},
	}
	for _, tc := range deny {
		var body errorBody
		code := doAuthed(t, http.MethodGet, tc.url, tc.token, nil, &body)
		if tc.url == ts.URL+"/api/v1/fleet/join" {
			code = doAuthed(t, http.MethodPost, tc.url, tc.token, []byte("{}"), &body)
		}
		if code != http.StatusUnauthorized {
			t.Fatalf("%s: HTTP %d, want 401", tc.name, code)
		}
		if body.Error.Code != "unauthorized" {
			t.Fatalf("%s: error code %q, want unauthorized", tc.name, body.Error.Code)
		}
	}

	// pprof stays open: it is the operator loopback, not the tenant API.
	if code := doAuthed(t, http.MethodGet, ts.URL+"/debug/pprof/", "", nil, nil); code != http.StatusOK {
		t.Fatalf("debug/pprof behind auth: HTTP %d", code)
	}

	// A valid token submits, and the job is attributed to its tenant.
	reqBody, _ := json.Marshal(jobRequest{
		Template: "data64", Generations: 1, Population: 4, Runs: 1, Priority: 2,
	})
	var st farm.JobStatus
	code := doAuthed(t, http.MethodPost, ts.URL+"/api/v1/jobs", "tokB", reqBody, &st)
	if code != http.StatusAccepted {
		t.Fatalf("authed submit: HTTP %d, want 202", code)
	}
	if st.Tenant != "beta" || st.Priority != 2 {
		t.Fatalf("job attributed to %q prio %d, want beta prio 2", st.Tenant, st.Priority)
	}
}

// TestQuota429: a tenant at its job cap gets 429 quota_exceeded — and the
// rejection is the tenant's, not the daemon's: another tenant submits fine.
func TestQuota429(t *testing.T) {
	d, ts := authedDaemon(t, 4)

	// Pin alpha's one allowed live job open, bypassing HTTP so the test
	// controls its lifetime exactly.
	release := make(chan struct{})
	j, err := d.sched.SubmitJob(farm.JobSpec{Name: "hold", Tenant: "alpha", Workers: 1},
		func(ctx context.Context, j *farm.Job) (any, error) {
			<-release
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	reqBody, _ := json.Marshal(jobRequest{
		Template: "data64", Generations: 1, Population: 4, Runs: 1,
	})
	var envelope errorBody
	code := doAuthed(t, http.MethodPost, ts.URL+"/api/v1/jobs", "tokA", reqBody, &envelope)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", code)
	}
	if envelope.Error.Code != "quota_exceeded" {
		t.Fatalf("error code %q, want quota_exceeded", envelope.Error.Code)
	}

	var st farm.JobStatus
	if code := doAuthed(t, http.MethodPost, ts.URL+"/api/v1/jobs", "tokB", reqBody, &st); code != http.StatusAccepted {
		t.Fatalf("other tenant's submit: HTTP %d, want 202", code)
	}

	// The rejection shows up in the per-tenant metrics section.
	var mv struct {
		Scheduler struct {
			QueueDepth int                 `json:"queue_depth"`
			Tenants    []farm.TenantStatus `json:"tenants"`
		} `json:"scheduler"`
	}
	if code := doAuthed(t, http.MethodGet, ts.URL+"/api/v1/metrics", "tokA", nil, &mv); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	found := false
	for _, tn := range mv.Scheduler.Tenants {
		if tn.Tenant == "alpha" {
			found = true
			if tn.QuotaRejections != 1 {
				t.Fatalf("alpha quota_rejections = %d, want 1", tn.QuotaRejections)
			}
			if tn.LiveJobs != 1 {
				t.Fatalf("alpha live_jobs = %d, want 1", tn.LiveJobs)
			}
		}
	}
	if !found {
		t.Fatalf("metrics tenants %+v missing alpha", mv.Scheduler.Tenants)
	}
	_ = j
}

// TestAuthTenantIsolation: with auth on, a tenant can see, wait on and
// cancel only its own jobs — another tenant's job answers 404 exactly like
// a missing one (ids are sequential; a 403 would confirm liveness), and the
// job list and the scheduler metrics are scoped to the caller. An admin
// tenant keeps the cross-tenant view.
func TestAuthTenantIsolation(t *testing.T) {
	d, ts := authedDaemon(t, 4)

	// Pin an alpha job open so it stays visible (and cancellable) while the
	// other tenant probes it.
	release := make(chan struct{})
	defer close(release)
	j, err := d.sched.SubmitJob(farm.JobSpec{Name: "secret", Tenant: "alpha", Workers: 1},
		func(ctx context.Context, j *farm.Job) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	id := itoa(j.ID())
	evictedURL := evictedJournaledJob(t)

	// Every per-job verb, on the live job and on the evicted one: beta gets
	// 404 not_found on both, and alpha gets the evicted job's terminal stub.
	probes := []struct {
		method, url, token string
		want               int
	}{
		{http.MethodGet, ts.URL + "/api/v1/jobs/" + id, "tokB", http.StatusNotFound},
		{http.MethodGet, ts.URL + "/api/v1/jobs/" + id + "/wait", "tokB", http.StatusNotFound},
		{http.MethodPost, ts.URL + "/api/v1/jobs/" + id + "/cancel", "tokB", http.StatusNotFound},
		{http.MethodGet, evictedURL, "tokB", http.StatusNotFound},
		{http.MethodGet, evictedURL + "/wait", "tokB", http.StatusNotFound},
		{http.MethodPost, evictedURL + "/cancel", "tokB", http.StatusNotFound},
		{http.MethodGet, evictedURL, "tokA", http.StatusOK},
		{http.MethodGet, evictedURL + "/wait", "tokA", http.StatusOK},
		{http.MethodPost, evictedURL + "/cancel", "tokA", http.StatusOK},
	}
	for _, pr := range probes {
		var raw json.RawMessage
		code := doAuthed(t, pr.method, pr.url, pr.token, nil, &raw)
		if code != pr.want {
			t.Fatalf("%s %s as %s: HTTP %d, want %d", pr.method, pr.url,
				pr.token, code, pr.want)
		}
		if code == http.StatusNotFound {
			var envelope errorBody
			if err := json.Unmarshal(raw, &envelope); err != nil ||
				envelope.Error.Code != "not_found" {
				t.Fatalf("%s %s as %s: body %s, want a not_found envelope",
					pr.method, pr.url, pr.token, raw)
			}
			continue
		}
		var view jobView
		if err := json.Unmarshal(raw, &view); err != nil ||
			view.Name != "evicted" || view.State != farm.JobCanceled {
			t.Fatalf("%s %s as %s: body %s, want the evicted job's stub",
				pr.method, pr.url, pr.token, raw)
		}
	}
	if st := j.Status(); st.State == farm.JobCanceled {
		t.Fatalf("cross-tenant cancel went through: job state %s", st.State)
	}

	// The list and the metrics scheduler section are scoped to the caller.
	var jobs []farm.JobStatus
	if code := doAuthed(t, http.MethodGet, ts.URL+"/api/v1/jobs", "tokB", nil, &jobs); code != http.StatusOK {
		t.Fatalf("list as beta: HTTP %d", code)
	}
	for _, st := range jobs {
		if st.Tenant != "beta" {
			t.Fatalf("beta's job list leaks tenant %q (job %q)", st.Tenant, st.Name)
		}
	}
	var mv struct {
		Scheduler struct {
			Jobs    []farm.JobStatus    `json:"jobs"`
			Tenants []farm.TenantStatus `json:"tenants"`
		} `json:"scheduler"`
	}
	if code := doAuthed(t, http.MethodGet, ts.URL+"/api/v1/metrics", "tokB", nil, &mv); code != http.StatusOK {
		t.Fatalf("metrics as beta: HTTP %d", code)
	}
	for _, st := range mv.Scheduler.Jobs {
		if st.Tenant != "beta" {
			t.Fatalf("beta's metrics leak job of tenant %q", st.Tenant)
		}
	}
	for _, tn := range mv.Scheduler.Tenants {
		if tn.Tenant != "beta" {
			t.Fatalf("beta's metrics leak ledger of tenant %q", tn.Tenant)
		}
	}

	// The owner and the admin both see the job.
	for _, tok := range []string{"tokA", "tokOps"} {
		var view jobView
		if code := doAuthed(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+id, tok, nil, &view); code != http.StatusOK {
			t.Fatalf("get as %s: HTTP %d, want 200", tok, code)
		}
		if view.Name != "secret" {
			t.Fatalf("get as %s: job %q", tok, view.Name)
		}
	}
	var all []farm.JobStatus
	if code := doAuthed(t, http.MethodGet, ts.URL+"/api/v1/jobs", "tokOps", nil, &all); code != http.StatusOK {
		t.Fatalf("list as ops: HTTP %d", code)
	}
	found := false
	for _, st := range all {
		found = found || st.Tenant == "alpha"
	}
	if !found {
		t.Fatal("admin's job list misses the alpha job")
	}

	// The owner's cancel still works.
	if code := doAuthed(t, http.MethodPost, ts.URL+"/api/v1/jobs/"+id+"/cancel",
		"tokA", []byte("{}"), nil); code != http.StatusOK {
		t.Fatalf("owner cancel: HTTP %d", code)
	}
	<-j.Done()
}

// evictedJournaledJob builds an authed daemon whose alpha job "evicted" is
// gone from memory but still journaled, and returns that job's URL. A durable
// job interrupted by a shutdown keeps its journal entry, and retention 1
// evicts it once a later alpha job is terminal too.
func evictedJournaledJob(t *testing.T) string {
	t.Helper()
	jl, err := farm.OpenJournal(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	d, ts := authedDaemon(t, 4)
	d.sched.SetJournal(jl)
	d.sched.SetRetention(1)
	// Lift alpha's one-job cap: both jobs must be live at the shutdown.
	d.sched.SetTenantLimits(map[string]farm.TenantLimits{"alpha": {}})
	submit := func(name string, fn farm.JobFunc) *farm.Job {
		j, err := d.sched.SubmitDurable(farm.JobSpec{
			Name: name, Tenant: "alpha", Workers: 1, Payload: []byte("{}"),
		}, fn)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	evicted := submit("evicted", func(ctx context.Context, j *farm.Job) (any, error) {
		<-ctx.Done()
		return nil, nil
	})
	later := submit("later", func(ctx context.Context, j *farm.Job) (any, error) {
		<-ctx.Done()
		<-evicted.Done() // terminal second, so the retention evicts "evicted"
		return nil, nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for d.sched.InUse() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.sched.Close()
	<-later.Done()
	if _, live := d.sched.Job(evicted.ID()); live {
		t.Fatal("retention did not evict the interrupted job")
	}
	return ts.URL + "/api/v1/jobs/" + itoa(evicted.ID())
}

// TestPriorityClamp: the client-declared priority is clamped to the
// documented [0, maxPriority] band at submit, so no tenant can declare its
// way past the operator-configured weights.
func TestPriorityClamp(t *testing.T) {
	_, ts := authedDaemon(t, 4)
	for _, tc := range []struct{ in, want int }{
		{1_000_000, maxPriority},
		{-5, 0},
		{3, 3},
	} {
		reqBody, _ := json.Marshal(jobRequest{
			Template: "data64", Generations: 1, Population: 4, Runs: 1,
			Priority: tc.in,
		})
		var st farm.JobStatus
		code := doAuthed(t, http.MethodPost, ts.URL+"/api/v1/jobs", "tokB", reqBody, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit priority %d: HTTP %d", tc.in, code)
		}
		if st.Priority != tc.want {
			t.Fatalf("priority %d admitted as %d, want %d", tc.in, st.Priority, tc.want)
		}
	}
}

// TestQuotaRecoveryBypass: a journaled job admitted by a previous process is
// re-queued on restart even when the tenant's quota was lowered in between —
// recovery must never strand durable work behind the new caps.
func TestQuotaRecoveryBypass(t *testing.T) {
	dir := t.TempDir()
	jl, err := farm.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := newDaemon(2, 4, 7, nil, jl, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(jobRequest{
		Template: "data64", Generations: 1, Population: 4, Runs: 1,
	})
	park := func(ctx context.Context, j *farm.Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	for _, name := range []string{"first", "second"} {
		if _, err := d1.sched.SubmitDurable(farm.JobSpec{
			Name: name, Tenant: "alpha", Workers: 1, Payload: payload,
		}, park); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d1.sched.InUse() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Shutdown, not user cancel: both entries stay journaled as interrupted.
	d1.sched.Close()
	d1.sched.Wait()
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := farm.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := newDaemon(2, 4, 7, nil, reopened, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d2.sched.Close()
		d2.sched.Wait()
		reopened.Close()
	}()
	// The restarted daemon caps alpha at one live job — tighter than the two
	// the journal holds.
	d2.setAuth(&authConfig{
		Tokens:  map[string]string{"tokA": "alpha"},
		Tenants: map[string]farm.TenantLimits{"alpha": {MaxJobs: 1}},
	})
	d2.recoverJobs()
	if got := len(d2.sched.Jobs()); got != 2 {
		t.Fatalf("restarted daemon re-queued %d jobs, want 2", got)
	}
	for _, tn := range d2.sched.Tenants() {
		if tn.Tenant == "alpha" && tn.QuotaRejections != 0 {
			t.Fatalf("recovery charged %d quota rejections", tn.QuotaRejections)
		}
	}
}

// TestSSEStream: an Accept: text/event-stream wait streams progress events
// as the search advances and terminates itself with a done event carrying
// the terminal state.
func TestSSEStream(t *testing.T) {
	d, ts := testDaemon(t, 2, false)

	step := make(chan struct{})
	j, err := d.sched.SubmitJob(farm.JobSpec{Name: "sse", Workers: 1},
		func(ctx context.Context, job *farm.Job) (any, error) {
			for gen := 1; gen <= 3; gen++ {
				<-step
				job.Progress(gen, 3, float64(gen)*1.5)
			}
			return jobResult{Generations: 3, BestFitness: 4.5}, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet,
		ts.URL+"/api/v1/jobs/"+itoa(j.ID())+"/wait", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE wait: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	type frame struct {
		event string
		data  string
	}
	frames := make(chan frame)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var f frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			case line == "" && f.event != "":
				frames <- f
				f = frame{}
			}
		}
	}()
	read := func() frame {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatal("no SSE frame")
		}
		return frame{}
	}

	// Opening frame: the current (pending/running) status.
	if f := read(); f.event != "progress" {
		t.Fatalf("first event %q, want progress", f.event)
	}
	// Drive the search one generation at a time, reading a frame after each
	// step so the watcher cannot coalesce every generation into one signal.
	// The frame after the final step may already be "done" — the job
	// completes right behind its last Progress call — so collect the whole
	// stream and assert over the sequence.
	var all []frame
	for gen := 1; gen <= 3; gen++ {
		step <- struct{}{}
		all = append(all, read())
	}
	for f := range frames {
		all = append(all, f)
	}
	sawGen := 0
	for _, f := range all[:len(all)-1] {
		if f.event != "progress" {
			t.Fatalf("mid-stream event %q, want progress", f.event)
		}
		var ev struct {
			Generation int `json:"generation"`
		}
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", f.data, err)
		}
		if ev.Generation > 0 {
			sawGen++
		}
	}
	if sawGen == 0 {
		t.Fatal("no progress event carried a generation")
	}
	last := all[len(all)-1]
	if last.event != "done" {
		t.Fatalf("final event %q, want done", last.event)
	}
	var ev struct {
		State  string     `json:"state"`
		Result *jobResult `json:"result"`
	}
	if err := json.Unmarshal([]byte(last.data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.State != "done" || ev.Result == nil || ev.Result.BestFitness != 4.5 {
		t.Fatalf("terminal event %+v", ev)
	}
}

// TestSSEFinishedJob: attaching a stream to an already-finished job yields
// its done event immediately.
func TestSSEFinishedJob(t *testing.T) {
	d, ts := testDaemon(t, 2, false)
	j, err := d.sched.SubmitJob(farm.JobSpec{Name: "fast", Workers: 1},
		func(ctx context.Context, job *farm.Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	req, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/api/v1/jobs/"+itoa(j.ID())+"/wait", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 4096)
	n, _ := resp.Body.Read(raw)
	if !strings.Contains(string(raw[:n]), "event: done") {
		t.Fatalf("finished-job stream started with %q, want a done event", raw[:n])
	}
}

// TestEvictedJobOverHTTP: a terminal job evicted by the retention policy is
// a 404 (no journal to synthesize a stub from), not a crash or a zombie.
func TestEvictedJobOverHTTP(t *testing.T) {
	d, ts := testDaemon(t, 2, false)
	d.sched.SetRetention(1)
	first, err := d.sched.SubmitJob(farm.JobSpec{Name: "a", Workers: 1},
		func(ctx context.Context, job *farm.Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	second, err := d.sched.SubmitJob(farm.JobSpec{Name: "b", Workers: 1},
		func(ctx context.Context, job *farm.Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-second.Done()
	waitFor := time.Now().Add(5 * time.Second)
	for len(d.sched.Jobs()) > 1 && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}
	var envelope errorBody
	code := getJSON(t, ts.URL+"/api/v1/jobs/"+itoa(first.ID()), &envelope)
	if code != http.StatusNotFound || envelope.Error.Code != "not_found" {
		t.Fatalf("evicted job: HTTP %d code %q, want 404 not_found",
			code, envelope.Error.Code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+itoa(second.ID()), nil); code != http.StatusOK {
		t.Fatalf("retained job: HTTP %d, want 200", code)
	}
}

// TestFleetWorkerAuth: a worker with the right bearer token joins an
// auth-enabled coordinator; one with none is locked out.
func TestFleetWorkerAuth(t *testing.T) {
	d, ts := authedDaemon(t, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// No token: join is rejected; the worker retries, never registers.
	bad := fleet.NewWorker(ts.URL, "intruder", buildFleetEvaluators,
		fleet.WithLeaseWait(100*time.Millisecond),
		fleet.WithBackoff(5*time.Millisecond, 20*time.Millisecond, 2))
	badCtx, badCancel := context.WithTimeout(ctx, 400*time.Millisecond)
	defer badCancel()
	_ = bad.Run(badCtx)
	if n := len(d.fleet.Snapshot().Workers); n != 0 {
		t.Fatalf("tokenless worker registered (%d workers)", n)
	}

	// With the token it joins like any tenant client.
	good := fleet.NewWorker(ts.URL, "authed", buildFleetEvaluators,
		fleet.WithAuthToken("tokB"),
		fleet.WithLeaseWait(100*time.Millisecond),
		fleet.WithBackoff(5*time.Millisecond, 20*time.Millisecond, 2))
	go good.Run(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.fleet.Snapshot().Workers) == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("authed worker never registered: %+v", d.fleet.Snapshot().Workers)
}

func itoa(n int) string { return strconv.Itoa(n) }
