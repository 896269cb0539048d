package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"dstress/internal/farm"
)

// TestServiceStorm storms the daemon with two equal-weight tenants' tiny
// jobs, more submission lanes per tenant than its job cap, each lane
// retrying a 429 after a jittered backoff. It checks what holds only for the
// storm as a whole:
//   - no job is dropped: every submission is accepted in the end and its
//     job finishes done;
//   - each tenant's 429s, as its client counted them, are the rejections
//     /api/v1/metrics reports for it, and there were some;
//   - neither tenant is starved: when the first tenant has all its jobs
//     done, the other has at least half of its own done.
func TestServiceStorm(t *testing.T) {
	const (
		jobs  = 16 // per tenant
		lanes = 4  // per tenant, twice its job cap
	)
	tenants := []struct{ name, token string }{{"alpha", "tokA"}, {"beta", "tokB"}}
	d, err := newDaemon(2, 4, 7, nil, nil, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.setAuth(&authConfig{
		Tokens: map[string]string{"tokA": "alpha", "tokB": "beta", "tokOps": "ops"},
		Tenants: map[string]farm.TenantLimits{
			"alpha": {MaxJobs: 2},
			"beta":  {MaxJobs: 2},
		},
		Admins: []string{"ops"},
	})
	ts := httptest.NewServer(d.handler())
	defer func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	}()

	start := time.Now()
	var mu sync.Mutex
	rejected := map[string]int64{}
	finished := map[string][]time.Duration{} // each done job's time since start
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*lanes)
	for ti, tn := range tenants {
		next := make(chan int, jobs)
		for i := 0; i < jobs; i++ {
			next <- i
		}
		close(next)
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			rng := rand.New(rand.NewSource(int64(ti*lanes + lane + 1)))
			go func() {
				defer wg.Done()
				for i := range next {
					body, _ := json.Marshal(jobRequest{
						Name: fmt.Sprintf("%s-%d", tn.name, i), Template: "data24k",
						Generations: 2, Population: 8, Runs: 1, Workers: 1,
						Seed: uint64(ti*jobs + i + 1),
					})
					var st farm.JobStatus
					for backoff := time.Millisecond; ; {
						code, err := stormCall(http.MethodPost, ts.URL+"/api/v1/jobs",
							tn.token, body, &st)
						if err != nil {
							errs <- err
							return
						}
						if code == http.StatusAccepted {
							break
						}
						if code != http.StatusTooManyRequests {
							errs <- fmt.Errorf("%s submit: HTTP %d", tn.name, code)
							return
						}
						mu.Lock()
						rejected[tn.name]++
						mu.Unlock()
						time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
						backoff = min(2*backoff, 16*time.Millisecond)
					}
					var view jobView
					url := fmt.Sprintf("%s/api/v1/jobs/%d/wait", ts.URL, st.ID)
					code, err := stormCall(http.MethodGet, url, tn.token, nil, &view)
					if err != nil {
						errs <- err
						return
					}
					if code != http.StatusOK || view.State != farm.JobDone {
						errs <- fmt.Errorf("%s job %d: HTTP %d, state %v", tn.name, st.ID, code, view.State)
						return
					}
					mu.Lock()
					finished[tn.name] = append(finished[tn.name], time.Since(start))
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var mv struct {
		Scheduler struct {
			Tenants []farm.TenantStatus `json:"tenants"`
		} `json:"scheduler"`
	}
	if code, err := stormCall(http.MethodGet, ts.URL+"/api/v1/metrics", "tokOps", nil, &mv); err != nil || code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d, %v", code, err)
	}
	ledger := map[string]farm.TenantStatus{}
	for _, tn := range mv.Scheduler.Tenants {
		ledger[tn.Tenant] = tn
	}
	var total int64
	for _, tn := range tenants {
		got := ledger[tn.name]
		if len(finished[tn.name]) != jobs || got.CompletedJobs != jobs {
			t.Errorf("%s: %d jobs done by the client's count, %d by the ledger, want %d",
				tn.name, len(finished[tn.name]), got.CompletedJobs, jobs)
		}
		if got.QuotaRejections != rejected[tn.name] {
			t.Errorf("%s: client saw %d 429s, metrics report %d rejections",
				tn.name, rejected[tn.name], got.QuotaRejections)
		}
		total += rejected[tn.name]
	}
	if total == 0 {
		t.Error("no submission was rejected: the storm never reached a job cap")
	}
	if t.Failed() {
		return
	}

	// Completion times arrive in order per lane but not per tenant.
	first := time.Duration(1<<63 - 1)
	for _, tn := range tenants {
		first = min(first, slices.Max(finished[tn.name]))
	}
	for _, tn := range tenants {
		done := 0
		for _, at := range finished[tn.name] {
			if at <= first {
				done++
			}
		}
		t.Logf("%s: %d 429s, %d of %d jobs done at %v", tn.name, rejected[tn.name], done, jobs, first)
		if done < jobs/2 {
			t.Errorf("%s had %d of %d jobs done when the other tenant finished all of its own",
				tn.name, done, jobs)
		}
	}
}

// stormCall is one request of the storm, safe to make from any goroutine:
// it decodes a 2xx body into out and reports the status code.
func stormCall(method, url, token string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}
