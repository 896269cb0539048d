package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dstress/internal/farm"
)

// openRecoveredSet reads what a restarted daemon would find to re-queue.
func openRecoveredSet(path string) ([]farm.JournalEntry, error) {
	jl, err := farm.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	return jl.Recovered(), nil
}

// TestMain doubles as the daemon entry point for the kill/resume integration
// test: the test binary re-executes itself with DSTRESSD_RUN_MAIN set and
// real daemon flags, giving the test a genuine separate process to SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("DSTRESSD_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemonProc launches the daemon as a child process and waits for its
// HTTP API to come up.
func startDaemonProc(t *testing.T, addr, journal string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-addr", addr, "-budget", "2", "-journal", journal, "-drain", "20s")
	cmd.Env = append(os.Environ(), "DSTRESSD_RUN_MAIN=1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/api/v1/jobs")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("daemon process did not come up")
	return nil
}

// TestDaemonKillResumeIntegration is the acceptance scenario: SIGKILL a
// daemon mid-search, restart it over the same journal, and require the
// re-queued job to finish with exactly the result an uninterrupted daemon
// produces.
func TestDaemonKillResumeIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	journal := filepath.Join(t.TempDir(), "jobs.journal")

	// Slow enough (~200ms/generation) that the kill lands mid-search, fast
	// enough that the resumed leg and the reference finish in test time.
	req := jobRequest{
		Template:    "data24k",
		Criterion:   "max-ce",
		TempC:       55,
		Generations: 12,
		Population:  8,
		Workers:     2,
		Seed:        99,
		Rows:        32,
		Runs:        16,
	}

	addr1 := freeAddr(t)
	proc1 := startDaemonProc(t, addr1, journal)
	base1 := "http://" + addr1

	if code := postJSON(t, base1+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
		proc1.Process.Kill()
		t.Fatalf("submit: HTTP %d", code)
	}

	// Let the search get past its first checkpoints, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			proc1.Process.Kill()
			t.Fatal("job never reached generation 2")
		}
		var view jobView
		getJSON(t, base1+"/api/v1/jobs/1", &view)
		if view.State.String() == "done" {
			proc1.Process.Kill()
			t.Fatal("job finished before the kill; slow the search down")
		}
		if view.Generation >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := proc1.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	proc1.Wait()

	// Restart over the same journal: the job must be re-queued and complete.
	addr2 := freeAddr(t)
	proc2 := startDaemonProc(t, addr2, journal)
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	base2 := "http://" + addr2

	var jobs []jobView
	if code := getJSON(t, base2+"/api/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("list after restart: HTTP %d", code)
	}
	if len(jobs) != 1 {
		t.Fatalf("restarted daemon has %d jobs, want the 1 re-queued", len(jobs))
	}

	var resumed jobView
	if code := getJSON(t, base2+"/api/v1/jobs/1/wait", &resumed); code != http.StatusOK {
		t.Fatalf("wait: HTTP %d", code)
	}
	if resumed.State.String() != "done" || resumed.Result == nil {
		t.Fatalf("resumed job: state %s, error %q", resumed.State, resumed.Error)
	}

	// The journal must be clean again: nothing to re-queue next time.
	jl, err := openRecoveredSet(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(jl) != 0 {
		t.Fatalf("journal still holds %d entries after the job finished", len(jl))
	}

	// Reference: the same search, uninterrupted, in-process.
	_, ts := testDaemon(t, 2, false)
	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", req, &status); code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d", code)
	}
	ref := waitJob(t, ts, fmt.Sprint(status.ID))
	if ref.Result == nil {
		t.Fatalf("reference job: state %s, error %q", ref.State, ref.Error)
	}

	if *resumed.Result != *ref.Result {
		t.Fatalf("kill+resume diverged from the uninterrupted run:\n got %+v\nwant %+v",
			*resumed.Result, *ref.Result)
	}
}
