package seglog

// The crash matrix: a child process appends acknowledged records (SyncEvery
// 1) while the parent SIGKILLs it mid-append, mid-rotation or mid-compaction,
// then reopens the store in strict mode and requires every acknowledged
// record to replay, in order, with nothing invented. This is the same
// subprocess discipline as `make resume-test`: the only honest way to test
// what a kill leaves on disk is to actually kill a writer.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

const (
	crashDirEnv  = "SEGLOG_CRASH_DIR"
	crashModeEnv = "SEGLOG_CRASH_MODE"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		crashChild(dir, os.Getenv(crashModeEnv))
		return
	}
	os.Exit(m.Run())
}

// crashChild appends records forever (until killed), printing "acked <i>"
// only after the append — and, in compact mode, the periodic compaction —
// durably returned. Every printed index is a durability promise the parent
// holds us to.
func crashChild(dir, mode string) {
	opts := Options{SyncEvery: 1}
	if mode == "rotate" || mode == "compact" {
		opts.RotateBytes = 512 // rotate every handful of records
	}
	st, res, err := Open(dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	var live [][]byte
	for _, p := range res.Payloads {
		live = append(live, append([]byte(nil), p...))
	}
	out := bufio.NewWriter(os.Stdout)
	deadline := time.Now().Add(30 * time.Second) // belt: parent kills us first
	for i := len(live); time.Now().Before(deadline); i++ {
		p := []byte(fmt.Sprintf(`{"i":%d,"pad":"%032d"}`, i, i))
		if _, err := st.Append(p); err != nil {
			fmt.Fprintf(os.Stderr, "child append %d: %v\n", i, err)
			os.Exit(1)
		}
		live = append(live, p)
		if mode == "compact" && (i+1)%40 == 0 {
			if _, err := st.Compact(live); err != nil {
				fmt.Fprintf(os.Stderr, "child compact at %d: %v\n", i, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(out, "acked %d\n", i)
		out.Flush()
	}
	os.Exit(1) // never reached under the test harness
}

func TestSeglogCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill matrix skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"append", "rotate", "compact"} {
		// Several kill points per mode: early (first segment still active),
		// and deep enough that rotation/compaction has happened repeatedly.
		for _, killAfter := range []int{7, 83} {
			t.Run(fmt.Sprintf("%s/kill-after-%d", mode, killAfter), func(t *testing.T) {
				dir := t.TempDir() + "/store"
				acked := runAndKill(t, exe, dir, mode, killAfter)

				st, res, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("strict reopen after kill: %v", err)
				}
				defer st.Close()
				// Every acknowledged record must replay; at most the one
				// unacknowledged in-flight record may appear beyond them.
				if len(res.Payloads) < acked {
					t.Fatalf("replayed %d records, %d were acked",
						len(res.Payloads), acked)
				}
				for i, p := range res.Payloads {
					var rec struct {
						I int `json:"i"`
					}
					if err := json.Unmarshal(p, &rec); err != nil || rec.I != i {
						t.Fatalf("record %d = %q (err %v)", i, p, err)
					}
				}
				// The survivor store must accept appends cleanly.
				if _, err := st.Append([]byte(`{"after":"crash"}`)); err != nil {
					t.Fatalf("append after salvage: %v", err)
				}
			})
		}
	}
}

// runAndKill starts the child writer, SIGKILLs it after killAfter acks, and
// returns how many appends the child acknowledged before dying.
func runAndKill(t *testing.T, exe, dir, mode string, killAfter int) int {
	t.Helper()
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir, crashModeEnv+"="+mode)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := 0
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var i int
		if _, err := fmt.Sscanf(sc.Text(), "acked %d", &i); err != nil {
			continue
		}
		acked = i + 1
		if acked >= killAfter {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	go func() {
		for sc.Scan() { // drain whatever raced out before the kill landed
		}
	}()
	cmd.Wait()
	if errBuf.Len() > 0 {
		t.Fatalf("child failed before the kill: %s", errBuf.String())
	}
	if acked < killAfter {
		t.Fatalf("child died after only %d acks", acked)
	}
	return acked
}
