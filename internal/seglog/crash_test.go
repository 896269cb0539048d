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
	"path/filepath"
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

// crashTailLen is the tail of each record in "tail" mode: a journal
// checkpoint frame of the block-virus search's size.
const crashTailLen = 3 << 20

// crashTail fills tail with record i's tail bytes.
func crashTail(tail []byte, i int) {
	for k := range tail {
		tail[k] = byte(i*131 + k*7 + k>>11)
	}
}

// crashChild appends records forever (until killed), printing "acked <i>"
// only after the append — and, in compact mode, the periodic compaction —
// durably returned. Every printed index is a durability promise the parent
// holds us to. In "tail" mode each record is a header-plus-tail payload of
// several megabytes, written through AppendPayloads like a journal
// checkpoint, so that a kill lands mid-append.
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
	tail := make([]byte, crashTailLen)
	crashTail(tail, len(live))
	for i := len(live); time.Now().Before(deadline); i++ {
		if mode == "tail" {
			hdr := []byte(fmt.Sprintf(`{"i":%d}`, i))
			if _, err := st.AppendPayloads(Payload{Header: hdr, Tail: tail}); err != nil {
				fmt.Fprintf(os.Stderr, "child append %d: %v\n", i, err)
				os.Exit(1)
			}
			// The next tail is ready before the ack goes out, so the
			// parent's kill finds the next append already writing.
			crashTail(tail, i+1)
			fmt.Fprintf(out, "acked %d\n", i)
			out.Flush()
			continue
		}
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
	type kill struct {
		mode  string
		after int
		delay time.Duration
	}
	// Several kill points per mode: early (first segment still active),
	// and deep enough that rotation/compaction has happened repeatedly.
	var kills []kill
	for _, mode := range []string{"append", "rotate", "compact"} {
		kills = append(kills, kill{mode, 7, 0}, kill{mode, 83, 0})
	}
	// Tail records rotate the 4 MB default segment every second frame. An
	// append spends its first few hundred microseconds on the CRC, so the
	// kill is swept over the write that follows.
	for _, after := range []int{1, 2, 5} {
		for _, us := range []time.Duration{0, 300, 600, 900} {
			kills = append(kills, kill{"tail", after, us * time.Microsecond})
		}
	}
	torn := 0
	for _, k := range kills {
		mode := k.mode
		name := fmt.Sprintf("%s/kill-after-%d", mode, k.after)
		if k.delay > 0 {
			name += "/delay-" + k.delay.String()
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir() + "/store"
			acked := runAndKill(t, exe, dir, mode, k.after, k.delay)

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
			var want []byte
			for i, p := range res.Payloads {
				var rec struct {
					I int `json:"i"`
				}
				pl, err := SplitPayload(p)
				if err == nil {
					err = json.Unmarshal(pl.Header, &rec)
				}
				if err != nil || rec.I != i {
					t.Fatalf("record %d = %.80q (err %v)", i, p, err)
				}
				if mode == "tail" {
					if want == nil {
						want = make([]byte, crashTailLen)
					}
					crashTail(want, i)
					if !bytes.Equal(pl.Tail, want) {
						t.Fatalf("record %d: tail of %d bytes differs from the one appended",
							i, len(pl.Tail))
					}
				}
			}
			if res.Stats.TornBytes > 0 {
				torn++
			}
			// Open cut any torn tail: the active segment ends with the
			// last frame that replayed.
			active := st.segs[len(st.segs)-1]
			seg, _ := segNumber(active)
			end := segHeaderLen
			if n := len(res.Locs); n > 0 && res.Locs[n-1].Seg == seg {
				last := res.Locs[n-1]
				end = last.Off + frameHeaderLen + int64(last.Len)
			}
			if fi, err := os.Stat(filepath.Join(dir, active)); err != nil || fi.Size() != end {
				t.Fatalf("active segment holds bytes past its last frame (%v)", err)
			}
			// The survivor store must accept appends cleanly.
			if _, err := st.Append([]byte(`{"after":"crash"}`)); err != nil {
				t.Fatalf("append after salvage: %v", err)
			}
		})
	}
	t.Logf("%d kills left a torn tail for Open to cut", torn)
}

// runAndKill starts the child writer, SIGKILLs it delay after its
// killAfter-th ack, and returns how many appends the child acknowledged
// before dying.
func runAndKill(t *testing.T, exe, dir, mode string, killAfter int, delay time.Duration) int {
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
			time.Sleep(delay)
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
