package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/dstressd from the source tree under test.
func buildDaemon(ctx context.Context, repo, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/dstressd")
	cmd.Dir = repo
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building dstressd: %v\n%s", err, msg)
	}
	return nil
}

// proc is one child process (a daemon or a fleet worker). Its Wait runs in
// a goroutine owned by the proc; stop returns only after it has ended.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark killed mid-run must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to drain (SIGTERM), then kills it if it has not
// exited within the grace period, and waits for it either way.
func (p *proc) stop() {
	if p == nil || p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exiting if this fails
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // the Wait below reports the outcome
		<-p.done
	}
}

// tail returns the end of the process log, for error reports.
func (p *proc) tail() string {
	data, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// rssMB reads a resident-set field of /proc/<pid>/status ("VmRSS" now,
// "VmHWM" the peak so far) in MiB.
func (p *proc) rssMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// cpuTime is the CPU time the process has used so far, user plus system.
func (p *proc) cpuTime() (time.Duration, error) {
	if p == nil {
		return 0, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces; the
	// fields after it are plain. utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat %q", data)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat field %q: %w", s, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// freeAddr picks a loopback port for the next daemon. The listener closes
// before the daemon binds; a collision makes the start fail loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// dirBytes is the apparent size of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
