package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/farm"
	"dstress/internal/virusdb"
)

// connCounter tracks how many client connections are open at once, so a run
// can prove it never loaded the daemon with more connections than it has
// CPUs.
type connCounter struct {
	open, peak atomic.Int64
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

// newHTTPClient returns a client that never holds more than maxConns
// connections to one daemon.
func newHTTPClient(conns *connCounter, maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         conns.dial,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// api is one tenant's view of a daemon.
type api struct {
	hc    *http.Client
	base  string
	token string
}

func (a api) do(ctx context.Context, method, path string, body []byte,
	accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if a.token != "" {
		req.Header.Set("Authorization", "Bearer "+a.token)
	}
	return a.hc.Do(req)
}

// getJSON fetches path and decodes a 200 response into out.
func (a api) getJSON(ctx context.Context, path string, out any) error {
	resp, err := a.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: http %d: %s", path, resp.StatusCode,
			strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobSample is one closed-loop cycle: submit, wait, page read.
type jobSample struct {
	client, index int
	seed          uint64
	submit        time.Duration // POST until the 202 is read
	turnaround    time.Duration // start of the POST until the done event
	query         time.Duration // the top-10 page read that follows
	cycle         time.Duration // the whole cycle: the client's next submit starts here
	received      time.Time     // client clock at the done event
	status        farm.JobStatus
	result        jobResult
	genGapsMs     []float64 // one entry per generation seen advance over SSE
	events        int       // progress events received
	attempted     int       // HTTP operations tried
	failed        int       // of which failed
	err           error     // first failure
}

// sseEvent is a data frame of dstressd's progress stream.
type sseEvent struct {
	farm.JobStatus
	Result *jobResult `json:"result,omitempty"`
}

// cycle runs one job end to end. Every failure is counted against the
// operation it hit; the cycle stops at the first one.
func (a api) cycle(ctx context.Context, req jobRequest) (s jobSample) {
	s.seed = req.Seed
	fail := func(err error) jobSample {
		s.failed++
		if s.err == nil {
			s.err = err
		}
		return s
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}

	s.attempted++
	t0 := time.Now()
	resp, err := a.do(ctx, http.MethodPost, "/api/v1/jobs", body, "")
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	var st farm.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("submit: http %d", resp.StatusCode))
	}
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}

	s.attempted++
	if err := a.waitSSE(ctx, st.ID, &s); err != nil {
		return fail(fmt.Errorf("job %d wait: %w", st.ID, err))
	}
	s.turnaround = s.received.Sub(t0)
	if s.status.State != farm.JobDone {
		return fail(fmt.Errorf("job %d ended %s: %s", st.ID, s.status.State,
			s.status.Error))
	}

	s.attempted++
	t1 := time.Now()
	var page []virusdb.Record
	err = a.getJSON(ctx, "/api/v1/virusdb?limit=10&experiment="+
		url.QueryEscape(s.result.Experiment), &page)
	s.query = time.Since(t1)
	if err != nil {
		return fail(err)
	}
	if err := checkPage(page, s.result.Experiment); err != nil {
		return fail(err)
	}
	s.cycle = time.Since(t0)
	return s
}

// checkPage verifies a top-10 page: non-empty, the right experiment,
// strongest first.
func checkPage(page []virusdb.Record, exp string) error {
	if len(page) == 0 || len(page) > 10 {
		return fmt.Errorf("virusdb page for %s has %d records", exp, len(page))
	}
	for i, r := range page {
		if r.Experiment != exp {
			return fmt.Errorf("virusdb page for %s holds %s", exp, r.Experiment)
		}
		if i > 0 && r.Fitness > page[i-1].Fitness {
			return fmt.Errorf("virusdb page for %s is not strongest-first", exp)
		}
	}
	return nil
}

// waitSSE follows the job's progress stream to its done event, recording
// the time each generation took as the stream saw it.
func (a api) waitSSE(ctx context.Context, id int, s *jobSample) error {
	resp, err := a.do(ctx, http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d/wait", id),
		nil, "text/event-stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var event string
	var data []byte
	lastGen, lastAt := 0, time.Time{}
	for {
		line, err := rd.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("stream ended without a done event")
			}
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0: // end of frame
			if event == "" {
				continue
			}
			var ev sseEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("bad %s frame: %w", event, err)
			}
			if event == "done" {
				if ev.Result == nil {
					return fmt.Errorf("done event without a result (state %s)", ev.State)
				}
				s.status, s.result, s.received = ev.JobStatus, *ev.Result, now
				_, err := io.Copy(io.Discard, rd) // the handler returns after done
				return err
			}
			s.events++
			if g := ev.Generation; g > lastGen {
				if lastGen >= 1 {
					per := float64(now.Sub(lastAt)) / float64(time.Millisecond) /
						float64(g-lastGen)
					for k := lastGen; k < g; k++ {
						s.genGapsMs = append(s.genGapsMs, per)
					}
				}
				lastGen, lastAt = g, now
			}
			event, data = "", nil
		case line[0] == ':': // heartbeat comment
		default:
			if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				event = string(v)
			} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				data = append(data[:0], v...)
			}
		}
	}
}
