package main

// The pdedupd side of the serving workloads: starting and stopping the
// daemon, posting NDJSON, reading its SSE stream and its /v1/stats.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running pdedupd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	done    chan struct{}
	exitErr error
}

// startDaemon launches pdedupd on a free loopback port and waits for
// its listening line.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even when the
	// benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, started: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pdedupd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pdedupd: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		d.exitErr = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("pdedupd exited before listening: %v", d.exitErr)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("pdedupd did not start listening within 30s")
	}
}

// stop sends SIGTERM (graceful drain) and waits for exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.exitErr
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("pdedupd did not drain within 60s")
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() float64 { return vmHWM(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set in MiB (0 when unknown).
func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// client posts to one daemon over a single keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

// ingestReply mirrors pdedupd's /v1/tuples reply.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Removed  int    `json:"removed"`
	Item     *int   `json:"item"`
	Error    string `json:"error"`
}

// post sends items (pre-encoded NDJSON lines) and returns the HTTP
// status and reply.
func (c *client) post(items [][]byte) (int, ingestReply, error) {
	var body bytes.Buffer
	for _, it := range items {
		body.Write(it)
	}
	resp, err := c.http.Post(c.base+"/v1/tuples", "application/x-ndjson", &body)
	if err != nil {
		return 0, ingestReply{}, err
	}
	defer resp.Body.Close()
	var r ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return resp.StatusCode, r, fmt.Errorf("decode reply: %w", err)
	}
	return resp.StatusCode, r, nil
}

// postAll sends items as one request, resending from the reported
// index after each 429 with exponential backoff from 1ms to 32ms (the
// daemon's Retry-After of one second would idle the shards). It
// returns the number of 429s seen; any other non-200 reply is an
// error.
func (c *client) postAll(items [][]byte) (rejects int, err error) {
	backoff := time.Millisecond
	for len(items) > 0 {
		code, r, err := c.post(items)
		if err != nil {
			return rejects, err
		}
		switch {
		case code == http.StatusOK:
			return rejects, nil
		case code == http.StatusTooManyRequests && r.Item != nil:
			rejects++
			items = items[*r.Item:]
			time.Sleep(backoff)
			backoff = min(2*backoff, 32*time.Millisecond)
		default:
			return rejects, fmt.Errorf("POST /v1/tuples: HTTP %d: %s", code, r.Error)
		}
	}
	return rejects, nil
}

// routerStats is the part of /v1/stats the benchmark reads.
type routerStats struct {
	Detector struct {
		Residents, Compared, Enumerated, Filtered int
	}
	// The aggregate leaves cache counters out; they are per shard.
	PerShard []struct {
		Queue    int
		Detector struct {
			Residents int
			Cache     struct{ Hits, Misses int64 }
		}
		Err string
	}
}

// cacheHitRatio sums the per-shard similarity cache counters.
func (st routerStats) cacheHitRatio() float64 {
	var hits, misses int64
	for _, s := range st.PerShard {
		hits += s.Detector.Cache.Hits
		misses += s.Detector.Cache.Misses
	}
	return ratio(float64(hits), float64(hits+misses))
}

func (c *client) stats() (routerStats, error) {
	var st routerStats
	resp, err := c.http.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode stats: %w", err)
	}
	for _, s := range st.PerShard {
		if s.Err != "" {
			return st, fmt.Errorf("shard failed: %s", s.Err)
		}
	}
	return st, nil
}

// waitApplied polls /v1/stats until the resident count is want and
// every shard queue is empty.
func (c *client) waitApplied(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.stats()
		if err != nil {
			return err
		}
		idle := true
		for _, s := range st.PerShard {
			idle = idle && s.Queue == 0
		}
		if idle && st.Detector.Residents == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon holds %d residents, want %d, after %v", st.Detector.Residents, want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sseEvent is one decoded delta: a match event of /v1/deltas or an
// entity event of /v1/entities.
type sseEvent struct {
	Kind    string   `json:"kind"`
	A       string   `json:"a"`
	B       string   `json:"b"`
	Class   string   `json:"class"`
	Event   string   `json:"event"`
	ID      string   `json:"id"`
	Members []string `json:"members"`
	From    []string `json:"from"`
	Shard   int      `json:"shard"`
}

// subscription reads one SSE stream on its own goroutine and hands
// every event, with its arrival time, to the consumer callback.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	bytes int64
	ended bool // the daemon sent "end" (drained or dropped us)
	err   error
}

// subscribe opens path (e.g. /v1/deltas) and feeds events to on, which
// runs on the reader goroutine.
func subscribe(base, path string, on func(ev *sseEvent, at time.Time)) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	s := &subscription{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		r := bufio.NewReaderSize(resp.Body, 1<<20)
		var event string
		for {
			line, err := r.ReadSlice('\n')
			s.mu.Lock()
			s.bytes += int64(len(line))
			s.mu.Unlock()
			if err != nil {
				if !errors.Is(err, io.EOF) && ctx.Err() == nil {
					s.setErr(err)
				}
				return
			}
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(bytes.TrimSpace(line[7:]))
			case bytes.HasPrefix(line, []byte("data: ")):
				if event == "end" {
					s.mu.Lock()
					s.ended = true
					s.mu.Unlock()
					return
				}
				var ev sseEvent
				if err := json.Unmarshal(line[6:], &ev); err != nil {
					s.setErr(fmt.Errorf("bad SSE data: %w", err))
					return
				}
				on(&ev, time.Now())
			}
		}
	}()
	return s, nil
}

func (s *subscription) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// state reports the bytes read so far, whether the daemon ended the
// stream, and the first read error.
func (s *subscription) state() (bytes int64, ended bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.ended, s.err
}

// close stops reading and waits for the reader goroutine.
func (s *subscription) close() {
	s.cancel()
	<-s.done
}

// wait blocks until the stream ends on its own or the timeout passes.
func (s *subscription) wait(timeout time.Duration) bool {
	select {
	case <-s.done:
		return true
	case <-time.After(timeout):
		return false
	}
}
