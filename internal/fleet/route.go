package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
)

// route is the coordinator's serve.Executor. It validates the spec and
// derives its ring key up front, so a bad spec is a 400 at the
// coordinator rather than a failed dispatch; the returned task waits
// until the ring has an owner for the key and streams the job from that
// owner's POST /v1/run. A job that loses its worker re-routes and skips
// the events it already forwarded: runs emit in run order and every
// recomputation is bit-identical, so the prefix is the same and no event
// repeats.
func (c *Coordinator) route(spec *serve.JobSpec) (serve.Task, error) {
	key, err := serve.RingKey(spec)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, p *serve.Progress) (*serve.JobSummary, error) {
		sent := 0
		for attempt := 1; ; attempt++ {
			m, url, err := c.owner(ctx, key)
			if err != nil {
				return nil, err
			}
			if attempt > c.maxAttempts {
				return nil, fmt.Errorf("fleet: job gave up after %d dispatch attempts", c.maxAttempts)
			}
			sum, err := c.dispatch(ctx, m, url, body, p, &sent)
			var lost lostError
			if !errors.As(err, &lost) {
				return sum, err
			}
			c.mu.Lock()
			c.requeues++
			c.mu.Unlock()
			p.Requeued()
			c.logf("fleet: job %.12s re-queued off %s: %v", key, m.id, err)
		}
	}, nil
}

var errClosed = errors.New("fleet: coordinator closed")

// owner blocks until the ring has an owner for key and returns it with
// its current URL; the job stays queued meanwhile.
func (c *Coordinator) owner(ctx context.Context, key string) (*member, string, error) {
	for {
		if c.ctx.Err() != nil {
			return nil, "", errClosed
		}
		c.mu.Lock()
		id, ok := c.ring.Owner(key)
		m, joined := c.workers[id], c.joined
		var url string
		if ok {
			url = m.url
		}
		c.mu.Unlock()
		if ok {
			return m, url, nil
		}
		select {
		case <-joined:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case <-c.ctx.Done():
			return nil, "", errClosed
		}
	}
}

// lostError marks a dispatch that lost its worker — refused, unreachable,
// or cut off mid-stream. The job re-routes.
type lostError struct{ error }

// streamLine is one NDJSON line of a worker's /v1/run stream: a run
// event, or the final line, which carries the state.
type streamLine struct {
	serve.RunEvent
	State   string            `json:"state"`
	Error   string            `json:"error"`
	Summary *serve.JobSummary `json:"summary"`
}

// dispatch runs one attempt of a job on worker m at url: it streams the
// job from the worker's POST /v1/run and forwards every event past the
// first *sent into p. The stream ends with the job's context — a cancel
// closes it, which cancels the worker's computation — or with m's, when
// the worker is dropped.
func (c *Coordinator) dispatch(ctx context.Context, m *member, url string, body []byte, p *serve.Progress, sent *int) (*serve.JobSummary, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(m.ctx, cancel)()
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.stream.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.refused(m, false, err)
		return nil, lostError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("worker answered %s: %s", resp.Status, bytes.TrimSpace(msg))
		c.refused(m, resp.StatusCode == http.StatusServiceUnavailable, err)
		return nil, lostError{err}
	}

	p.Dispatched(m.id)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	seen := 0
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, lostError{fmt.Errorf("decoding stream: %w", err)}
		}
		if line.State == "" {
			if seen++; seen > *sent {
				p.Emit(line.RunEvent)
				*sent = seen
			}
			continue
		}
		if line.State == serve.StateDone && line.Summary != nil {
			return line.Summary, nil
		}
		if line.State == serve.StateFailed {
			return nil, errors.New(line.Error)
		}
		break // canceled: by this job's context, or the worker cut it short
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return nil, lostError{fmt.Errorf("stream broke after %d events (%v)", seen, sc.Err())}
}

// refused handles a worker that would not take a job. A 503 means it is
// draining: alive, but off the ring. Anything else declares it dead; if
// it is actually alive it re-registers on its next heartbeat.
func (c *Coordinator) refused(m *member, draining bool, why error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dispatchErrors++
	if c.workers[m.id] != m {
		return // already dropped
	}
	if draining {
		m.draining = true
		c.ring.Remove(m.id)
		return
	}
	c.dropLocked(m, fmt.Sprintf("dispatch failed: %v", why))
}
