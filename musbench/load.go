package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// outcome is what one logical request produced.
type outcome struct {
	Req             request
	Due, Start, End time.Time
	// FirstPoint is when the first NDJSON line of a sweep arrived.
	FirstPoint time.Time
	// GridDone is when a job's poll first saw it finished, before its
	// result was fetched.
	GridDone time.Time
	Err      string        // empty on success
	Refused  bool          // 429 or 503
	Body     []byte        // the answer: solve JSON, NDJSON lines or job result JSON
	Job      api.JobStatus // final status of a job
	TraceID  string        // traced runs: the trace the request started
}

func (o outcome) ok() bool { return o.Err == "" }

// latency runs from when the request was due (open loop) or sent
// (closed loop) to when its answer was complete.
func (o outcome) latency() time.Duration { return o.End.Sub(o.Due) }

// conn is one client connection to the server: requests on it go one at a
// time.
type conn struct {
	c      *http.Client
	base   string
	traced bool
	ids    *rand.Rand // trace and span IDs of traced requests
}

func newConn(base string, traced bool, id uint64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{
		c:      &http.Client{Transport: tr, Timeout: 120 * time.Second},
		base:   base,
		traced: traced,
		ids:    rand.New(rand.NewPCG(id, 0x7ace)),
	}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// encode returns the request body of q.
func encode(q request) []byte {
	var v any
	switch q.Kind {
	case kindSolve:
		v = api.SolveRequest{System: q.wire()}
	case kindMG:
		v = api.SolveRequest{System: q.wire(), Method: api.MethodMG}
	case kindSweep:
		v = q.sweep()
	case kindJob:
		v = api.NewSweepJob(q.sweep())
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

// send makes one HTTP exchange and returns the status and body. Sweeps are
// read line by line so that the first point's arrival is seen.
func (c *conn) send(method, path string, body []byte, o *outcome, ndjson bool) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	if ndjson {
		req.Header.Set("Accept", api.ContentTypeNDJSON)
	}
	if c.traced && o.TraceID == "" {
		o.TraceID = fmt.Sprintf("%016x%016x", c.ids.Uint64(), c.ids.Uint64())
		req.Header.Set("traceparent", fmt.Sprintf("00-%s-%016x-01", o.TraceID, c.ids.Uint64()|1))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !ndjson || resp.StatusCode != http.StatusOK {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	var buf bytes.Buffer
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 && o.FirstPoint.IsZero() {
			o.FirstPoint = time.Now()
		}
		buf.Write(line)
		if err == io.EOF {
			return resp.StatusCode, buf.Bytes(), nil
		}
		if err != nil {
			return resp.StatusCode, buf.Bytes(), err
		}
	}
}

// do sends q, which was due at `due`, and waits for its complete answer.
func (c *conn) do(q request, body []byte, due time.Time) outcome {
	o := outcome{Req: q, Due: due, Start: time.Now()}
	fail := func(status int, b []byte, err error) outcome {
		o.End = time.Now()
		o.Refused = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		if err != nil {
			o.Err = err.Error()
		} else {
			o.Err = fmt.Sprintf("status %d: %.200s", status, b)
		}
		return o
	}
	switch q.Kind {
	case kindSolve, kindMG, kindSweep:
		path := api.PathSolve
		if q.Kind == kindSweep {
			path = api.PathSweep
		}
		st, b, err := c.send(http.MethodPost, path, body, &o, q.Kind == kindSweep)
		if err != nil || st != http.StatusOK {
			return fail(st, b, err)
		}
		o.Body = b
	case kindJob:
		st, b, err := c.send(http.MethodPost, api.PathJobs, body, &o, false)
		if err != nil || st != http.StatusAccepted {
			return fail(st, b, err)
		}
		if err := json.Unmarshal(b, &o.Job); err != nil {
			return fail(st, b, err)
		}
		id := o.Job.ID
		// Poll often enough that the poll interval adds at most a few
		// percent to the measured job time.
		for !o.Job.Terminal() {
			wait := time.Since(o.Start) / 50
			time.Sleep(min(max(wait, 500*time.Microsecond), 20*time.Millisecond))
			st, b, err := c.send(http.MethodGet, api.JobPath(id), nil, &o, false)
			if err != nil || st != http.StatusOK {
				return fail(st, b, err)
			}
			if err := json.Unmarshal(b, &o.Job); err != nil {
				return fail(st, b, err)
			}
		}
		if o.Job.State != api.JobStateDone {
			return fail(http.StatusOK, []byte(o.Job.State), nil)
		}
		st, b, err = c.send(http.MethodGet, api.JobResultPath(id), nil, &o, false)
		if err != nil || st != http.StatusOK {
			return fail(st, b, err)
		}
		o.Body = b
	}
	o.End = time.Now()
	return o
}

// openLoop sends reqs on schedule, each at start + Due, over the given
// connections; a request due while every connection is busy waits for
// the next free one, and its latency includes that wait. It returns the
// outcomes in schedule order and how late the generator released each
// request.
func openLoop(conns []*conn, reqs []request, bodies [][]byte) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(reqs))
	lags := make([]time.Duration, len(reqs))
	// Buffered for every request, so the dispatcher never waits for a
	// connection and a backlog shows as latency, not as generator lag.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i] = c.do(reqs[i], bodies[i], start.Add(reqs[i].Due))
			}
		}()
	}
	for i, q := range reqs {
		due := start.Add(q.Due)
		time.Sleep(time.Until(due))
		lags[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, lags
}

// closedLoop sends reqs over the connections, each connection sending its
// next request as soon as its previous answer is complete, until dur has
// passed. It ignores the due times and cycles through reqs as often as
// the window allows. It returns the outcomes of the requests sent.
func closedLoop(conns []*conn, reqs []request, bodies [][]byte, dur time.Duration) []outcome {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	outs := make([][]outcome, len(conns))
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(reqs)
				outs[k] = append(outs[k], c.do(reqs[i], bodies[i], time.Now()))
			}
		}()
	}
	wg.Wait()
	return slices.Concat(outs...)
}

// bodies pre-encodes the request bodies so that encoding costs nothing
// inside a timed window.
func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		out[i] = encode(q)
	}
	return out
}
