package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/api"
)

// points decodes the steady-state blocks of a successful answer, one per
// requested grid point, and checks that the answer covers exactly the
// request.
func points(o outcome) ([]api.Performance, error) {
	q := o.Req
	switch q.Kind {
	case kindSolve, kindMG:
		var r api.SolveResponse
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return nil, err
		}
		return []api.Performance{r.Perf}, nil
	case kindSweep:
		var pts []api.SweepPoint
		sc := bufio.NewScanner(bytes.NewReader(o.Body))
		for sc.Scan() {
			var p api.SweepPoint
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return gridPerfs(q, pts)
	default:
		var r api.JobResult
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return nil, err
		}
		if r.Sweep == nil {
			return nil, errors.New("job result has no sweep")
		}
		return gridPerfs(q, r.Sweep.Points)
	}
}

// gridPerfs checks that pts answer q's grid in order.
func gridPerfs(q request, pts []api.SweepPoint) ([]api.Performance, error) {
	if len(pts) != len(q.Grid) {
		return nil, fmt.Errorf("%d points for a %d-point grid", len(pts), len(q.Grid))
	}
	out := make([]api.Performance, len(pts))
	for i, p := range pts {
		if p.Index != i || p.Value != q.Grid[i] {
			return nil, fmt.Errorf("point %d answers index %d value %v, want value %v", i, p.Index, p.Value, q.Grid[i])
		}
		if p.Perf == nil {
			return nil, fmt.Errorf("point %d failed: %s", i, p.Error)
		}
		out[i] = *p.Perf
	}
	return out, nil
}

// verifier checks answers after a timed window, never inside one, so the
// checks do not take a core from the server.
type verifier struct {
	failures []string // the first few failures, for the report
	count    int
}

func (v *verifier) fail(o outcome, err error) {
	v.count++
	if len(v.failures) < 5 {
		v.failures = append(v.failures, fmt.Sprintf("%s N=%d: %v", o.Req.Kind, o.Req.N, err))
	}
}

// oracleCheck checks every point of every successful outcome against the
// oracle and reports which outcomes were right. Failed requests are
// reported as not correct.
func (v *verifier) oracleCheck(outs []outcome) []bool {
	type task struct {
		out, point int
		n          int
		lambda     float64
		got        api.Performance
	}
	var tasks []task
	good := make([]bool, len(outs))
	for i, o := range outs {
		if !o.ok() {
			continue
		}
		perfs, err := points(o)
		if err != nil {
			v.fail(o, err)
			continue
		}
		good[i] = true
		for j, p := range perfs {
			lam := o.Req.Lambda
			if o.Req.Grid != nil {
				lam = o.Req.Grid[j]
			}
			tasks = append(tasks, task{out: i, point: j, n: o.Req.N, lambda: lam, got: p})
		}
	}
	errs := make([]error, len(tasks))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				want, err := oracle(t.n, t.lambda)
				if err == nil {
					err = checkPerf(t.got, want)
				}
				errs[i] = err
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		t := tasks[i]
		if err != nil && good[t.out] {
			good[t.out] = false
			v.fail(outs[t.out], fmt.Errorf("point %d (λ=%v): %w", t.point, t.lambda, err))
		}
	}
	return good
}

// repeatCheck checks warm-hits answers against the warm-up answers they
// must repeat: solves and sweeps byte for byte, jobs point for point.
// warmGood says which warm-up answers passed the oracle.
func (v *verifier) repeatCheck(outs, warm []outcome, warmGood []bool) []bool {
	good := make([]bool, len(outs))
	for i, o := range outs {
		if !o.ok() {
			continue
		}
		ref := warm[o.Req.Ref]
		switch {
		case !warmGood[o.Req.Ref]:
			v.fail(o, errors.New("repeats a warm-up answer that failed its check"))
		case o.Req.Kind == kindJob:
			got, err := points(o)
			if err == nil {
				var want []api.Performance
				if want, err = points(ref); err == nil {
					for j := range got {
						if got[j] != want[j] {
							err = fmt.Errorf("point %d differs from the warm-up answer", j)
							break
						}
					}
				}
			}
			if err != nil {
				v.fail(o, err)
				continue
			}
			good[i] = true
		case !bytes.Equal(o.Body, ref.Body):
			v.fail(o, errors.New("answer differs from the warm-up answer"))
		default:
			good[i] = true
		}
	}
	return good
}
