package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/api"
)

// result collects one run's metrics and check counts.
type result struct {
	values  map[string]float64
	samples map[string]int
	// attempted, answered and correct count the timed logical requests.
	attempted, answered, correct int
	failures                     []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// pick returns value of each successful outcome that matches, in the
// order the outcomes are given.
func pick(outs []outcome, match func(outcome) bool, value func(outcome) float64) []float64 {
	var v []float64
	for _, o := range outs {
		if o.ok() && match(o) {
			v = append(v, value(o))
		}
	}
	return v
}

func latencyMS(o outcome) float64 { return ms(o.latency()) }

// median sets the median of v. An empty sample sets nothing, so the run
// fails as unmeasured.
func (r *result) median(name string, v []float64) {
	if len(v) > 0 {
		r.set(name, percentile(sortedCopy(v), 0.5), len(v))
	}
}

// latencyDist sets the median and the sliced tail, in ms, of the
// latencies of the successful outcomes that match.
func (r *result) latencyDist(p50Name, tailName string, outs []outcome, match func(outcome) bool) {
	inOrder := pick(outs, match, latencyMS)
	if len(inOrder) > 0 {
		r.median(p50Name, inOrder)
		r.set(tailName, slicedTail(inOrder), len(inOrder))
	}
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	slices.Sort(out)
	return out
}

// count adds checked outcomes to the totals.
func (r *result) count(outs []outcome, good []bool) {
	for i, o := range outs {
		r.attempted++
		if o.ok() {
			r.answered++
		}
		if good[i] {
			r.correct++
		}
	}
}

// finish sets the ratios and the check failures.
func (r *result) finish(v *verifier) {
	r.set("success_ratio", float64(r.answered)/float64(r.attempted), r.attempted)
	r.set("correct_ratio", float64(r.correct)/float64(max(r.answered, 1)), r.answered)
	r.failures = v.failures
	if v.count > len(v.failures) {
		r.failures = append(r.failures, fmt.Sprintf("… and %d more", v.count-len(v.failures)))
	}
}

// How many times a run sets the server up to report the median set-up
// time; the last launch serves the run. A cold-ladder launch takes about
// 15 ms, a warm-hits one 1.5 s with its warm-up.
const (
	coldLaunches = 15
	warmLaunches = 7
)

// launch sets the server up n times: it starts it with the settings opts
// returns, then runs prepare on it (when not nil). It returns the last
// server and the median time from launch to the end of prepare, in
// seconds.
func launch(cfg config, n int, opts func() serverOpts, prepare func(*server) error) (*server, float64, error) {
	var setup []float64
	for i := range n {
		srv, d, err := startServer(cfg.bin, opts())
		if err != nil {
			return nil, 0, err
		}
		if prepare != nil {
			t := time.Now()
			if err := prepare(srv); err != nil {
				srv.stop()
				return nil, 0, err
			}
			d += time.Since(t)
		}
		setup = append(setup, d.Seconds())
		if i == n-1 {
			slices.Sort(setup)
			return srv, setup[len(setup)/2], nil
		}
		srv.stop()
	}
	panic("unreachable")
}

// snap is the server's counters at one instant.
type snap struct {
	st  api.StatsResponse
	m   map[string]float64
	cpu float64
	at  time.Time
}

func (s *server) snapshot() (snap, error) {
	st, err := s.stats()
	if err != nil {
		return snap{}, err
	}
	m, err := s.metrics()
	if err != nil {
		return snap{}, err
	}
	cpu, err := s.cpuSeconds()
	return snap{st: st, m: m, cpu: cpu, at: time.Now()}, err
}

// window is one timed stretch of a workload on one server.
type window struct {
	outs     []outcome
	lags     []time.Duration // open-loop release lag of each request
	from, to snap
}

func (w *window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }

// points counts the model evaluations the successful requests received.
func (w *window) points() int {
	n := 0
	for _, o := range w.outs {
		if o.ok() {
			n += o.Req.points()
		}
	}
	return n
}

// slicedRate is the median over the whole seconds of w of the count of
// successful requests completed in each, every request counting as many
// as count says. As with slicedTail, a stall of the machine then moves
// one slice, not the whole window.
func slicedRate(w *window, count func(outcome) int) float64 {
	per := make([]float64, max(1, int(w.seconds())))
	for _, o := range w.outs {
		if i := int(o.End.Sub(w.from.at) / time.Second); o.ok() && i < len(per) {
			per[i] += float64(count(o))
		}
	}
	slices.Sort(per)
	return percentile(per, 0.5)
}

// measure runs f between two counter snapshots.
func measure(srv *server, f func() ([]outcome, []time.Duration)) (*window, error) {
	from, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	outs, lags := f()
	to, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	return &window{outs: outs, lags: lags, from: from, to: to}, nil
}

func delta(w *window, get func(api.StatsResponse) uint64) uint64 {
	return get(w.to.st) - get(w.from.st)
}

// engine returns the window's engine evaluations, solves and cache hits
// on behalf of requests. Admission control solves its fitted self-model
// through the same engine every few seconds; those solves are counted
// apart and taken out here.
func (w *window) engine() (evals, solves, hits uint64) {
	const selfModel = "mus_admission_model_solve_seconds_count"
	adm := uint64(w.to.m[selfModel] - w.from.m[selfModel])
	evals = delta(w, func(s api.StatsResponse) uint64 { return s.Evaluations }) - adm
	solves = delta(w, func(s api.StatsResponse) uint64 { return s.Solves }) - adm
	hits = delta(w, func(s api.StatsResponse) uint64 { return s.Cache.Hits })
	return evals, solves, hits
}

// isSolve matches spectral and mg solves.
func isSolve(o outcome) bool { return o.Req.Kind == kindSolve || o.Req.Kind == kindMG }

func isKind(k kind) func(outcome) bool { return func(o outcome) bool { return o.Req.Kind == k } }

// requestMetrics sets the latency, throughput and server-cost metrics of
// the end-to-end report from one window.
func (r *result) requestMetrics(w *window) {
	r.latencyDist("solve_p50_ms", "solve_tail_ms", w.outs, isSolve)
	r.latencyDist("sweep_p50_ms", "sweep_tail_ms", w.outs, isKind(kindSweep))
	r.median("first_point_p50_ms", pick(w.outs, isKind(kindSweep), func(o outcome) float64 {
		return ms(o.FirstPoint.Sub(o.Due))
	}))
	r.median("job_p50_s", pick(w.outs, isKind(kindJob), func(o outcome) float64 { return o.latency().Seconds() }))
	r.set("points_per_s", float64(w.points())/w.seconds(), w.points())
	r.set("server_cpu_ms_per_req", (w.to.cpu-w.from.cpu)*1e3/float64(len(w.outs)), len(w.outs))
}

// serverMetrics sets the per-layer metrics read from the server's
// counters, jobs and spans in one traced window.
func (r *result) serverMetrics(srv *server, w *window) error {
	evals, solves, hits := w.engine()
	r.set("service.hit_ratio", float64(hits)/float64(max(evals, 1)), int(evals))
	r.set("service.solves_per_point", float64(solves)/float64(max(w.points(), 1)), w.points())
	gcs := w.to.m["mus_runtime_gc_pause_seconds_count"] - w.from.m["mus_runtime_gc_pause_seconds_count"]
	r.set("server.gc_per_1k_req", gcs*1000/float64(len(w.outs)), len(w.outs))

	jobs, refused := 0, 0
	for _, o := range w.outs {
		if o.Req.Kind == kindJob {
			jobs++
			if o.Refused && o.Job.ID == "" {
				refused++
			}
		}
	}
	ran := func(o outcome) bool {
		return o.Req.Kind == kindJob && o.Job.StartedAt != nil && o.Job.FinishedAt != nil
	}
	r.median("jobs.queue_wait_ms", pick(w.outs, ran, func(o outcome) float64 { return ms(o.Job.StartedAt.Sub(o.Job.CreatedAt)) }))
	r.median("jobs.run_s", pick(w.outs, ran, func(o outcome) float64 { return o.Job.FinishedAt.Sub(*o.Job.StartedAt).Seconds() }))
	r.set("admission.shed_ratio", float64(refused)/float64(max(jobs, 1)), jobs)
	appends := w.to.m["mus_store_appended_records_total"] - w.from.m["mus_store_appended_records_total"]
	r.set("store.appends_per_job", appends/float64(max(jobs, 1)), jobs)

	for _, k := range []kind{kindSolve, kindSweep} {
		self, err := httpSelf(srv, w.outs, k)
		if err != nil {
			return err
		}
		r.median("http.self_us."+k.String(), self)
	}
	// A closed loop has no schedule to lag behind: its lag is 0.
	r.set("loadgen.lag_tail_ms", lagTail(w.lags), len(w.lags))
	return nil
}

// lagTail is the sliced tail in ms of the generator's release lags, in
// the order they were sent, 0 for none: the same statistic as the
// latency tails it guards.
func lagTail(lags []time.Duration) float64 {
	if len(lags) == 0 {
		return 0
	}
	v := make([]float64, len(lags))
	for i, l := range lags {
		v[i] = ms(l)
	}
	return slicedTail(v)
}

// maxTraces bounds how many traces of one kind a run reads back.
const maxTraces = 200

// httpSelf returns the self times in µs of the HTTP layer for
// traced requests of kind k: the mus.http.request span minus its
// mus.engine.* children.
func httpSelf(srv *server, outs []outcome, k kind) ([]float64, error) {
	var self []float64
	for _, o := range outs {
		if len(self) == maxTraces {
			break
		}
		if !o.ok() || o.Req.Kind != k || o.TraceID == "" {
			continue
		}
		tr, err := srv.trace(o.TraceID)
		if err != nil {
			return nil, fmt.Errorf("reading trace %s: %w", o.TraceID, err)
		}
		var root *api.TraceSpan
		for i, sp := range tr.Spans {
			if sp.Name == "mus.http.request" {
				root = &tr.Spans[i]
				break
			}
		}
		if root == nil {
			return nil, fmt.Errorf("trace %s has no mus.http.request span", o.TraceID)
		}
		d := root.DurationMS
		for _, sp := range tr.Spans {
			if sp.Parent == root.SpanID && strings.HasPrefix(sp.Name, "mus.engine.") {
				d -= sp.DurationMS
			}
		}
		self = append(self, d*1e3)
	}
	return self, nil
}

// lagBound is the release lag beyond which the generator, not the
// server, would set the measured latencies: the run fails instead of
// reporting them. At 250 warm hits per second the lag tail is 1–3 ms.
const lagBound = 25 * time.Millisecond

func checkLag(name string, lags []time.Duration) error {
	if tail := lagTail(lags); tail > ms(lagBound) {
		return fmt.Errorf("%s: generator lag tail %.2f ms exceeds %v; the numbers would measure the generator", name, tail, lagBound)
	}
	return nil
}

// overhead is the relative change in median solve latency from the
// untraced to the traced window, in percent.
func overhead(untraced, traced []outcome) float64 {
	a, b := pick(untraced, isSolve, latencyMS), pick(traced, isSolve, latencyMS)
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	return 100 * (percentile(sortedCopy(b), 0.5)/percentile(sortedCopy(a), 0.5) - 1)
}

// ----- cold-ladder -----

// coldLimit is the cold-ladder latency limit: no cold request, the
// largest solve and the N = 12 sweep included, may take longer.
const coldLimit = 5 * time.Second

// coldRoundTime is how long one cold-ladder round takes at the seed
// commit on a 2-core machine. A window runs the number of whole rounds
// that fills its length there, so every run serves the same requests and
// the latency samples, the cache contents and the live heap have the
// same make-up under every seed; a faster server finishes sooner.
const coldRoundTime = 5 * time.Second

// coldWindow runs cold-ladder rounds on one connection, a closed loop,
// numbered from firstRound.
func coldWindow(cfg config, srv *server, firstRound int, dur time.Duration, traced bool) (*window, error) {
	c := newConn(srv.base, traced, uint64(cfg.seed))
	defer c.close()
	rounds := max(1, int(dur/coldRoundTime))
	return measure(srv, func() ([]outcome, []time.Duration) {
		var outs []outcome
		for round := firstRound; round < firstRound+rounds; round++ {
			reqs := coldRound(cfg.seed, round)
			bs := bodies(reqs)
			for i, q := range reqs {
				outs = append(outs, c.do(q, bs[i], time.Now()))
			}
		}
		return outs, nil
	})
}

// coldGuard fails a cold-ladder window that hit the cache or solved
// anything twice.
func coldGuard(w *window) error {
	evals, solves, hits := w.engine()
	if hits != 0 || solves != evals || int(solves) != w.points() {
		return fmt.Errorf("cold-ladder is not cold: %d cache hits, %d solves, %d evaluations for %d points", hits, solves, evals, w.points())
	}
	return nil
}

// dataDirs hands out a fresh -data-dir per launch under the run's own
// directory, and removes them all.
type dataDirs struct {
	root string
	n    int
}

func (d *dataDirs) next(traced bool) serverOpts {
	d.n++
	return serverOpts{Traced: traced, DataDir: filepath.Join(d.root, fmt.Sprint(d.n))}
}

func (d *dataDirs) remove() { _ = os.RemoveAll(d.root) } // scratch data only

func coldLadder(cfg config, traced bool) (*result, error) {
	res := newResult()
	dirs := &dataDirs{root: filepath.Join(cfg.workdir, "data", fmt.Sprint(os.Getpid()))}
	defer dirs.remove()
	srv, setup, err := launch(cfg, coldLaunches, func() serverOpts { return dirs.next(false) }, nil)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res.set("setup_s", setup, coldLaunches)
	dur := cfg.seconds
	if traced {
		dur /= 2
	}
	w, err := coldWindow(cfg, srv, 0, dur, false)
	if err != nil {
		return nil, err
	}
	if err := coldGuard(w); err != nil {
		return nil, err
	}
	heap, err := srv.heapLiveMB()
	if err != nil {
		return nil, err
	}
	res.set("heap_live_mb", heap, 1)
	res.requestMetrics(w)
	res.set("max_rate_rps", float64(len(w.outs))/w.seconds(), len(w.outs))
	inLimit := 0
	for _, o := range w.outs {
		if o.ok() && o.latency() <= coldLimit {
			inLimit++
		}
	}
	res.set("slo_ok_ratio", float64(inLimit)/float64(len(w.outs)), len(w.outs))
	all := w.outs
	if traced {
		tsrv, _, err := startServer(cfg.bin, dirs.next(true))
		if err != nil {
			return nil, err
		}
		defer tsrv.stop()
		tw, err := coldWindow(cfg, tsrv, 1000, dur, true)
		if err != nil {
			return nil, err
		}
		if err := coldGuard(tw); err != nil {
			return nil, err
		}
		if err := res.serverMetrics(tsrv, tw); err != nil {
			return nil, err
		}
		res.set("trace.overhead_pct", overhead(w.outs, tw.outs), len(tw.outs))
		all = append(all, tw.outs...)
	}
	v := &verifier{}
	res.count(all, v.oracleCheck(all))
	res.finish(v)
	return res, nil
}

// ----- warm-hits -----

// Warm-hits settings: the Poisson rate of the latency phase and the
// latency limit of every request kind. With the 90/8/2 mix first used,
// 300 requests/s was the highest of 150, 300, 600 and 1200 at which waits
// for a free connection added no more to solve_tail_ms than at 150; at
// 600 they added 50–70%. With the 77/21/2 mix, whose sweeps hold a
// connection longer, 250 requests/s keeps the two connections as busy as
// 300 did then. NOTES.md has the measurements.
const (
	warmRate  = 250.0
	warmLimit = 20 * time.Millisecond
)

// warmConns opens the two warm-hits connections.
func warmConns(srv *server, seed int64, traced bool) []*conn {
	return []*conn{newConn(srv.base, traced, uint64(seed)), newConn(srv.base, traced, uint64(seed)+1)}
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// warmUp solves the working set on a fresh server over two connections
// and returns the answers.
func warmUp(set []request, conns []*conn) ([]outcome, error) {
	outs, _ := openLoop(conns, set, bodies(set))
	for _, o := range outs {
		if !o.ok() {
			return nil, fmt.Errorf("warm-up %s request failed: %s", o.Req.Kind, o.Err)
		}
	}
	return outs, nil
}

func warmHits(cfg config, traced bool) (*result, error) {
	res := newResult()
	set := warmSet(cfg.seed)
	// Every launch is warmed up, and set-up time is launch plus warm-up;
	// the last launch's connections and answers serve the run.
	var conns []*conn
	var warm []outcome
	srv, setup, err := launch(cfg, warmLaunches, func() serverOpts { return serverOpts{} }, func(s *server) error {
		closeAll(conns)
		conns = warmConns(s, cfg.seed, false)
		var err error
		warm, err = warmUp(set, conns)
		return err
	})
	defer func() { closeAll(conns) }()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res.set("setup_s", setup, warmLaunches)

	// The fixed-rate phase's requests, in the first two thirds of the
	// window; the closed loop, in the last third, cycles through them too,
	// so both phases send the same mix. The latency tails need the
	// larger share of the samples; throughput is a median of per-second
	// counts and steady with the eight of a 25-s run.
	fixedDur := cfg.seconds * 2 / 3
	reqs := warmPhase(cfg.seed, 0, set, warmRate, fixedDur)
	bs := bodies(reqs)
	fixed, err := measure(srv, func() ([]outcome, []time.Duration) {
		return openLoop(conns, reqs, bs)
	})
	if err != nil {
		return nil, err
	}
	if err := checkLag("warm-hits", fixed.lags); err != nil {
		return nil, err
	}
	hitGuard := func(w *window) error {
		evals, _, hits := w.engine()
		if hits != evals || evals == 0 {
			return fmt.Errorf("warm-hits is not warm: %d cache hits for %d evaluations", hits, evals)
		}
		return nil
	}
	if err := hitGuard(fixed); err != nil {
		return nil, err
	}
	// The live heap after the fixed-rate phase, whose request count the
	// seed fixes: finished jobs stay in memory, and the saturating phase
	// sends as many as the server's speed allows.
	heap, err := srv.heapLiveMB()
	if err != nil {
		return nil, err
	}
	res.set("heap_live_mb", heap, 1)
	res.requestMetrics(fixed)
	inLimit := 0
	for _, o := range fixed.outs {
		if o.ok() && o.latency() <= warmLimit {
			inLimit++
		}
	}
	res.set("slo_ok_ratio", float64(inLimit)/float64(len(fixed.outs)), len(fixed.outs))
	timed := fixed.outs
	if !traced {
		// The highest rate sustained without a growing backlog: both
		// connections send back to back, the same mix.
		sat, err := measure(srv, func() ([]outcome, []time.Duration) {
			return closedLoop(conns, reqs, bs, cfg.seconds-fixedDur), nil
		})
		if err != nil {
			return nil, err
		}
		if err := hitGuard(sat); err != nil {
			return nil, err
		}
		res.set("max_rate_rps", slicedRate(sat, func(outcome) int { return 1 }), len(sat.outs))
		res.set("points_per_s", slicedRate(sat, func(o outcome) int { return o.Req.points() }), sat.points())
		timed = append(timed, sat.outs...)
	}

	v := &verifier{}
	warmGood := v.oracleCheck(warm)
	if traced {
		tsrv, _, err := startServer(cfg.bin, serverOpts{Traced: true})
		if err != nil {
			return nil, err
		}
		defer tsrv.stop()
		tconns := warmConns(tsrv, cfg.seed+1000, true)
		defer closeAll(tconns)
		twarm, err := warmUp(set, tconns)
		if err != nil {
			return nil, err
		}
		tw, err := measure(tsrv, func() ([]outcome, []time.Duration) {
			return openLoop(tconns, reqs, bs)
		})
		if err != nil {
			return nil, err
		}
		if err := hitGuard(tw); err != nil {
			return nil, err
		}
		if err := checkLag("warm-hits traced", tw.lags); err != nil {
			return nil, err
		}
		if err := res.serverMetrics(tsrv, tw); err != nil {
			return nil, err
		}
		res.set("trace.overhead_pct", overhead(fixed.outs, tw.outs), len(tw.outs))
		tgood := v.oracleCheck(twarm)
		res.count(tw.outs, v.repeatCheck(tw.outs, twarm, tgood))
	}
	res.count(timed, v.repeatCheck(timed, warm, warmGood))
	res.finish(v)
	return res, nil
}
