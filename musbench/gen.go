package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/api"
)

// kind is the type of one logical request the load generator sends.
type kind int

const (
	kindSolve kind = iota // spectral POST /v1/solve
	kindMG                // POST /v1/solve with method mg
	kindSweep             // NDJSON-streamed POST /v1/sweep over a λ grid
	kindJob               // λ-sweep job: POST /v1/jobs → poll → GET …/result
)

func (k kind) String() string {
	return [...]string{"solve", "mg", "sweep", "job"}[k]
}

// request is one generated logical request. Every request uses the
// paper's default distributions (H2 operative periods
// 0.7246·Exp(0.1663)+0.2754·Exp(0.0091), repair Exp(25), µ = 1), which the
// server applies when the distribution fields are absent.
type request struct {
	Kind   kind
	N      int
	Lambda float64       // solve and mg
	Grid   []float64     // sweep and job: the λ values
	Due    time.Duration // open loop: due time relative to the phase start
	// Ref indexes the warm-up answer a warm-hits request must repeat
	// byte for byte (-1 when the request is not a warm hit).
	Ref int
}

// points is the number of model evaluations the request asks for.
func (r request) points() int {
	if r.Kind == kindSweep || r.Kind == kindJob {
		return len(r.Grid)
	}
	return 1
}

// wire is the request's system in wire form (λ is ignored for grids).
func (r request) wire() api.System {
	lambda := r.Lambda
	if lambda == 0 {
		lambda = 1
	}
	return api.System{Servers: r.N, Lambda: lambda}
}

// sweep is the request's grid as a sweep request body.
func (r request) sweep() api.SweepRequest {
	return api.SweepRequest{System: r.wire(), Param: api.ParamLambda, Values: r.Grid}
}

// availability is η/(ξ+η) of the paper's default distributions.
var availability = func() float64 {
	sys, err := api.System{Servers: 1, Lambda: 1}.ToSystem()
	if err != nil {
		panic(err)
	}
	return sys.Availability()
}()

// lambdaAt is the arrival rate that puts an N-server system at the given
// offered load.
func lambdaAt(n int, load float64) float64 { return load * float64(n) * availability }

// Every λ is drawn at a load in [loLoad, hiLoad).
const (
	loLoad = 0.3
	hiLoad = 0.9
)

// gridPoints is the length of every sweep grid the workloads use.
const gridPoints = 48

// rng returns the generator stream for one part of one workload. Streams
// are independent of each other and of how many requests earlier parts
// drew, so the same seed always gives the same requests.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Stream tags: the high bits name the workload part, the low bits its index.
const (
	streamCold      = 1 << 32
	streamWarmSet   = 2 << 32
	streamWarmPhase = 3 << 32
)

// freshLambda draws a λ at a uniform load in [loLoad, hiLoad).
func freshLambda(r *rand.Rand, n int) float64 {
	return lambdaAt(n, loLoad+(hiLoad-loLoad)*r.Float64())
}

// jitter is the width, as a share of the load range, of the seeded
// offset added to a stratified load: enough to make every configuration
// new, too little to change what it costs to solve.
const jitter = 1e-3

// stratifiedLambda returns the λ of the i-th of c requests at size n in
// round `round`: the c loads are spread evenly over [loLoad, hiLoad),
// rotated by a golden-ratio step per round and offset by a seeded jitter.
// The solver's cost depends on the load (the matrix-geometric iteration
// count grows as the load nears 1), so fixing the loads up to the jitter
// keeps the cost of a round the same under every seed.
func stratifiedLambda(r *rand.Rand, n, i, c, round int) float64 {
	_, u := math.Modf((float64(i)+0.5)/float64(c) + float64(round)*0.6180339887498949)
	return lambdaAt(n, loLoad+(hiLoad-loLoad-jitter)*u+jitter*r.Float64())
}

// freshGrid draws an n-point λ grid spanning loads [loLoad, hiLoad): the
// points are evenly spaced and the whole grid is shifted by a random
// fraction of one step, so no two grids share a point.
func freshGrid(r *rand.Rand, n, points int) []float64 {
	shift := r.Float64()
	step := (hiLoad - loLoad) / float64(points)
	g := make([]float64, points)
	for i := range g {
		g[i] = lambdaAt(n, loLoad+step*(float64(i)+shift))
	}
	return g
}

// coldSolveCounts is how many spectral solves of each size one cold-ladder
// round holds: N = 6…16 (s = 28…153), more of the cheap sizes so that the
// latency sample is large while every size appears in every round. With
// the mg solves, 16 solves per round take less time than the N = 8 ones
// and 16 take more, so solve_p50_ms falls in the middle of the N = 8
// latencies, not on the jump from them to N = 9 (about 24 to 30 ms), where
// the order of a few samples decides the median.
var coldSolveCounts = map[int]int{6: 8, 7: 7, 8: 6, 9: 3, 10: 3, 11: 2, 12: 2, 13: 1, 14: 1, 15: 1, 16: 1}

// Cold-ladder round contents besides the spectral solves.
var (
	coldMGSizes    = []int{6, 8, 10}  // method mg solves
	coldSweepSizes = []int{8, 10, 12} // NDJSON 48-point λ sweeps
	coldJobSizes   = []int{8}         // 48-point λ sweep jobs
)

// coldRound returns round i of the cold-ladder workload: a fixed multiset
// of request kinds, sizes and loads with fresh λ values, in a seeded
// order. Every request is a configuration no earlier request used.
func coldRound(seed int64, i int) []request {
	r := rng(seed, streamCold|uint64(i))
	var out []request
	for n := 6; n <= 16; n++ {
		c := coldSolveCounts[n]
		for j := range c {
			out = append(out, request{Kind: kindSolve, N: n, Lambda: stratifiedLambda(r, n, j, c, i), Ref: -1})
		}
	}
	for _, n := range coldMGSizes {
		out = append(out, request{Kind: kindMG, N: n, Lambda: stratifiedLambda(r, n, 0, 1, i), Ref: -1})
	}
	for _, n := range coldSweepSizes {
		out = append(out, request{Kind: kindSweep, N: n, Grid: freshGrid(r, n, gridPoints), Ref: -1})
	}
	for _, n := range coldJobSizes {
		out = append(out, request{Kind: kindJob, N: n, Grid: freshGrid(r, n, gridPoints), Ref: -1})
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Warm-hits working set: solve configurations cycling through N = 4…7
// and 48-point grids cycling through N = 4…6, all solved during set-up.
// The sizes follow the index, so the set costs the same to solve and to
// hold in memory under every seed.
const (
	warmSolves = 256
	warmSweeps = 24
)

// warmSet returns the warm-hits working set: warmSolves solve requests
// followed by warmSweeps sweep requests.
func warmSet(seed int64) []request {
	r := rng(seed, streamWarmSet)
	out := make([]request, 0, warmSolves+warmSweeps)
	for i := range warmSolves {
		n := 4 + i%4
		out = append(out, request{Kind: kindSolve, N: n, Lambda: freshLambda(r, n), Ref: -1})
	}
	for i := range warmSweeps {
		n := 4 + i%3
		out = append(out, request{Kind: kindSweep, N: n, Grid: freshGrid(r, n, gridPoints), Ref: -1})
	}
	return out
}

// Warm-hits request mix, in percent of requests; the rest are solves. The
// mix is a sampling choice, not modelled traffic: the smallest sweep
// share that gives the fixed-rate part of a 25-s run (16.7 s at warmRate)
// eight 100-sample slices for sweep_tail_ms, even when its Poisson
// arrival count falls three standard deviations short of the mean 4167,
// and at least 50 jobs for job_p50_s. NOTES.md has the derivation and what
// changing the mix would shift.
const (
	warmSweepPct = 21
	warmJobPct   = 2
)

// poissonDues returns the send offsets of a Poisson arrival stream at the
// given rate over dur.
func poissonDues(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// warmPhase returns one open-loop phase of warm-hits: Poisson arrivals at
// rate over dur, each a request drawn from the working set (a sweep grid
// is sent either as a streamed sweep or as a job). Each kind makes up
// exactly its share of the mix, rounded down, in a seeded order. Ref
// points at the working-set entry the answer must repeat.
func warmPhase(seed int64, phase int, set []request, rate float64, dur time.Duration) []request {
	r := rng(seed, streamWarmPhase|uint64(phase))
	dues := poissonDues(r, rate, dur)
	jobs, sweeps := len(dues)*warmJobPct/100, len(dues)*warmSweepPct/100
	kinds := make([]kind, len(dues)) // kindSolve unless set below
	for i := range jobs + sweeps {
		kinds[i] = kindSweep
		if i < jobs {
			kinds[i] = kindJob
		}
	}
	r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	out := make([]request, len(dues))
	for i, due := range dues {
		ref := r.IntN(warmSolves)
		if kinds[i] != kindSolve {
			ref = warmSolves + r.IntN(warmSweeps)
		}
		q := set[ref]
		q.Kind, q.Ref, q.Due = kinds[i], ref, due
		out[i] = q
	}
	return out
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by
// linear interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// tailSlice is the number of samples per slice in slicedTail.
const tailSlice = 100

// slicedTail returns the tail of latencies given in the order the
// requests were sent: they are cut into consecutive slices of tailSlice
// samples (one slice when there are fewer than two slices' worth), the
// tail of each slice is taken, and the median of those is reported. A
// stall of the machine delays every request queued behind it; slicing
// confines it to one slice instead of letting it set the tail of a whole
// window.
func slicedTail(inOrder []float64) float64 {
	slices := max(1, len(inOrder)/tailSlice)
	size := len(inOrder) / slices
	tails := make([]float64, slices)
	for i := range tails {
		part := append([]float64(nil), inOrder[i*size:(i+1)*size]...)
		sort.Float64s(part)
		tails[i] = percentile(part, tailQuantile(len(part)))
	}
	sort.Float64s(tails)
	return percentile(tails, 0.5)
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it, never below the median.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}
