package main

import (
	"reflect"
	"testing"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/qbd"
	"repro/internal/service"
)

// fingerprints returns the cache key of every point a request asks for.
func fingerprints(t *testing.T, q request) []string {
	t.Helper()
	var systems []core.System
	switch q.Kind {
	case kindSolve, kindMG:
		sys, err := q.wire().ToSystem()
		if err != nil {
			t.Fatal(err)
		}
		systems = []core.System{sys}
	default:
		var err error
		if systems, err = q.sweep().Systems(); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]string, len(systems))
	for i, sys := range systems {
		out[i] = sys.Fingerprint()
		if q.Kind == kindMG {
			out[i] += "|mg"
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if !reflect.DeepEqual(coldRound(seed, 2), coldRound(seed, 2)) {
			t.Errorf("seed %d: cold-ladder rounds differ", seed)
		}
		set := warmSet(seed)
		if !reflect.DeepEqual(set, warmSet(seed)) {
			t.Errorf("seed %d: warm-hits working sets differ", seed)
		}
		if !reflect.DeepEqual(warmPhase(seed, 1, set, 300, 2e9), warmPhase(seed, 1, set, 300, 2e9)) {
			t.Errorf("seed %d: warm-hits phases differ", seed)
		}
	}
	if reflect.DeepEqual(coldRound(1, 0), coldRound(2, 0)) {
		t.Error("seeds 1 and 2 give the same cold-ladder round")
	}
}

func TestColdLadderNeverRepeatsAConfiguration(t *testing.T) {
	seen := map[string]bool{}
	for round := range 8 {
		for _, q := range coldRound(1, round) {
			for _, fp := range fingerprints(t, q) {
				if seen[fp] {
					t.Fatalf("round %d: %s request at N=%d repeats configuration %s", round, q.Kind, q.N, fp)
				}
				seen[fp] = true
			}
		}
	}
}

func TestColdRoundComposition(t *testing.T) {
	counts := map[kind]int{}
	sizes := map[int]bool{}
	for _, q := range coldRound(7, 0) {
		counts[q.Kind]++
		if q.Kind == kindSolve {
			sizes[q.N] = true
		}
		if q.Kind == kindSweep || q.Kind == kindJob {
			if len(q.Grid) != gridPoints {
				t.Errorf("%s grid has %d points, want %d", q.Kind, len(q.Grid), gridPoints)
			}
		}
	}
	for n := 6; n <= 16; n++ {
		if !sizes[n] {
			t.Errorf("no spectral solve at N=%d", n)
		}
	}
	want := map[kind]int{kindSolve: 35, kindMG: len(coldMGSizes), kindSweep: len(coldSweepSizes), kindJob: len(coldJobSizes)}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("round holds %v, want %v", counts, want)
	}
}

// The median solve of a round must be an N = 8 spectral one: as many
// solves take less time (smaller N, and mg at N = 6) as take more (larger
// N, and mg at N ≥ 8).
func TestColdMedianSolveIsMidCluster(t *testing.T) {
	below, at, above := 0, 0, 0
	for _, q := range coldRound(1, 0) {
		switch {
		case q.Kind == kindSolve && q.N == 8:
			at++
		case q.Kind == kindSolve && q.N < 8, q.Kind == kindMG && q.N < 8:
			below++
		case q.Kind == kindSolve, q.Kind == kindMG:
			above++
		}
	}
	if below != above || at < 2 {
		t.Errorf("%d solves below the N = 8 ones, %d at N = 8, %d above", below, at, above)
	}
}

func TestWarmSetFitsTheDefaultCache(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		keys := map[string]bool{}
		for _, q := range warmSet(seed) {
			for _, fp := range fingerprints(t, q) {
				keys[fp] = true
			}
		}
		if len(keys) > service.DefaultCacheSize {
			t.Errorf("seed %d: working set has %d configurations, cache holds %d", seed, len(keys), service.DefaultCacheSize)
		}
		if len(keys) < warmSolves {
			t.Errorf("seed %d: working set has only %d distinct configurations", seed, len(keys))
		}
	}
}

func TestWarmPhaseOnlyUsesTheWorkingSet(t *testing.T) {
	set := warmSet(3)
	inSet := map[string]bool{}
	for _, q := range set {
		for _, fp := range fingerprints(t, q) {
			inSet[fp] = true
		}
	}
	for _, q := range warmPhase(3, 0, set, 400, 3e9) {
		for _, fp := range fingerprints(t, q) {
			if !inSet[fp] {
				t.Fatalf("%s request outside the working set", q.Kind)
			}
		}
		ref := set[q.Ref]
		if ref.N != q.N || ref.Lambda != q.Lambda || !reflect.DeepEqual(ref.Grid, q.Grid) {
			t.Fatalf("request does not match its working-set entry %d", q.Ref)
		}
	}
}

func TestWarmPhaseHasTheMix(t *testing.T) {
	set := warmSet(2)
	reqs := warmPhase(2, 0, set, warmRate, 25*time.Second*2/3)
	n := map[kind]int{}
	for _, q := range reqs {
		n[q.Kind]++
	}
	if want := len(reqs) * warmSweepPct / 100; n[kindSweep] != want {
		t.Errorf("%d sweeps in %d requests, want %d", n[kindSweep], len(reqs), want)
	}
	if want := len(reqs) * warmJobPct / 100; n[kindJob] != want {
		t.Errorf("%d jobs in %d requests, want %d", n[kindJob], len(reqs), want)
	}
	if n[kindSweep] < 8*tailSlice || n[kindJob] < 50 {
		t.Errorf("%d sweeps and %d jobs in the fixed-rate part of a 25-s run, want at least %d and 50", n[kindSweep], n[kindJob], 8*tailSlice)
	}
}

func TestCompanionMatchesTheSolver(t *testing.T) {
	roots := func(n int, load float64) (qbd.Params, []complex128) {
		sys, err := api.System{Servers: n, Lambda: lambdaAt(n, load)}.ToSystem()
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.Params()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := qbd.SolveSpectral(p)
		if err != nil {
			t.Fatal(err)
		}
		return p, sol.Eigenvalues()
	}
	for _, n := range []int{4, 6} {
		p, zs := roots(n, 0.7)
		ws, err := linalg.Eigenvalues(companion(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRoots(ws, zs); err != nil {
			t.Errorf("N = %d: %v", n, err)
		}
		if _, other := roots(n, 0.6); sameRoots(ws, other) == nil {
			t.Errorf("N = %d: the roots of another load went unnoticed", n)
		}
	}
}

func TestPercentiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if got := percentile(v, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(v, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := tailQuantile(100); got != 0.9 {
		t.Errorf("tail quantile of 100 samples = %v, want 0.9", got)
	}
	if got := tailQuantile(12); got != 0.5 {
		t.Errorf("tail quantile of 12 samples = %v, want the median", got)
	}
	// One stalled stretch in the first of three slices leaves the tail
	// at the other slices' value.
	lat := make([]float64, 3*tailSlice)
	for i := range lat {
		lat[i] = float64(i % 100)
	}
	for i := range 50 {
		lat[i] = 1000
	}
	if got, want := slicedTail(lat), percentile(sortedCopy(lat[tailSlice:2*tailSlice]), tailQuantile(tailSlice)); got != want {
		t.Errorf("sliced tail = %v, want %v", got, want)
	}
}

func TestOracleAgreesWithTheModel(t *testing.T) {
	for _, n := range []int{1, 4, 8, 12} {
		for _, load := range []float64{loLoad, 0.6, hiLoad - 0.001} {
			lam := lambdaAt(n, load)
			got, err := oracle(n, lam)
			if err != nil {
				t.Fatalf("N=%d load %v: %v", n, load, err)
			}
			sys, err := api.System{Servers: n, Lambda: lam}.ToSystem()
			if err != nil {
				t.Fatal(err)
			}
			perf, err := sys.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPerf(api.FromPerformance(perf), got); err != nil {
				t.Errorf("N=%d load %v: %v", n, load, err)
			}
		}
	}
}
