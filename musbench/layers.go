package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/qbd"
	"repro/internal/service"
	"repro/internal/store"
)

// perCall times `reps` batches of `batch` calls of f and returns the
// median time of one call.
func perCall(reps, batch int, f func()) time.Duration {
	ts := make([]time.Duration, reps)
	for r := range ts {
		start := time.Now()
		for range batch {
			f()
		}
		ts[r] = time.Since(start) / time.Duration(batch)
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocs counts the heap allocations of one call of f.
func allocs(f func()) float64 { return testing.AllocsPerRun(20, f) }

// sizeN maps the mode counts the layer metrics name to N: s = C(N+2, 2).
var sizeN = map[int]int{28: 6, 45: 8, 66: 10, 91: 12, 120: 14, 153: 16}

// stageReps is how many timed repetitions a solver stage gets at mode count
// s: fewer for the large sizes, so that the probes take a few seconds.
func stageReps(s int) int {
	switch {
	case s >= 120:
		return 1
	case s >= 66:
		return 3
	}
	return 5
}

// companion is the 2s×2s matrix whose s largest eigenvalues w give the
// spectral expansion's z = 1/w inside the unit disk. It mirrors the
// solver's own, built in unitDiskEigenvalues (internal/qbd/spectral.go),
// which is not exported, and must follow it: sameRoots fails the probe
// when the two stop giving the same roots.
func companion(p qbd.Params) *linalg.Matrix {
	s, lam := p.Size(), p.Lambda
	c := p.ServiceDiag[len(p.ServiceDiag)-1]
	da := p.A.RowSums()
	cm := linalg.NewMatrix(2*s, 2*s)
	for i := 0; i < s; i++ {
		cm.Set(i, s+i, 1)
		cm.Set(s+i, i, -c[i]/lam)
		for j := 0; j < s; j++ {
			v := p.A.At(j, i)
			if i == j {
				v -= da[i] + lam + c[i]
			}
			cm.Set(s+i, s+j, -v/lam)
		}
	}
	return cm
}

// sameRoots checks that the s = len(zs) largest eigenvalues ws of the
// companion matrix are the inverses of the solver's roots zs, comparing
// sorted moduli to 1e-8 relative (the solver rounds tiny imaginary parts
// to zero).
func sameRoots(ws, zs []complex128) error {
	s := len(zs)
	if len(ws) < s {
		return fmt.Errorf("%d companion eigenvalues for %d roots", len(ws), s)
	}
	desc := func(v []complex128, f func(complex128) float64) []float64 {
		m := make([]float64, len(v))
		for i, x := range v {
			m[i] = f(x)
		}
		slices.Sort(m)
		slices.Reverse(m)
		return m
	}
	w := desc(ws, cmplx.Abs)
	z := desc(zs, func(x complex128) float64 { return 1 / cmplx.Abs(x) })
	for k := range z {
		if math.Abs(w[k]-z[k]) > 1e-8*w[k] {
			return fmt.Errorf("|w_%d| = %.12g, 1/|z| = %.12g", k, w[k], z[k])
		}
	}
	return nil
}

// layerProbes times the public entry points of the solver, model, cache,
// wire and storage layers in this process, on the workload's own
// generated configurations. Allocation counts use one fixed configuration
// (the paper's N = 10 at load 0.7), so that they repeat exactly across
// seeds.
func layerProbes(seed int64, workdir string) (map[string]float64, error) {
	out := map[string]float64{}
	// One generated λ per ladder size: the median of the first
	// cold-ladder round's spectral solves at that size. Their loads are
	// stratified, so the median sits at the same load under every seed,
	// and the matrix-geometric probe, whose cost grows with the load,
	// times the same work.
	bySize := map[int][]float64{}
	for _, q := range coldRound(seed, 0) {
		if q.Kind == kindSolve {
			bySize[q.N] = append(bySize[q.N], q.Lambda)
		}
	}
	lambdas := map[int]float64{}
	for n, ls := range bySize {
		slices.Sort(ls)
		lambdas[n] = ls[len(ls)/2]
	}
	params := func(n int, lam float64) (core.System, qbd.Params, error) {
		sys, err := api.System{Servers: n, Lambda: lam}.ToSystem()
		if err != nil {
			return core.System{}, qbd.Params{}, err
		}
		p, err := sys.Params()
		return sys, p, err
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	residual := 0.0
	for _, s := range []int{28, 45, 66, 91, 120, 153} {
		n := sizeN[s]
		_, p, err := params(n, lambdas[n])
		if err != nil {
			return nil, err
		}
		var sol *qbd.SpectralSolution
		out[fmt.Sprintf("qbd.spectral_ms.s%d", s)] = ms(perCall(stageReps(s), 1, func() {
			var err error
			sol, err = qbd.SolveSpectral(p)
			check(err)
		}))
		if failed != nil {
			return nil, failed
		}
		residual = math.Max(residual, qbd.BalanceResidual(p, sol, n+64))
		if s == 66 || s == 153 {
			cm := companion(p)
			var ws []complex128
			out[fmt.Sprintf("linalg.eigen_ms.s%d", s)] = ms(perCall(stageReps(s), 1, func() {
				var err error
				ws, err = linalg.Eigenvalues(cm.Clone())
				check(err)
			}))
			if failed != nil {
				return nil, failed
			}
			zs := sol.Eigenvalues()
			if err := sameRoots(ws, zs); err != nil {
				return nil, fmt.Errorf("s = %d: the probe's companion matrix no longer matches the solver's: %w", s, err)
			}
			out[fmt.Sprintf("linalg.nullvec_ms.s%d", s)] = ms(perCall(stageReps(s), 1, func() {
				for _, z := range zs {
					_, err := linalg.CForcedLeftNullVector(p.CQofZ(z), 0)
					check(err)
				}
			}))
		}
		if s == 66 || s == 120 {
			var sv *qbd.SweepSolver
			out[fmt.Sprintf("qbd.sweep_build_ms.s%d", s)] = ms(perCall(5, 10, func() {
				var err error
				sv, err = qbd.NewSweepSolver(p)
				check(err)
			}))
			if failed != nil {
				return nil, failed
			}
			out[fmt.Sprintf("qbd.sweep_point_ms.s%d", s)] = ms(perCall(stageReps(s)+2, 1, func() {
				_, err := sv.Solve(p.Lambda)
				check(err)
			}))
		}
		if s == 66 {
			out["qbd.mg_ms.s66"] = ms(perCall(3, 1, func() {
				_, err := qbd.SolveMatrixGeometric(p, qbd.MGOptions{})
				check(err)
			}))
		}
		if s == 153 {
			sys, _, _ := params(n, lambdas[n])
			out["markov.env_ms.s153"] = ms(perCall(5, 5, func() {
				env, err := markov.NewEnv(sys.Servers, sys.Operative, sys.Repair)
				check(err)
				if err == nil {
					env.AMatrix()
				}
			}))
		}
	}
	out["qbd.residual_max"] = residual

	// Fixed configuration for the allocation counts.
	fixed, fp, err := params(10, lambdaAt(10, 0.7))
	if err != nil {
		return nil, err
	}
	sv, err := qbd.NewSweepSolver(fp)
	if err != nil {
		return nil, err
	}
	out["qbd.sweep_point_allocs.s66"] = allocs(func() {
		_, err := sv.Solve(fp.Lambda)
		check(err)
	})

	// Fingerprints, the warm engine and the wire codec, on the warm-hits
	// working set's first solve and first grid.
	set := warmSet(seed)
	warmSolve, warmGrid := set[0], set[warmSolves]
	sys, _, err := params(warmSolve.N, warmSolve.Lambda)
	if err != nil {
		return nil, err
	}
	var sink string
	out["core.fingerprint_ns"] = float64(perCall(5, 2000, func() { sink = sys.Fingerprint() }))
	out["core.env_fingerprint_ns"] = float64(perCall(5, 2000, func() { sink = sys.EnvFingerprint() }))
	out["core.fingerprint_allocs"] = allocs(func() { sink = fixed.Fingerprint() })
	out["core.env_fingerprint_allocs"] = allocs(func() { sink = fixed.EnvFingerprint() })
	_ = sink

	ctx := context.Background()
	eng := service.NewEngine(service.Config{})
	evaluate := func(s core.System) func() {
		return func() {
			_, err := eng.Evaluate(ctx, s, core.Spectral)
			check(err)
		}
	}
	evaluate(sys)()
	evaluate(fixed)()
	out["service.hit_ns"] = float64(perCall(5, 2000, evaluate(sys)))
	out["service.hit_allocs"] = allocs(evaluate(fixed))
	grid, err := warmGrid.sweep().Systems()
	if err != nil {
		return nil, err
	}
	jobs := make([]service.Job, len(grid))
	for i, g := range grid {
		jobs[i] = service.Job{System: g, Method: core.Spectral}
	}
	if err := service.FirstError(eng.EvaluateBatch(ctx, jobs)); err != nil {
		return nil, err
	}
	out["service.sweep_hit_us"] = us(perCall(5, 20, func() {
		check(service.FirstError(eng.EvaluateBatch(ctx, jobs)))
	}))

	solveBody, sweepBody := encode(warmSolve), encode(warmGrid)
	out["api.decode_us.solve"] = us(perCall(5, 500, func() {
		var r api.SolveRequest
		check(json.Unmarshal(solveBody, &r))
		_, _, err := r.Resolve()
		check(err)
	}))
	out["api.decode_us.sweep"] = us(perCall(5, 200, func() {
		var r api.SweepRequest
		check(json.Unmarshal(sweepBody, &r))
		_, err := r.Systems()
		check(err)
	}))
	perf, err := eng.Evaluate(ctx, sys, core.Spectral)
	if err != nil {
		return nil, err
	}
	solveResp := api.SolveResponse{Fingerprint: sys.Fingerprint(), Method: api.MethodSpectral,
		Availability: sys.Availability(), Modes: sys.Modes(), Stable: true, Perf: api.FromPerformance(perf)}
	sweepResp := api.SweepResponse{Method: api.MethodSpectral, Param: api.ParamLambda}
	for i, v := range warmGrid.Grid {
		wp := api.FromPerformance(perf)
		sweepResp.Points = append(sweepResp.Points, api.SweepPoint{Index: i, Value: v, Perf: &wp})
	}
	out["api.encode_us.solve"] = us(perCall(5, 500, func() {
		_, err := json.Marshal(solveResp)
		check(err)
	}))
	out["api.encode_us.sweep"] = us(perCall(5, 200, func() {
		_, err := json.Marshal(sweepResp)
		check(err)
	}))

	// The write-ahead log, with the server's default fsync batching.
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jl, err := store.OpenJobLog(filepath.Join(dir, "log"), store.Options{FsyncInterval: store.DefaultFsyncInterval})
	if err != nil {
		return nil, err
	}
	entry := store.Entry{Kind: store.EntryState, Job: "j0000000000000000", State: api.JobStateRunning, Time: time.Now()}
	out["store.append_us"] = us(perCall(5, 200, func() { check(jl.Append(entry)) }))
	if err := jl.Close(); err != nil {
		return nil, err
	}
	return out, failed
}
