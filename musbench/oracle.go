package main

import (
	"errors"
	"fmt"
	"math"

	"repro/api"
	"repro/internal/core"
)

// The oracle solves the same model as mus-serve by a route that shares no
// solver code with it: the rate matrix R of the matrix-geometric method
// comes from logarithmic reduction (Latouche & Ramaswami), the boundary
// levels from a block elimination written here, and every kernel is a
// plain loop over row-major slices. Only the environment (the mode
// generator A and the service diagonals) is taken from the model layer.

// oracleAnswer is what the oracle computes for one configuration.
type oracleAnswer struct {
	MeanJobs, MeanResponse, TailDecay, Load float64
}

// oracle solves the configuration (N, λ) under the paper's defaults.
func oracle(n int, lambda float64) (oracleAnswer, error) {
	sys, err := api.System{Servers: n, Lambda: lambda}.ToSystem()
	if err != nil {
		return oracleAnswer{}, err
	}
	return solveMG(sys)
}

// solveMG computes L, W, the tail decay rate and the load of sys.
func solveMG(sys core.System) (oracleAnswer, error) {
	p, err := sys.Params()
	if err != nil {
		return oracleAnswer{}, err
	}
	s, nTop, lam := p.A.Rows, len(p.ServiceDiag)-1, p.Lambda
	a := append([]float64(nil), p.A.Data...)
	da := make([]float64, s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			da[i] += a[i*s+j]
		}
	}
	// local(c) is the within-level generator block A − Dᴬ − λI − diag(c).
	local := func(c []float64) []float64 {
		m := append([]float64(nil), a...)
		for i := 0; i < s; i++ {
			m[i*s+i] -= da[i] + lam + c[i]
		}
		return m
	}
	c := p.ServiceDiag[nTop]
	a1 := local(c)

	// Logarithmic reduction for G, the minimal solution of
	// C + A1·G + λ·G² = 0; then R = λ·(−A1 − λG)⁻¹.
	negA1 := scale(a1, -1)
	h, err := solveRight(negA1, scale(eye(s), lam), s) // (−A1)⁻¹·λI
	if err != nil {
		return oracleAnswer{}, err
	}
	l, err := solveRight(negA1, diagMat(c), s) // (−A1)⁻¹·C
	if err != nil {
		return oracleAnswer{}, err
	}
	g := append([]float64(nil), l...)
	t := append([]float64(nil), h...)
	converged := false
	for it := 0; it < 64 && !converged; it++ {
		iu, err := factor(sub(eye(s), add(mul(h, l, s), mul(l, h, s))), s)
		if err != nil {
			return oracleAnswer{}, err
		}
		h, l = iu.solveMatrix(mul(h, h, s)), iu.solveMatrix(mul(l, l, s))
		g = add(g, mul(t, l, s))
		t = mul(t, h, s)
		worst := 0.0
		for i := 0; i < s; i++ {
			sum := 0.0
			for j := 0; j < s; j++ {
				sum += g[i*s+j]
			}
			worst = math.Max(worst, math.Abs(1-sum))
		}
		converged = worst < 1e-13
	}
	if !converged {
		return oracleAnswer{}, errors.New("oracle: logarithmic reduction did not converge")
	}
	r, err := inverse(sub(negA1, scale(g, lam)), s)
	if err != nil {
		return oracleAnswer{}, err
	}
	r = scale(r, lam)

	// Boundary: v_j = v_{j+1}·S_j for j < N with
	// S_j = C_{j+1}·(−(L_j + λS_{j−1}))⁻¹, S_{−1} = 0.
	stages := make([][]float64, nTop)
	var prev []float64
	for j := 0; j < nTop; j++ {
		k := scale(local(p.ServiceDiag[j]), -1)
		if prev != nil {
			k = sub(k, scale(prev, lam))
		}
		kinv, err := inverse(k, s)
		if err != nil {
			return oracleAnswer{}, fmt.Errorf("oracle: boundary stage %d: %w", j, err)
		}
		cn := p.ServiceDiag[j+1]
		for i := 0; i < s; i++ {
			for jj := 0; jj < s; jj++ {
				kinv[i*s+jj] *= cn[i]
			}
		}
		stages[j] = kinv
		prev = kinv
	}
	// Level N: v_N·(λS_{N−1} + A1 + R·C) = 0, normalised by Σv_N = 1 for
	// now: replace the last column by ones and solve v_N·M = e_s.
	m := add(a1, mul(r, diagMat(c), s))
	if nTop > 0 {
		m = add(m, scale(stages[nTop-1], lam))
	}
	for i := 0; i < s; i++ {
		m[i*s+s-1] = 1
	}
	rhs := make([]float64, s)
	rhs[s-1] = 1
	vN, err := solveLeft(m, rhs, s)
	if err != nil {
		return oracleAnswer{}, err
	}

	// Σ_{k≥0} v_N R^k 1 = v_N·y with (I−R)y = 1, and
	// Σ_{k≥0} k·v_N R^k 1 = v_N·R·z with (I−R)z = y.
	imr := sub(eye(s), r)
	ones := make([]float64, s)
	for i := range ones {
		ones[i] = 1
	}
	y, err := solveCol(imr, ones, s)
	if err != nil {
		return oracleAnswer{}, err
	}
	z, err := solveCol(imr, y, s)
	if err != nil {
		return oracleAnswer{}, err
	}
	total := dot(vN, y)
	meanJobs := float64(nTop)*dot(vN, y) + dot(vN, matVec(r, z, s))
	cur := vN
	for j := nTop - 1; j >= 0; j-- {
		cur = vecMat(cur, stages[j], s)
		sum := 0.0
		for _, v := range cur {
			sum += v
		}
		total += sum
		meanJobs += float64(j) * sum
	}
	meanJobs /= total
	return oracleAnswer{
		MeanJobs:     meanJobs,
		MeanResponse: meanJobs / lam,
		TailDecay:    spectralRadius(r, vN, s),
		Load:         sys.Load(),
	}, nil
}

// spectralRadius returns the Perron root of the non-negative matrix r by
// power iteration on x ← x·r^64 from the positive start x0: six squarings
// cost less than the thousands of plain steps the iteration needs when
// the two largest eigenvalues of r are close.
func spectralRadius(r, x0 []float64, s int) float64 {
	const squarings = 6
	p := r
	for range squarings {
		p = mul(p, p, s)
	}
	x := append([]float64(nil), x0...)
	rho := 0.0
	for it := 0; it < 10000; it++ {
		nx := vecMat(x, p, s)
		norm, prevNorm := 0.0, 0.0
		for i := range nx {
			norm += math.Abs(nx[i])
			prevNorm += math.Abs(x[i])
		}
		next := math.Pow(norm/prevNorm, 1.0/(1<<squarings))
		for i := range nx {
			nx[i] /= norm
		}
		x = nx
		if it > 0 && math.Abs(next-rho) <= 1e-14*next {
			return next
		}
		rho = next
	}
	return rho
}

// checkPerf compares a served steady-state block with the oracle's.
func checkPerf(got api.Performance, want oracleAnswer) error {
	for _, f := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"mean_jobs", got.MeanJobs, want.MeanJobs, 1e-7},
		{"mean_response", got.MeanResponse, want.MeanResponse, 1e-7},
		{"tail_decay", got.TailDecay, want.TailDecay, 1e-6},
		{"load", got.Load, want.Load, 1e-12},
	} {
		if !(math.Abs(f.got-f.want) <= f.tol*math.Abs(f.want)) {
			return fmt.Errorf("%s = %.15g, oracle %.15g", f.name, f.got, f.want)
		}
	}
	return nil
}

func eye(s int) []float64 {
	m := make([]float64, s*s)
	for i := 0; i < s; i++ {
		m[i*s+i] = 1
	}
	return m
}

func diagMat(d []float64) []float64 {
	s := len(d)
	m := make([]float64, s*s)
	for i, v := range d {
		m[i*s+i] = v
	}
	return m
}

func scale(a []float64, f float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v * f
	}
	return out
}

func add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// mul returns the s×s product a·b.
func mul(a, b []float64, s int) []float64 {
	out := make([]float64, s*s)
	for i := 0; i < s; i++ {
		row := out[i*s : (i+1)*s]
		for k := 0; k < s; k++ {
			f := a[i*s+k]
			if f == 0 {
				continue
			}
			bk := b[k*s : (k+1)*s]
			for j, v := range bk {
				row[j] += f * v
			}
		}
	}
	return out
}

func matVec(a, x []float64, s int) []float64 {
	out := make([]float64, s)
	for i := 0; i < s; i++ {
		out[i] = dot(a[i*s:(i+1)*s], x)
	}
	return out
}

func vecMat(x, a []float64, s int) []float64 {
	out := make([]float64, s)
	for k, f := range x {
		if f == 0 {
			continue
		}
		for j, v := range a[k*s : (k+1)*s] {
			out[j] += f * v
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// lu is an LU factorisation with partial pivoting of an s×s matrix.
type lu struct {
	s   int
	m   []float64
	piv []int
}

func factor(a []float64, s int) (*lu, error) {
	m := append([]float64(nil), a...)
	piv := make([]int, s)
	for k := 0; k < s; k++ {
		p := k
		for i := k + 1; i < s; i++ {
			if math.Abs(m[i*s+k]) > math.Abs(m[p*s+k]) {
				p = i
			}
		}
		if m[p*s+k] == 0 {
			return nil, errors.New("oracle: singular matrix")
		}
		piv[k] = p
		if p != k {
			for j := 0; j < s; j++ {
				m[k*s+j], m[p*s+j] = m[p*s+j], m[k*s+j]
			}
		}
		d := m[k*s+k]
		rowK := m[k*s+k+1 : (k+1)*s]
		for i := k + 1; i < s; i++ {
			f := m[i*s+k] / d
			m[i*s+k] = f
			if f == 0 {
				continue
			}
			rowI := m[i*s+k+1 : (i+1)*s]
			for j, v := range rowK {
				rowI[j] -= f * v
			}
		}
	}
	return &lu{s: s, m: m, piv: piv}, nil
}

// solve overwrites b with the solution of A·x = b.
func (f *lu) solve(b []float64) {
	s, m := f.s, f.m
	for k := 0; k < s; k++ {
		if p := f.piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for i := 0; i < s; i++ {
		b[i] -= dot(m[i*s:i*s+i], b[:i])
	}
	for i := s - 1; i >= 0; i-- {
		b[i] = (b[i] - dot(m[i*s+i+1:(i+1)*s], b[i+1:])) / m[i*s+i]
	}
}

// solveMatrix returns A⁻¹·B for an s×s B.
func (f *lu) solveMatrix(b []float64) []float64 {
	s := f.s
	out := make([]float64, s*s)
	col := make([]float64, s)
	for j := 0; j < s; j++ {
		for i := 0; i < s; i++ {
			col[i] = b[i*s+j]
		}
		f.solve(col)
		for i := 0; i < s; i++ {
			out[i*s+j] = col[i]
		}
	}
	return out
}

// solveRight returns A⁻¹·B for s×s matrices.
func solveRight(a, b []float64, s int) ([]float64, error) {
	f, err := factor(a, s)
	if err != nil {
		return nil, err
	}
	return f.solveMatrix(b), nil
}

func inverse(a []float64, s int) ([]float64, error) { return solveRight(a, eye(s), s) }

// solveCol solves A·x = b.
func solveCol(a, b []float64, s int) ([]float64, error) {
	f, err := factor(a, s)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), b...)
	f.solve(x)
	return x, nil
}

// solveLeft solves x·A = b, that is Aᵀ·xᵀ = bᵀ.
func solveLeft(a, b []float64, s int) ([]float64, error) {
	at := make([]float64, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			at[j*s+i] = a[i*s+j]
		}
	}
	return solveCol(at, b, s)
}
