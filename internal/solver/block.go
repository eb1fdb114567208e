package solver

import (
	"fmt"
	"math"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
)

// Blocked multi-RHS PCG. PCGBlock runs the exact per-column recurrence of
// PCG (same scalars, same floating-point operation order), but fuses the
// SpMV across right-hand sides so the sparse matrix is streamed once per
// iteration instead of once per column, and shares one preconditioner across
// the block. Every column's solution, iteration count, and residual are
// bit-identical to a standalone PCG call on that column, for any worker
// count — the block path is a pure performance transformation.
var (
	blockSolves = obs.NewCounter("solver.block.solves")
	blockRHS    = obs.NewHistogram("solver.block.rhs", obs.ExpBuckets(1, 2, 12)...)
)

// BlockOp is an Op that can apply itself to several vectors in one fused
// pass; PCGBlock requires it. AsOp returns one for any square CSR matrix.
type BlockOp interface {
	Op
	// ApplyBlockTo computes y[:,j] = A·x[:,j] for the selected columns.
	// Each selected column must equal ApplyTo on that column bitwise.
	ApplyBlockTo(y, x *mat.Dense, cols []int)
}

func (o csrOp) ApplyBlockTo(y, x *mat.Dense, cols []int) { o.m.MulDenseColsTo(y, x, cols) }

// PrecondBlockTo applies the inverse diagonal to every selected column in a
// single fused row pass (elementwise, so trivially bit-identical per column).
func (p *JacobiPrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	w := r.Cols
	parallel.For(r.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := p.invDiag[i]
			zrow := z.Data[i*w : (i+1)*w]
			rrow := r.Data[i*w : (i+1)*w]
			for _, j := range cols {
				zrow[j] = d * rrow[j]
			}
		}
	})
}

// PrecondBlockTo copies the selected columns (identity preconditioning).
func (IdentityPrec) PrecondBlockTo(z, r *mat.Dense, cols []int) { copyCols(z, r, cols) }

// colGroup is the number of columns one row-major pass of the per-column
// kernels (dots, norms, the block tree solve) carries. The active-column list
// is cut into groups of this width with parallel.For, so group boundaries
// depend only on the number of active columns, never on the worker count,
// and each column's reduction still runs over ascending rows on one
// goroutine. A fixed 8 keeps one group's values for a row within a cache
// line when the active columns are contiguous.
const colGroup = 8

// dotCols sets dst[j] = a[:,j]·b[:,j] for every j in cols. Each column
// accumulates over ascending rows exactly as mat.Dot does, so the result is
// bitwise equal to Dot of the extracted columns.
func dotCols(dst []float64, a, b *mat.Dense, cols []int) {
	w := a.Cols
	parallel.For(len(cols), colGroup, func(lo, hi int) {
		g := cols[lo:hi]
		var s [colGroup]float64
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*w : (i+1)*w]
			brow := b.Data[i*w : (i+1)*w]
			for c, j := range g {
				s[c] += arow[j] * brow[j]
			}
		}
		for c, j := range g {
			dst[j] = s[c]
		}
	})
}

// normCols sets dst[j] = ‖m[:,j]‖₂ for every j in cols with mat.Norm2's
// overflow-guarded scale/ssq recurrence, run per column over ascending rows,
// so the result is bitwise equal to Norm2 of the extracted column.
func normCols(dst []float64, m *mat.Dense, cols []int) {
	w := m.Cols
	parallel.For(len(cols), colGroup, func(lo, hi int) {
		g := cols[lo:hi]
		var scale, ssq [colGroup]float64
		for c := range g {
			ssq[c] = 1
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*w : (i+1)*w]
			for c, j := range g {
				x := row[j]
				if x == 0 {
					continue
				}
				ax := math.Abs(x)
				if scale[c] < ax {
					r := scale[c] / ax
					ssq[c] = 1 + ssq[c]*r*r
					scale[c] = ax
				} else {
					r := ax / scale[c]
					ssq[c] += r * r
				}
			}
		}
		for c, j := range g {
			dst[j] = scale[c] * math.Sqrt(ssq[c])
		}
	})
}

// copyCols copies the selected columns of src into dst (same shape) in one
// row pass.
func copyCols(dst, src *mat.Dense, cols []int) {
	if len(cols) == 0 {
		return
	}
	w := src.Cols
	parallel.For(src.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Data[i*w : (i+1)*w]
			srow := src.Data[i*w : (i+1)*w]
			for _, j := range cols {
				drow[j] = srow[j]
			}
		}
	})
}

// colStatus tracks one right-hand side through the blocked iteration.
type colStatus uint8

const (
	colActive colStatus = iota
	colDone
)

// PCGBlock solves A·X = B column by column with a shared preconditioner and
// SpMV fused across the active columns. Per column it returns exactly what
// PCG would: the same solution bits, iteration count, residual, and
// ErrNoConvergence behaviour (errs[j] is nil or ErrNoConvergence). Columns
// converge (or break down) independently; finished columns drop out of the
// fused kernels.
func PCGBlock(a BlockOp, m Preconditioner, b *mat.Dense, opts Options) (*mat.Dense, []Result, []error) {
	return PCGBlockGuess(a, m, b, nil, opts)
}

// PCGBlockGuess is PCGBlock with a per-column initial guess x0 (nil means the
// zero guess, bit-identical to PCGBlock). As in scalar PCG, convergence is
// still measured against ‖b_j‖ — a guess whose residual is already below
// Tol·‖b_j‖ converges in zero iterations, which is what makes warm-started
// correction solves (eig.GeneralizedTopKWarm) nearly free near a fixed point.
func PCGBlockGuess(a BlockOp, m Preconditioner, b, x0 *mat.Dense, opts Options) (*mat.Dense, []Result, []error) {
	n := a.Dim()
	if b.Rows != n {
		panic(fmt.Sprintf("solver: PCGBlock rhs rows %d, operator dim %d", b.Rows, n))
	}
	k := b.Cols
	if x0 != nil && (x0.Rows != n || x0.Cols != k) {
		panic(fmt.Sprintf("solver: PCGBlock guess %dx%d, want %dx%d", x0.Rows, x0.Cols, n, k))
	}
	opts = opts.withDefaults(n)
	// Same fault-injection point as the scalar path, so budget-capping tests
	// exercise the block solver identically.
	opts.MaxIter = faultinject.Int(faultinject.PointPCGMaxIter, opts.MaxIter)

	all := make([]int, k)
	for j := range all {
		all[j] = j
	}
	x := mat.NewDense(n, k)
	var r *mat.Dense
	if x0 == nil {
		r = b.Clone() // x₀ = 0 ⇒ r = b exactly
	} else {
		copy(x.Data, x0.Data)
		r = mat.NewDense(n, k)
		a.ApplyBlockTo(r, x, all)
		for i, bv := range b.Data {
			r.Data[i] = bv - r.Data[i]
		}
	}
	z := mat.NewDense(n, k)
	p := mat.NewDense(n, k)
	ap := mat.NewDense(n, k)
	best := x.Clone() // best = x₀, as in PCG

	results := make([]Result, k)
	errs := make([]error, k)
	status := make([]colStatus, k)
	bnorm := make([]float64, k)
	rz := make([]float64, k)
	bestRes := make([]float64, k)
	resNow := make([]float64, k)
	pap := make([]float64, k)
	alpha := make([]float64, k)
	beta := make([]float64, k)

	normCols(bnorm, b, all)
	act := make([]int, 0, k)
	moved := make([]int, 0, k) // columns copied between x and best this step
	for j := 0; j < k; j++ {
		if bnorm[j] == 0 {
			status[j] = colDone
			results[j] = Result{Iterations: 0, Residual: 0}
			continue
		}
		act = append(act, j)
	}
	if len(act) > 0 {
		m.PrecondBlockTo(z, r, act)
		copyCols(p, z, act) // p = z
		dotCols(rz, r, z, act)
		normCols(bestRes, r, act)
		for _, j := range act {
			bestRes[j] /= bnorm[j]
		}
	}

	compact := func() {
		out := act[:0]
		for _, j := range act {
			if status[j] == colActive {
				out = append(out, j)
			}
		}
		act = out
	}

	var it int
	for it = 0; it < opts.MaxIter && len(act) > 0; it++ {
		// Residual check (top of the scalar loop).
		normCols(resNow, r, act)
		changed := false
		moved = moved[:0]
		for _, j := range act {
			res := resNow[j] / bnorm[j]
			if res < bestRes[j] {
				bestRes[j] = res
				moved = append(moved, j)
			}
			if res <= opts.Tol {
				// Converged: scalar PCG returns the current iterate x.
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: res}
				changed = true
			}
		}
		copyCols(best, x, moved)
		if changed {
			compact()
			if len(act) == 0 {
				break
			}
		}

		// ap = A·p, fused across the active columns.
		a.ApplyBlockTo(ap, p, act)
		dotCols(pap, p, ap, act)
		changed = false
		moved = moved[:0]
		for _, j := range act {
			if pap[j] <= 0 || math.IsNaN(pap[j]) {
				// Breakdown: scalar PCG returns the best iterate so far.
				moved = append(moved, j)
				status[j] = colDone
				results[j] = Result{Iterations: it, Residual: bestRes[j]}
				errs[j] = ErrNoConvergence
				changed = true
				continue
			}
			alpha[j] = rz[j] / pap[j]
		}
		copyCols(x, best, moved)
		if changed {
			compact()
			if len(act) == 0 {
				break
			}
		}

		// x += α·p, r −= α·ap: one fused row pass (per-row private writes).
		parallel.For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				xrow := x.Data[i*k : (i+1)*k]
				rrow := r.Data[i*k : (i+1)*k]
				prow := p.Data[i*k : (i+1)*k]
				aprow := ap.Data[i*k : (i+1)*k]
				for _, j := range act {
					xrow[j] += alpha[j] * prow[j]
					rrow[j] -= alpha[j] * aprow[j]
				}
			}
		})

		m.PrecondBlockTo(z, r, act)
		dotCols(beta, r, z, act) // rzNew, turned into β below
		for _, j := range act {
			rzNew := beta[j]
			beta[j] = rzNew / rz[j]
			rz[j] = rzNew
		}
		// p = z + β·p, fused.
		parallel.For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				prow := p.Data[i*k : (i+1)*k]
				zrow := z.Data[i*k : (i+1)*k]
				for _, j := range act {
					prow[j] = zrow[j] + beta[j]*prow[j]
				}
			}
		})
	}

	// Budget exhausted: final residual check, return the best iterate — x
	// itself where it improved on best, else best.
	normCols(resNow, r, act)
	moved = moved[:0]
	for _, j := range act {
		if res := resNow[j] / bnorm[j]; res < bestRes[j] {
			bestRes[j] = res
		} else {
			moved = append(moved, j)
		}
		results[j] = Result{Iterations: opts.MaxIter, Residual: bestRes[j]}
		if bestRes[j] > opts.Tol {
			errs[j] = ErrNoConvergence
		}
	}
	copyCols(x, best, moved)
	return x, results, errs
}

// maxBlockCols caps the width of one PCGBlock tile inside SolveBlock. Up to
// nine n×w blocks live at once: the rhs tile and the guess tile, PCGBlock's
// x, r, z, p, Ap and best, and the flow scratch one TreePrec.PrecondBlockTo
// call allocates (n×colGroup per column group; the per-component sums add
// nc×w). That is 72 bytes per node and column, about 0.46 GB for a 64-wide
// tile on a 10⁵-node graph, so an unbounded width (hundreds of sketch RHS)
// would allocate gigabytes. Tiles are solved independently, so tiling never
// changes any bit.
const maxBlockCols = 64

// SolveBlock computes L⁺ applied to every column of b (n×k) with the blocked
// PCG, sharing the preconditioner and fusing the SpMV across columns. Each
// column's solution is bit-identical to Solve on that column, for any worker
// count. The returned error is the first per-column error in column order
// (matching the historical SolveMany contract).
func (s *Laplacian) SolveBlock(b *mat.Dense) (*mat.Dense, error) {
	return s.SolveBlockGuess(b, nil)
}

// SolveBlockGuess is SolveBlock with a per-column initial guess x0 (nil means
// the zero guess, bit-identical to SolveBlock). Guess columns are projected
// into the solution subspace before the iteration, so any iterate — including
// a rough warm start — is a valid starting point.
func (s *Laplacian) SolveBlockGuess(b, x0 *mat.Dense) (*mat.Dense, error) {
	if b.Rows != s.L.Rows {
		panic(fmt.Sprintf("solver: SolveBlock rows %d vs dim %d", b.Rows, s.L.Rows))
	}
	k := b.Cols
	if x0 != nil && (x0.Rows != b.Rows || x0.Cols != k) {
		panic(fmt.Sprintf("solver: SolveBlockGuess guess %dx%d, want %dx%d", x0.Rows, x0.Cols, b.Rows, k))
	}
	out := mat.NewDense(b.Rows, k)
	blockSolves.Inc()
	blockRHS.Observe(float64(k))
	var firstErr error
	for lo := 0; lo < k; lo += maxBlockCols {
		hi := lo + maxBlockCols
		if hi > k {
			hi = k
		}
		tile := extractCols(b, lo, hi)
		for j := 0; j < tile.Cols; j++ {
			s.projectCol(tile, j)
		}
		var guess *mat.Dense
		if x0 != nil {
			guess = extractCols(x0, lo, hi)
			for j := 0; j < guess.Cols; j++ {
				s.projectCol(guess, j)
			}
		}
		x, results, errs := PCGBlockGuess(AsOp(s.L), s.prec, tile, guess, s.opts)
		for j := 0; j < tile.Cols; j++ {
			lapSolves.Inc()
			pcgIterations.Observe(float64(results[j].Iterations))
			pcgResidual.Observe(results[j].Residual)
			if errs[j] != nil {
				lapNoConvergence.Inc()
				if firstErr == nil {
					firstErr = errs[j]
				}
			} else {
				// Solve projects only converged solutions; errored columns
				// return the raw best iterate, and so does the block path.
				s.projectCol(x, j)
			}
		}
		// Copy the tile's solutions into the output block.
		w := hi - lo
		for i := 0; i < b.Rows; i++ {
			copy(out.Data[i*k+lo:i*k+hi], x.Data[i*w:(i+1)*w])
		}
	}
	return out, firstErr
}

// extractCols copies columns [lo,hi) of m into a new contiguous block.
func extractCols(m *mat.Dense, lo, hi int) *mat.Dense {
	w := hi - lo
	out := mat.NewDense(m.Rows, w)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*w:(i+1)*w], m.Data[i*m.Cols+lo:i*m.Cols+hi])
	}
	return out
}

// projectCol removes the per-component mean of column j of m in place —
// project on a strided column, with the identical accumulation order
// (ascending row index), so the result matches the vector path bitwise.
func (s *Laplacian) projectCol(m *mat.Dense, j int) {
	nc := len(s.sizes)
	sums := make([]float64, nc)
	w := m.Cols
	for i := 0; i < m.Rows; i++ {
		sums[s.comp[i]] += m.Data[i*w+j]
	}
	for c := range sums {
		sums[c] /= float64(s.sizes[c])
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*w+j] -= sums[s.comp[i]]
	}
}
