package core

import (
	"fmt"
	"math"

	"cirstag/internal/cache"
	"cirstag/internal/effres"
	"cirstag/internal/graph"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/solver"
)

// DMDCalculator evaluates pairwise distance-mapping distortions (paper
// eq. 1) between the input and output manifolds using effective-resistance
// distances: δ(p,q) = d_Y(p,q) / d_X(p,q).
//
// Two query engines are available. The exact engine runs one Laplacian solve
// per distance (two per DMD query). The approximate engine (DMDOptions.Approx)
// answers from per-manifold Spielman–Srivastava JL sketches in O(q) dot
// products per distance, falling back to the exact engine — counted by
// core.dmd.exact_fallbacks — whenever a sketched distance is too small for
// its (1±ε) relative guarantee to certify the ratio.
type DMDCalculator struct {
	sx, sy *solver.Laplacian

	// Approximate engine (nil when disabled).
	skx, sky       *effres.Sketch
	floorX, floorY float64 // per-manifold reliability floors for sketched distances
}

// DMDOptions configures the approximate query engine of a DMDCalculator.
// The zero value selects the exact engine.
type DMDOptions struct {
	// Approx enables sketch-backed queries.
	Approx bool
	// Eps is the target relative error of sketched resistances; the sketch
	// width becomes effres.SketchQ(n, Eps). Default 0.5.
	Eps float64
	// Seed drives the sketch projections. Equal seeds give bit-identical
	// sketches (and therefore bit-identical query answers).
	Seed int64
	// Cache, when non-nil, persists each manifold's sketch content-addressed
	// by (manifold bytes, q, seed, solver options), so warm runs skip the q
	// Laplacian solves of the sketch build.
	Cache *cache.Store
	// Solver tunes the Laplacian solves inside sketch builds. The zero value
	// selects a loose 1e-4 tolerance with the spanning-tree preconditioner —
	// the right pairing for the 1/d²-weighted kNN manifolds a CirSTAG Result
	// carries, where JL projection error (Eps) dominates long before solver
	// error does. For expander-like graphs (e.g. raw circuit pin graphs) set
	// Solver explicitly: plain Jacobi converges far faster there, as tree
	// stretch grows with expansion.
	Solver solver.Options
}

func (o DMDOptions) withDefaults() DMDOptions {
	if o.Eps <= 0 || o.Eps >= 1 {
		o.Eps = 0.5
	}
	if o.Solver == (solver.Options{}) {
		o.Solver = solver.Options{Tol: 1e-4, Precond: solver.PrecondTree}
	}
	return o
}

// NewDMDCalculatorFromGraphs builds an exact calculator from explicit
// manifolds.
func NewDMDCalculatorFromGraphs(gx, gy *graph.Graph) *DMDCalculator {
	return NewDMDCalculatorOpts(gx, gy, DMDOptions{})
}

// RNG streams of the two sketch builds. Streams 0–4 belong to the core.Run
// pipeline; the DMD calculator forks its own streams from DMDOptions.Seed so
// an approximate calculator never perturbs (or depends on) pipeline RNG state.
const (
	streamSketchX = 8
	streamSketchY = 9
)

// kindDMDSketch is the artifact-cache kind of persisted resistance sketches.
const kindDMDSketch = "core.dmd.sketch"

// NewDMDCalculatorOpts builds a calculator from explicit manifolds with the
// given query-engine options.
func NewDMDCalculatorOpts(gx, gy *graph.Graph, opts DMDOptions) *DMDCalculator {
	if gx.N() != gy.N() {
		panic(fmt.Sprintf("core: manifold sizes differ: %d vs %d", gx.N(), gy.N()))
	}
	d := &DMDCalculator{
		sx: solver.NewLaplacian(gx, solver.Options{}),
		sy: solver.NewLaplacian(gy, solver.Options{}),
	}
	if !opts.Approx {
		return d
	}
	opts = opts.withDefaults()
	q := effres.SketchQ(gx.N(), opts.Eps)
	d.skx = loadOrBuildSketch(gx, q, opts, streamSketchX)
	d.sky = loadOrBuildSketch(gy, q, opts, streamSketchY)
	d.floorX = sketchFloor(d.skx, gx)
	d.floorY = sketchFloor(d.sky, gy)
	return d
}

// loadOrBuildSketch returns the manifold's resistance sketch, served from the
// artifact cache when possible. The key covers everything that determines
// Z's bytes — manifold content, width q, seed+stream, and the inner-solver
// options — so a hit is always bit-exact to a rebuild.
func loadOrBuildSketch(g *graph.Graph, q int, opts DMDOptions, stream uint64) *effres.Sketch {
	key := cache.NewKey(kindDMDSketch).Graph(g).Int(int64(q)).Int(opts.Seed).Int(int64(stream)).
		Float(opts.Solver.Tol).Int(int64(opts.Solver.MaxIter)).Int(int64(opts.Solver.Precond)).Sum()
	if z, ok := opts.Cache.GetDense(kindDMDSketch, key); ok {
		return &effres.Sketch{Z: z}
	}
	sk := effres.NewSketch(g, q, parallel.NewRNG(opts.Seed, stream), opts.Solver)
	opts.Cache.PutDense(kindDMDSketch, key, sk.Z)
	return sk
}

// sketchFloor derives the smallest sketched distance the calculator trusts
// on a manifold: 10⁻⁶ × the mean sketched edge resistance (sampled
// deterministically). Below it, the true distance is at or below the inner
// solver's noise floor, where the (1±ε) relative guarantee — and the DMD
// ratio built on it — can no longer be certified, so queries fall back to
// the exact engine.
func sketchFloor(sk *effres.Sketch, g *graph.Graph) float64 {
	edges := g.Edges()
	m := len(edges)
	if m == 0 {
		return 0
	}
	step := m / 512
	if step < 1 {
		step = 1
	}
	var sum float64
	var cnt int
	for i := 0; i < m; i += step {
		sum += sk.Resistance(edges[i].U, edges[i].V)
		cnt++
	}
	return 1e-6 * sum / float64(cnt)
}

// MaxDMD caps the distortion DMD reports when the input distance vanishes
// (or underflows) while the output distance does not — mathematically an
// infinite distortion. The cap keeps every δ finite so downstream score
// aggregation, ranking, and JSON serialization never see ±Inf; 1e12 is far
// above any distortion a connected manifold pair produces (observed values
// are O(1)–O(10³)), so capped pairs still rank strictly first.
const MaxDMD = 1e12

// dmdClamped counts DMD evaluations that hit MaxDMD — typically duplicate
// embedding rows collapsing an input distance to zero. sketch_hits and
// exact_fallbacks split approximate-engine queries by how they were
// answered; a high fallback share means the sketch floor is doing real work
// (degenerate pairs) or eps is too loose for the manifold's scale.
var (
	dmdClamped        = obs.NewCounter("core.dmd.clamped")
	dmdSketchHits     = obs.NewCounter("core.dmd.sketch_hits")
	dmdExactFallbacks = obs.NewCounter("core.dmd.exact_fallbacks")
)

// Approx reports whether the calculator answers queries from sketches.
func (d *DMDCalculator) Approx() bool { return d.skx != nil }

// sketchReliable reports whether a pair of sketched distances can back a DMD
// answer: both finite, both above their manifold's floor, and the implied
// ratio far from the MaxDMD clamp (clamp decisions are always made on exact
// distances).
func (d *DMDCalculator) sketchReliable(dx, dy float64) bool {
	if math.IsNaN(dx) || math.IsInf(dx, 0) || math.IsNaN(dy) || math.IsInf(dy, 0) {
		return false
	}
	if dx < d.floorX || dy < d.floorY {
		return false
	}
	return dy <= 0.5*MaxDMD*dx
}

// distances answers (d_X, d_Y) for a pair through the sketch-or-exact
// dispatch shared by DMD, InputDistance, and OutputDistance.
func (d *DMDCalculator) distances(p, q int) (dx, dy float64) {
	if d.skx != nil {
		dx, dy = d.skx.Resistance(p, q), d.sky.Resistance(p, q)
		if d.sketchReliable(dx, dy) {
			dmdSketchHits.Inc()
			return dx, dy
		}
		dmdExactFallbacks.Inc()
	}
	return effres.Exact(d.sx, p, q), effres.Exact(d.sy, p, q)
}

// sideDistance is the single-manifold arm of the dispatch: the sketched
// value when it clears the manifold's floor, the exact solve otherwise.
func sideDistance(sk *effres.Sketch, floor float64, s *solver.Laplacian, p, q int) float64 {
	if sk != nil {
		if r := sk.Resistance(p, q); r >= floor && !math.IsNaN(r) && !math.IsInf(r, 0) {
			dmdSketchHits.Inc()
			return r
		}
		dmdExactFallbacks.Inc()
	}
	return effres.Exact(s, p, q)
}

// DMD returns δ(p,q) = Reff_Y(p,q) / Reff_X(p,q). It returns 0 when p == q
// and clamps to MaxDMD (never ±Inf or NaN) when the input distance vanishes
// while the output distance does not.
func (d *DMDCalculator) DMD(p, q int) float64 {
	if p == q {
		return 0
	}
	dx, dy := d.distances(p, q)
	if dx == 0 {
		if dy == 0 {
			return 0
		}
		dmdClamped.Inc()
		return MaxDMD
	}
	if r := dy / dx; r <= MaxDMD {
		return r
	}
	dmdClamped.Inc()
	return MaxDMD
}

// InputDistance returns the effective-resistance distance on G_X, through
// the same sketch-or-exact dispatch as DMD.
func (d *DMDCalculator) InputDistance(p, q int) float64 {
	if p == q {
		return 0
	}
	return sideDistance(d.skx, d.floorX, d.sx, p, q)
}

// OutputDistance returns the effective-resistance distance on G_Y, through
// the same sketch-or-exact dispatch as DMD.
func (d *DMDCalculator) OutputDistance(p, q int) float64 {
	if p == q {
		return 0
	}
	return sideDistance(d.sky, d.floorY, d.sy, p, q)
}
