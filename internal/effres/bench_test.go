package effres

import (
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/knn"
	"cirstag/internal/mat"
	"cirstag/internal/solver"
)

// BenchmarkEffresSketch measures the blocked JL-sketch build — q Laplacian
// solves through SolveBlock — on a mid-sized random graph, plus the per-pair
// query cost it buys. Gated by the CI bench-regression job. The ranking
// sub-benchmark is informational (not in the committed baseline).
func BenchmarkEffresSketch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	g := randomConnectedGraph(rng, n, 3*n)
	eps := 0.5
	q := SketchQ(n, eps)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewSketch(g, q, rand.New(rand.NewSource(7)), solver.Options{Tol: 1e-4})
		}
		b.ReportMetric(float64(q), "sketch_rows")
	})
	b.Run("query", func(b *testing.B) {
		sk := NewSketch(g, q, rand.New(rand.NewSource(7)), solver.Options{Tol: 1e-4})
		// One op answers a fixed batch: a single O(q) query is microseconds,
		// far below scheduler noise at the CI job's -benchtime=1x, and this
		// sub-benchmark is regression-gated.
		prs := rand.New(rand.NewSource(9))
		const batch = 32768
		pairs := make([][2]int, batch)
		for i := range pairs {
			pairs[i] = [2]int{prs.Intn(n), prs.Intn(n)}
		}
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, pq := range pairs {
				sink += sk.Resistance(pq[0], pq[1])
			}
		}
		_ = sink
		b.ReportMetric(batch, "pairs_per_op")
	})
	// The production shape of the sketch: sparsify's edge-ranking sketch on
	// a 1/d²-weighted kNN manifold just above its 8,192-node threshold —
	// 48 rows, spanning-tree preconditioner, tol 1e-4, 150-iteration cap.
	b.Run("ranking", func(b *testing.B) {
		const n, dim, q = 8200, 16, 48
		pts := mat.NewDense(n, dim)
		prs := rand.New(rand.NewSource(11))
		for i := range pts.Data {
			pts.Data[i] = prs.Float64()
		}
		kg := knn.BuildGraph(pts, 10)
		g := graph.New(n)
		for _, e := range kg.Edges {
			g.AddEdge(e.U, e.V, e.W)
		}
		opts := solver.Options{Tol: 1e-4, MaxIter: 150, Precond: solver.PrecondTree}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewSketch(g, q, rand.New(rand.NewSource(7)), opts)
		}
		b.ReportMetric(q, "sketch_rows")
	})
}
