package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

func randPoints(rng *rand.Rand, n, d int) *mat.Dense {
	pts := mat.NewDense(n, d)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	return pts
}

// anisotropicPoints draws n 37-dim points whose 16 leading axes have scale
// 0.01 and whose 21 trailing axes have scale 1, the axis-scale split of the
// feature-augmented input embedding.
func anisotropicPoints(rng *rand.Rand, n int) *mat.Dense {
	pts := mat.NewDense(n, 37)
	for i := 0; i < n; i++ {
		for a := 0; a < 37; a++ {
			s := 1.0
			if a < 16 {
				s = 0.01
			}
			pts.Set(i, a, s*rng.NormFloat64())
		}
	}
	return pts
}

// augmentedPoints draws n points shaped like embed.FeatureAugmented output:
// 16 spectral-like axes N(0, 0.01²) beside 21 feature axes that are a fixed
// random linear map of a 3-dim Gaussian latent plus N(0, 0.01²) noise.
func augmentedPoints(rng *rand.Rand, n int) *mat.Dense {
	const spectral, features, latent = 16, 21, 3
	var proj [features][latent]float64
	for f := range proj {
		for l := range proj[f] {
			proj[f][l] = rng.NormFloat64()
		}
	}
	pts := mat.NewDense(n, spectral+features)
	for i := 0; i < n; i++ {
		row := pts.Row(i)
		for a := 0; a < spectral; a++ {
			row[a] = 0.01 * rng.NormFloat64()
		}
		var z [latent]float64
		for l := range z {
			z[l] = rng.NormFloat64()
		}
		for f := range proj {
			v := 0.01 * rng.NormFloat64()
			for l, w := range proj[f] {
				v += w * z[l]
			}
			row[spectral+f] = v
		}
	}
	return pts
}

// gridPoints draws n points with integer coordinates in [0, side) on dims
// axes: with n well above side^dims most points have exact duplicates, so
// most queries tie at the k-th distance.
func gridPoints(rng *rand.Rand, n, dims, side int) *mat.Dense {
	pts := mat.NewDense(n, dims)
	for i := range pts.Data {
		pts.Data[i] = float64(rng.Intn(side))
	}
	return pts
}

// oracle is the exact answer to tree.Query(pts.Row(i), k, skip) for skip ∈
// {i, −1}: BruteForce, plus row i itself at d² = 0 when it is not skipped
// (where it competes by id with its exact duplicates).
func oracle(pts *mat.Dense, i, k, skip int) []Neighbor {
	if skip == i {
		return BruteForce(pts, i, k)
	}
	all := BruteForce(pts, i, pts.Rows)
	self := Neighbor{ID: i}
	pos := sort.Search(len(all), func(j int) bool { return all[j].after(self) })
	all = append(all[:pos], append([]Neighbor{self}, all[pos:]...)...)
	return all[:min(k, len(all))]
}

// TestQueryMatchesBruteForce requires Query to return exactly the (d², id)
// order of the exhaustive oracle, ids and distance bits alike, on inputs
// where pruning depends on axis scaling and where ties at the k-th distance
// are the rule rather than the exception.
func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	cases := []struct {
		name string
		pts  *mat.Dense
	}{
		{"gauss-1d", randPoints(rng, 200, 1)},
		{"gauss-2d", randPoints(rng, 200, 2)},
		{"gauss-3d", randPoints(rng, 200, 3)},
		{"gauss-8d", randPoints(rng, 200, 8)},
		{"anisotropic-37d", anisotropicPoints(rng, 400)},
		{"augmented-37d", augmentedPoints(rng, 400)},
		{"grid-duplicates-3d", gridPoints(rng, 300, 3, 4)},
		{"grid-duplicates-2d", gridPoints(rng, 300, 2, 5)},
		{"grid-duplicates-6d", gridPoints(rng, 400, 6, 2)},
	}
	for _, c := range cases {
		tree := NewKDTree(c.pts)
		for trial := 0; trial < 25; trial++ {
			i := rng.Intn(c.pts.Rows)
			for _, k := range []int{1, 10, 1 + rng.Intn(10)} {
				for _, skip := range []int{i, -1} {
					got := tree.Query(c.pts.Row(i), k, skip)
					want := oracle(c.pts, i, k, skip)
					if len(got) != len(want) {
						t.Fatalf("%s i=%d k=%d skip=%d: got %d neighbors, want %d", c.name, i, k, skip, len(got), len(want))
					}
					for j := range got {
						if got[j].ID != want[j].ID || math.Float64bits(got[j].Dist2) != math.Float64bits(want[j].Dist2) {
							t.Fatalf("%s i=%d k=%d skip=%d neighbor %d: got %+v, want %+v", c.name, i, k, skip, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestQueryFanoutAugmented is the kd-tree's algorithm-health check: on
// 4,000 points shaped like the feature-augmented input embedding, a query
// must examine at most a fifth of the points on average. A tree that cuts
// only the low-variance spectral axes examines all of them.
func TestQueryFanoutAugmented(t *testing.T) {
	const n, k = 4000, 10
	pts := augmentedPoints(rand.New(rand.NewSource(79)), n)
	tree := NewKDTree(pts)
	var examined int
	for i := 0; i < n; i++ {
		_, visited := tree.query(pts.Row(i), k, i)
		examined += visited
	}
	per := float64(examined) / n
	if per > 0.2*n {
		t.Fatalf("mean fanout %.0f of n=%d points (%.3f·n), bound 0.2·n", per, n, per/n)
	}
	t.Logf("mean fanout %.0f of n=%d points (%.3f·n)", per, n, per/n)
}

func TestQuerySortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randPoints(rng, 100, 4)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 10, 0)
	for i := 1; i < len(res); i++ {
		if res[i].Dist2 < res[i-1].Dist2 {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestQuerySkipExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := randPoints(rng, 50, 3)
	tree := NewKDTree(pts)
	for _, nb := range tree.Query(pts.Row(7), 5, 7) {
		if nb.ID == 7 {
			t.Fatal("skip index returned")
		}
	}
	// Without skip, the query point itself is the nearest (distance 0).
	res := tree.Query(pts.Row(7), 1, -1)
	if res[0].ID != 7 || res[0].Dist2 != 0 {
		t.Fatal("self should be nearest without skip")
	}
}

func TestQueryDuplicatePoints(t *testing.T) {
	// All points identical: distances are all zero, no crash.
	pts := mat.NewDense(10, 2)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 3, 0)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, nb := range res {
		if nb.Dist2 != 0 {
			t.Fatal("duplicate points should have distance 0")
		}
	}
}

func TestQueryKLargerThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := randPoints(rng, 5, 2)
	tree := NewKDTree(pts)
	res := tree.Query(pts.Row(0), 100, 0)
	if len(res) != 4 {
		t.Fatalf("expected 4 neighbors, got %d", len(res))
	}
}

func TestBuildGraphBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := randPoints(rng, 120, 5)
	k := 6
	g := BuildGraph(pts, k)
	if g.N != 120 {
		t.Fatal("node count wrong")
	}
	// Every node has degree >= k (its own k neighbors, possibly more from
	// reverse edges).
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		if e.U >= e.V {
			t.Fatal("edge not canonical U < V")
		}
		deg[e.U]++
		deg[e.V]++
		if e.W <= 0 {
			t.Fatal("non-positive weight")
		}
		// w = 1/d² convention, with d² taken from the points.
		var d2 float64
		for c, x := range pts.Row(e.U) {
			d := x - pts.At(e.V, c)
			d2 += d * d
		}
		want := 1 / math.Max(d2, 1e-12)
		if math.Abs(e.W-want) > 1e-9*want {
			t.Fatal("weight does not follow 1/d²")
		}
	}
	for i, d := range deg {
		if d < k {
			t.Fatalf("node %d degree %d < k=%d", i, d, k)
		}
	}
	// No duplicate edges.
	seen := map[[2]int]bool{}
	for _, e := range g.Edges {
		key := [2]int{e.U, e.V}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
	}
}

func TestBuildGraphDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := randPoints(rng, 60, 3)
	g1 := BuildGraph(pts, 4)
	g2 := BuildGraph(pts, 4)
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("edge counts differ")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("graphs differ between runs")
		}
	}
}

func TestBuildGraphConnectsClusters(t *testing.T) {
	// Two well-separated clusters of 20 points each, k=25 forces bridges so
	// the graph must be connected; with k=3 it must split into 2 components.
	rng := rand.New(rand.NewSource(76))
	pts := mat.NewDense(40, 2)
	for i := 0; i < 20; i++ {
		pts.Set(i, 0, rng.NormFloat64()*0.1)
		pts.Set(i, 1, rng.NormFloat64()*0.1)
		pts.Set(20+i, 0, 100+rng.NormFloat64()*0.1)
		pts.Set(20+i, 1, rng.NormFloat64()*0.1)
	}
	toGraph := func(kg *Graph) *graph.Graph {
		g := graph.New(kg.N)
		for _, e := range kg.Edges {
			g.AddEdge(e.U, e.V, e.W)
		}
		return g
	}
	gSmall := toGraph(BuildGraph(pts, 3))
	if _, c := gSmall.ConnectedComponents(); c != 2 {
		t.Fatalf("k=3 should give 2 components, got %d", c)
	}
	gBig := toGraph(BuildGraph(pts, 25))
	if !gBig.IsConnected() {
		t.Fatal("k=25 should connect the clusters")
	}
}

func TestBuildGraphKClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pts := randPoints(rng, 5, 2)
	g := BuildGraph(pts, 50) // clamps to n-1=4: complete graph
	if len(g.Edges) != 10 {
		t.Fatalf("expected complete graph with 10 edges, got %d", len(g.Edges))
	}
}
