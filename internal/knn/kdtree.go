// Package knn builds k-nearest-neighbor graphs over embeddings, the first
// step of CirSTAG's Phase-2 manifold construction.
//
// Neighbor search uses an exact k-d tree that adapts to the axis scales of
// its input. Every node splits at the median of the axis on which its points
// spread widest, so the feature-augmented input embedding (16 spectral axes
// of scale ~0.01 beside 21 standardized feature axes) is cut along the axes
// that dominate its distances. A far subtree is skipped only when a rigorous
// floating-point lower bound of every squared distance in its cell exceeds
// the current k-th, and ties are broken by point id, so a query returns the
// (d², id)-smallest k exactly, whatever the tree shape or visit order.
// Measured fanout (points examined per query, k = 10): 0.43·n on the
// input embedding of the 8.7k-pin large_core design and 0.29·n at 40.8k
// pins, 0.13·n on large_core's 16-dim GCN output. A tree that cycled its
// split axis with depth examined 0.99·n of the input embedding at both sizes.
package knn

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
)

// Search-structure metrics: knn.tree_depth is the depth of the deepest leaf
// bucket of the most recently built tree (≈ log₂(n/leafSize) since splits
// are balanced); knn.query_fanout is the distribution of points actually
// examined per query — the pruning effectiveness signal (n per query means
// the tree degenerated to a scan).
var (
	treeDepthGauge = obs.NewGauge("knn.tree_depth")
	treesBuilt     = obs.NewCounter("knn.trees_built")
	queriesRun     = obs.NewCounter("knn.queries")
	queryFanout    = obs.NewHistogram("knn.query_fanout", obs.ExpBuckets(8, 2, 14)...)
)

// leafSize is the most points a leaf bucket holds; larger ranges split.
const leafSize = 8

// KDTree is a static k-d tree over the rows of a point matrix. The tree is
// implicit: a node owns a range [lo, hi) of tree rows, its median sits at
// mid = (lo+hi)/2 with the lower half in [lo, mid) and the upper half in
// (mid, hi), and ranges of at most leafSize rows are leaves.
type KDTree struct {
	pts   []float64 // point rows copied into tree order, dims values each
	ids   []int     // ids[j] is the input row index of tree row j
	axis  []int     // axis[mid] is the split axis of the node whose median is tree row mid
	dims  int
	depth int
}

// NewKDTree builds a k-d tree over the rows of pts.
func NewKDTree(pts *mat.Dense) *KDTree {
	n, d := pts.Rows, pts.Cols
	t := &KDTree{ids: make([]int, n), axis: make([]int, n), dims: d}
	for i := range t.ids {
		t.ids[i] = i
	}
	t.build(pts, 0, n, 0)
	t.pts = make([]float64, n*d)
	for j, id := range t.ids {
		copy(t.pts[j*d:(j+1)*d], pts.Row(id))
	}
	treesBuilt.Inc()
	treeDepthGauge.Set(float64(t.depth))
	return t
}

func (t *KDTree) build(pts *mat.Dense, lo, hi, depth int) {
	if hi-lo <= leafSize {
		t.depth = max(t.depth, depth)
		return
	}
	axis := spreadAxis(pts, t.ids[lo:hi])
	mid := (lo + hi) / 2
	t.nthElement(pts, lo, hi, mid, axis)
	t.axis[mid] = axis
	t.build(pts, lo, mid, depth+1)
	t.build(pts, mid+1, hi, depth+1)
}

// spreadAxis returns the axis on which the rows ids of pts spread widest
// (largest max − min), the lowest such axis on a tie.
func spreadAxis(pts *mat.Dense, ids []int) int {
	best, bestSpread := 0, -1.0
	for a := 0; a < pts.Cols; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, id := range ids {
			x := pts.Data[id*pts.Cols+a]
			lo = min(lo, x)
			hi = max(hi, x)
		}
		if hi-lo > bestSpread {
			best, bestSpread = a, hi-lo
		}
	}
	return best
}

// nthElement partially sorts ids[lo:hi] so that ids[n] holds the element of
// rank n−lo by the given axis (quickselect with median-of-three pivots).
// Ranges of size <= 2 are finished by direct sort — the base case that keeps
// duplicate-heavy inputs (all-identical points from degenerate embeddings of
// tiny circuits) out of the quickselect loop — and any partition step that
// fails to shrink the active range falls back to a full sort of what remains,
// bounding the worst case at O(m log m) instead of quadratic.
func (t *KDTree) nthElement(pts *mat.Dense, lo, hi, n, axis int) {
	idx := t.ids
	coord := func(i int) float64 { return pts.Data[idx[i]*pts.Cols+axis] }
	for hi-lo > 2 {
		prevLo, prevHi := lo, hi
		// Median-of-three pivot.
		m := (lo + hi) / 2
		if coord(m) < coord(lo) {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if coord(hi-1) < coord(lo) {
			idx[hi-1], idx[lo] = idx[lo], idx[hi-1]
		}
		if coord(hi-1) < coord(m) {
			idx[hi-1], idx[m] = idx[m], idx[hi-1]
		}
		pivot := coord(m)
		i, j := lo, hi-1
		for i <= j {
			for coord(i) < pivot {
				i++
			}
			for coord(j) > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j + 1
		} else if n >= i {
			lo = i
		} else {
			return
		}
		if lo == prevLo && hi == prevHi {
			// No progress (possible only on duplicate-saturated ranges):
			// finish by sorting instead of spinning.
			break
		}
	}
	// Base case (hi-lo <= 2) or stalled partition: direct sort.
	sub := idx[lo:hi]
	sort.Slice(sub, func(a, b int) bool {
		return pts.Data[sub[a]*pts.Cols+axis] < pts.Data[sub[b]*pts.Cols+axis]
	})
}

// Neighbor is a kNN query result: a point index and its squared distance.
type Neighbor struct {
	ID    int
	Dist2 float64
}

// after reports whether a sorts after b in the canonical (Dist2, ID) order.
func (a Neighbor) after(b Neighbor) bool {
	return a.Dist2 > b.Dist2 || (a.Dist2 == b.Dist2 && a.ID > b.ID)
}

// maxHeap keeps the (Dist2, ID)-largest neighbor on top.
type maxHeap []Neighbor

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].after(h[j]) }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Query returns the k nearest neighbors of the query point q (excluding any
// point at index skip; pass -1 to keep all), sorted by ascending (d², id).
// The result is the (d², id)-smallest k of the point set exactly, with d²
// summed over axes in ascending order, so it does not depend on the tree.
func (t *KDTree) Query(q mat.Vec, k, skip int) []Neighbor {
	out, _ := t.query(q, k, skip)
	return out
}

// query is Query that also returns the number of points examined.
func (t *KDTree) query(q mat.Vec, k, skip int) ([]Neighbor, int) {
	if len(q) != t.dims {
		panic(fmt.Sprintf("knn: query dim %d, tree dim %d", len(q), t.dims))
	}
	k = min(max(k, 0), len(t.ids))
	s := searcher{t: t, q: q, k: k, skip: skip, heap: make(maxHeap, 0, k), off: make([]float64, t.dims)}
	if k > 0 {
		s.search(0, len(t.ids))
	}
	queriesRun.Inc()
	queryFanout.Observe(float64(s.visited))
	out := make([]Neighbor, len(s.heap))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&s.heap).(Neighbor)
	}
	return out, s.visited
}

// searcher is the state of one query: a max-heap of the best k so far in
// (Dist2, ID) order, and off[a], the distance along axis a from q to the
// cell being searched (0 where q lies within the cell's extent).
type searcher struct {
	t       *KDTree
	q       mat.Vec
	k, skip int
	heap    maxHeap
	off     []float64
	visited int
}

func (s *searcher) search(lo, hi int) {
	t := s.t
	if hi-lo <= leafSize {
		for j := lo; j < hi; j++ {
			s.consider(j)
		}
		return
	}
	mid := (lo + hi) / 2
	axis := t.axis[mid]
	s.consider(mid)
	diff := s.q[axis] - t.pts[mid*t.dims+axis]
	nearLo, nearHi, farLo, farHi := lo, mid, mid+1, hi
	if diff >= 0 {
		nearLo, nearHi, farLo, farHi = mid+1, hi, lo, mid
	}
	s.search(nearLo, nearHi)
	// Every far-side point p has p[axis] on the far side of the median, so
	// |q[axis] − p[axis]| ≥ |diff| in floating point too (rounding is
	// monotone). The far cell is skipped only when its bound strictly exceeds
	// the k-th d²: a point at exactly the k-th d² with a lower id still wins.
	prev := s.off[axis]
	s.off[axis] = diff
	if !s.cellExceedsKth() {
		s.search(farLo, farHi)
	}
	s.off[axis] = prev
}

// cellExceedsKth reports whether the heap is full and Σ off[a]², summed in
// axis order as consider sums d², strictly exceeds the k-th d². The partial
// sums only grow, so the loop stops as soon as one exceeds it.
func (s *searcher) cellExceedsKth() bool {
	if len(s.heap) < s.k {
		return false
	}
	kth := s.heap[0].Dist2
	var sum float64
	for _, x := range s.off {
		sum += x * x
		if sum > kth {
			return true
		}
	}
	return false
}

// consider examines tree row j. With a full heap the d² sum stops once a
// partial sum, checked every fourth axis, strictly exceeds the k-th d² (the
// point cannot enter); an accepted point's d² is always the full
// ascending-axis sum.
func (s *searcher) consider(j int) {
	t := s.t
	id := t.ids[j]
	if id == s.skip {
		return
	}
	s.visited++
	row := t.pts[j*t.dims : (j+1)*t.dims]
	if len(s.heap) < s.k {
		var d2 float64
		for a, x := range s.q {
			d := x - row[a]
			d2 += d * d
		}
		heap.Push(&s.heap, Neighbor{ID: id, Dist2: d2})
		return
	}
	top := s.heap[0]
	var d2 float64
	for a, x := range s.q {
		d := x - row[a]
		d2 += d * d
		if a&3 == 3 && d2 > top.Dist2 {
			return
		}
	}
	if d2 < top.Dist2 || (d2 == top.Dist2 && id < top.ID) {
		s.heap[0] = Neighbor{ID: id, Dist2: d2}
		heap.Fix(&s.heap, 0)
	}
}

// BruteForce returns the k nearest neighbors of row i by exhaustive scan,
// in ascending (d², id) order with d² summed in ascending axis order — the
// exact answer Query must reproduce. Used as a test oracle.
func BruteForce(pts *mat.Dense, i, k int) []Neighbor {
	q := pts.Row(i)
	all := make([]Neighbor, 0, pts.Rows-1)
	for j := 0; j < pts.Rows; j++ {
		if j == i {
			continue
		}
		row := pts.Row(j)
		var d2 float64
		for c, x := range q {
			d := x - row[c]
			d2 += d * d
		}
		all = append(all, Neighbor{ID: j, Dist2: d2})
	}
	sort.Slice(all, func(a, b int) bool { return all[b].after(all[a]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// minDistance2Floor is the smallest squared distance used when two embedded
// points coincide; it keeps kNN edge weights finite.
const minDistance2Floor = 1e-12

// Graph builds a symmetric kNN graph over the rows of pts: each node is
// connected to its k nearest neighbors with weight w = 1/d², matching the
// PGM convention D_data = 1/w of CirSTAG eq. (7). Mutual edges discovered
// from both endpoints are merged (weight kept, not doubled).
type Graph struct {
	N     int
	Edges []WeightedEdge
}

// directedEdge is one pre-merge kNN hit, already normalized to U < V.
type directedEdge struct {
	u, v int
	d2   float64
}

// WeightedEdge is an undirected weighted edge with U < V.
type WeightedEdge struct {
	U, V int
	W    float64
}

// BuildGraph constructs the kNN graph of the rows of pts. The per-point tree
// queries fan out across the worker pool (the tree is immutable after
// construction and every point writes its own neighbor buffer), and the
// buffers are merged by a sorted scan, so the edge list is identical for any
// worker count.
func BuildGraph(pts *mat.Dense, k int) *Graph {
	n := pts.Rows
	if k <= 0 {
		panic("knn: k must be positive")
	}
	if k >= n {
		k = n - 1
	}
	tree := NewKDTree(pts)
	nbrs := parallel.Map(n, 0, func(i int) []Neighbor {
		return tree.Query(pts.Row(i), k, i)
	})
	// Deterministic merge: normalize every directed hit to U < V, sort, and
	// collapse duplicates. A mutual edge is discovered from both endpoints
	// with the same d² (the squared-difference sum is symmetric), but the
	// merge keeps min(d²) explicitly so the kept distance is well-defined by
	// construction rather than by discovery order.
	all := make([]directedEdge, 0, n*k)
	for i, ns := range nbrs {
		for _, nb := range ns {
			u, v := i, nb.ID
			if u > v {
				u, v = v, u
			}
			all = append(all, directedEdge{u: u, v: v, d2: nb.Dist2})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].u != all[b].u {
			return all[a].u < all[b].u
		}
		if all[a].v != all[b].v {
			return all[a].v < all[b].v
		}
		return all[a].d2 < all[b].d2
	})
	merged := all[:0]
	for _, e := range all {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.u == e.u && last.v == e.v {
				if e.d2 < last.d2 {
					last.d2 = e.d2
				}
				continue
			}
		}
		merged = append(merged, e)
	}
	// Clamp the squared distances to a bounded dynamic range around the
	// median so the 1/d² edge weights keep the manifold Laplacian reasonably
	// conditioned (coincident points would otherwise produce near-infinite
	// weights and cripple the iterative solvers downstream).
	d2s := make([]float64, len(merged))
	for i, e := range merged {
		d2s[i] = e.d2
	}
	sort.Float64s(d2s)
	floor := minDistance2Floor
	if len(d2s) > 0 {
		if m := d2s[len(d2s)/2] * 1e-9; m > floor {
			floor = m
		}
	}
	g := &Graph{N: n, Edges: make([]WeightedEdge, len(merged))}
	for i, e := range merged {
		// Fault-injection point: tests zero the distance here to simulate
		// coincident points; the floor below must keep 1/d² finite.
		dd := faultinject.Float(faultinject.PointKNNDist2, e.d2)
		if dd < floor {
			dd = floor
		}
		g.Edges[i] = WeightedEdge{U: e.u, V: e.v, W: 1 / dd}
	}
	return g
}
