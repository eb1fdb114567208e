package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cirstag/internal/cache"
	"cirstag/internal/obs"
)

// metricsNow snapshots every registered obs metric by name.
func metricsNow() map[string]obs.MetricSnapshot {
	out := map[string]obs.MetricSnapshot{}
	for _, m := range obs.MetricsSnapshot() {
		out[m.Name] = m
	}
	return out
}

// counterDelta is how far counter name moved between two snapshots.
func counterDelta(before, after map[string]obs.MetricSnapshot, name string) float64 {
	return after[name].Value - before[name].Value
}

// histMean is the mean of the observations histogram name received between
// two snapshots (0 when it received none).
func histMean(before, after map[string]obs.MetricSnapshot, name string) float64 {
	a, b := after[name].Hist, before[name].Hist
	if a == nil || b == nil || a.Count == b.Count {
		return 0
	}
	return (a.Sum - b.Sum) / float64(a.Count-b.Count)
}

// histSum is the sum of the observations histogram name received between
// two snapshots.
func histSum(before, after map[string]obs.MetricSnapshot, name string) float64 {
	a, b := after[name].Hist, before[name].Hist
	if a == nil || b == nil {
		return 0
	}
	return a.Sum - b.Sum
}

// span runs fn inside a child span of parent named after the layer call it
// wraps, and returns the wall seconds it took.
func span(parent *obs.Span, name string, fn func()) float64 {
	sp := parent.Child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	sp.End()
	return d
}

// findSpans returns every span named name in the tree under s.
func findSpans(s obs.SpanReport, name string) []obs.SpanReport {
	var out []obs.SpanReport
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// spanTotalMS sums the durations of every span named name under the roots.
func spanTotalMS(roots []obs.SpanReport, name string) float64 {
	var ms float64
	for _, r := range roots {
		for _, s := range findSpans(r, name) {
			ms += s.DurationMS
		}
	}
	return ms
}

// phaseTimes records the per-layer phase times the program's own spans give
// for the span trees under roots: the spectral embedding, kNN and sparsify
// sub-phases of the manifold builds, the cold and warm generalized
// eigensolves, and the self time of core.run and core.incremental.
func phaseTimes(b *bench, roots []obs.SpanReport) {
	b.setLayer("core.run_s", "s", coreSelfS(roots))
	b.setLayer("embed.spectral_s", "s", spanTotalMS(roots, "embedding")/1000)
	b.setLayer("knn.build_s", "s", spanTotalMS(roots, "knn")/1000)
	b.setLayer("sparsify.s", "s", spanTotalMS(roots, "sparsify")/1000)
	b.setLayer("eig.generalized_s", "s", spanTotalMS(roots, "eigensolve")/1000)
	b.setLayer("eig.warm_s", "s", spanTotalMS(roots, "eigensolve_warm")/1000)
}

// coreSelfS sums the self time, in seconds, of every core.run and
// core.incremental span under the roots.
func coreSelfS(roots []obs.SpanReport) float64 {
	var ms float64
	for _, r := range roots {
		for _, name := range []string{"core.run", "core.incremental"} {
			for _, s := range findSpans(r, name) {
				ms += selfMS(s)
			}
		}
	}
	return ms / 1000
}

// selfMS is a span's self time: its duration minus the part of its interval
// that its children cover (children may overlap, as the two manifold builds
// of core.Run do).
func selfMS(s obs.SpanReport) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range s.Children {
		ivs = append(ivs, iv{c.StartMS, c.StartMS + c.DurationMS})
	}
	for i := 1; i < len(ivs); i++ { // insertion sort: a handful of children
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, end := 0.0, s.StartMS
	for _, v := range ivs {
		lo, hi := max(v.lo, end), min(v.hi, s.StartMS+s.DurationMS)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return s.DurationMS - covered
}

// writeTrace ends the benchmark's root span and writes its span tree to
// .bench_build/trace/<workload>-<seed>.json, returning the tree.
func writeTrace(root *obs.Span, workload string, seed int64) (*obs.Report, error) {
	root.End()
	rep := obs.SnapshotRoot(root)
	if rep == nil {
		return nil, fmt.Errorf("no span tree recorded for %s", workload)
	}
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed)), data, 0o644)
}

// timedBackend is a cache.Backend that forwards to another backend and
// records how many reads and writes it served, how long they took and how
// many bytes they moved. It times the cache layer from outside the program.
type timedBackend struct {
	inner cache.Backend

	mu                      sync.Mutex
	gets, puts              int
	getDur, putDur          time.Duration
	bytesRead, bytesWritten int64
}

func (t *timedBackend) Read(kind, key string) ([]byte, error) {
	t0 := time.Now()
	b, err := t.inner.Read(kind, key)
	d := time.Since(t0)
	t.mu.Lock()
	t.gets++
	t.getDur += d
	t.bytesRead += int64(len(b))
	t.mu.Unlock()
	return b, err
}

func (t *timedBackend) Write(kind, key string, frame []byte) error {
	t0 := time.Now()
	err := t.inner.Write(kind, key, frame)
	d := time.Since(t0)
	t.mu.Lock()
	t.puts++
	t.putDur += d
	if err == nil {
		t.bytesWritten += int64(len(frame))
	}
	t.mu.Unlock()
	return err
}

func (t *timedBackend) Remove(kind, key string) { t.inner.Remove(kind, key) }

func (t *timedBackend) Location() string { return t.inner.Location() }

// backendStats is a snapshot of a timedBackend's tallies.
type backendStats struct {
	gets, puts              int
	getMS, putMS            float64
	bytesRead, bytesWritten int64
}

func (t *timedBackend) stats() backendStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return backendStats{
		gets: t.gets, puts: t.puts,
		getMS:     float64(t.getDur) / float64(time.Millisecond),
		putMS:     float64(t.putDur) / float64(time.Millisecond),
		bytesRead: t.bytesRead, bytesWritten: t.bytesWritten,
	}
}

// layerCounters records the per-layer metrics read from obs counters and
// histograms that moved between two snapshots of a traced unit.
func layerCounters(b *bench, before, after map[string]obs.MetricSnapshot, n int) {
	b.setLayer("knn.fanout_per_n", "ratio", histMean(before, after, "knn.query_fanout")/float64(n))
	b.setLayer("eig.lanczos.iterations", "count", counterDelta(before, after, "eig.lanczos.iterations"))
	b.setLayer("effres.sketch_build_s", "s", histSum(before, after, "effres.sketch.build_ms")/1000)
	b.setLayer("solver.pcg_iters_mean", "count", histMean(before, after, "solver.pcg.iterations"))
	b.setLayer("solver.no_convergence", "count", counterDelta(before, after, "solver.laplacian.no_convergence"))
	b.setLayer("eig.generalized.iterations", "count", counterDelta(before, after, "eig.generalized.iterations"))
	b.setLayer("eig.warm.fallbacks", "count", counterDelta(before, after, "eig.warm.fallbacks"))
	b.setLayer("core.incremental.full_rebuilds", "count", counterDelta(before, after, "core.incremental.full_rebuilds"))
	b.setLayer("parallel.utilization_pct", "%", histMean(before, after, "parallel.utilization_pct"))
}

// setOverhead records one unit's untraced and traced wall time and their
// difference, the cost of recording the trace.
func setOverhead(b *bench, untraced, traced float64) {
	b.setLayer("trace.untraced_s", "s", untraced)
	b.setLayer("trace.traced_s", "s", traced)
	b.setLayer("trace.overhead_s", "s", traced-untraced)
	note("%s tracing overhead: %.3f s traced vs %.3f s untraced", b.workload, traced, untraced)
}
