// Command perfbench is the repository benchmark: it drives the CirSTAG
// pipeline through the public API of the internal packages on one of three
// workloads, checks every output, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	perfbench --workload design_job|large_core|edit_sequence --seed N --seconds S --trace 0|1
//
// With --trace 0 obs recording stays disabled and the end-to-end metrics are
// reported: CPU times of set-up and requests, and the peak heap. With --trace 1 the run first repeats one unit of work untraced,
// then enables obs, wraps each call into a layer in its own span, reads the
// obs counters around it, and reports the per-layer metrics plus the tracing
// overhead. The span tree of a traced run is written to
// .bench_build/trace/<workload>-<seed>.json. See README.md for the workloads
// and for which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cirstag/internal/obs"
)

// A run sets its workload up at least minSetups times and until setupBudget
// is spent (at most maxSetups times); setup_s is the median, so one slow
// set-up does not move it, and a set-up of a few milliseconds still gets
// enough samples for a steady median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

// analysisSeed is the pipeline seed every workload analyses with: the
// default of cirstag and of a cirstagd job. The workload seed generates the
// inputs (design variants and edit scripts); the analysis options stay at
// their defaults, as a user runs them.
const analysisSeed = 1

// workload is one traffic mix. setup builds its inputs from the seed and is
// timed separately; measure runs units of work in a 1-client closed loop
// until the time budget is spent; traced runs one unit untraced and one
// traced and fills the per-layer metrics.
type workload struct {
	name    string
	setup   func(b *bench) (any, error)
	measure func(b *bench, st any) error
	traced  func(b *bench, st any) error
}

var workloads = []workload{
	{"design_job", setupDesignJob, measureDesignJob, tracedDesignJob},
	{"large_core", setupLargeCore, measureLargeCore, tracedLargeCore},
	{"edit_sequence", setupEditSequence, measureEditSequence, tracedEditSequence},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run: its arguments, the operation and
// check tally behind error_rate, and the collected samples and metrics.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool

	attempted, failed int

	// Wall and CPU seconds of each set-up, request and unit of work of the
	// untraced run (see report).
	setups, requests, units samples

	layer map[string]metric
}

// samples holds the wall and the CPU seconds of timed operations.
type samples struct{ wall, cpu []float64 }

func (s *samples) add(wall, cpu float64) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
}

// op counts one attempted operation and reports whether it succeeded.
func (b *bench) op(err error, what string) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s failed: %v\n", b.workload, what, err)
		return false
	}
	return true
}

// check counts one output check; a false ok is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// setLayer records one per-layer metric of a traced run.
func (b *bench) setLayer(name, unit string, v float64) {
	b.layer[name] = metric{Value: v, Unit: unit}
}

// note prints a human-readable line (standard output, before the JSON).
func note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run: design_job, large_core or edit_sequence")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	b := &bench{
		workload: w.name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		layer:    map[string]metric{},
	}
	obs.Disable()
	obs.SetLevel(obs.LevelError)

	steal0 := stealSeconds()
	var st any
	setupStart := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(setupStart) < setupBudget); i++ {
		st = nil
		runtime.GC()
		var s any
		wall, cpu, err := timedUnit(func() (err error) {
			s, err = w.setup(b)
			return err
		})
		b.setups.add(wall, cpu)
		if !b.op(err, "setup") {
			break
		}
		st = s
	}
	if st != nil {
		var err error
		if b.traced {
			err = w.traced(b, st)
		} else {
			err = w.measure(b, st)
		}
		b.op(err, "workload")
	}
	steal := stealSeconds() - steal0
	note("%s host steal during the run: %.1f CPU-s", b.workload, steal)
	if b.traced {
		b.setLayer("host.steal_s", "s", steal)
	}
	b.report()
}

// report prints the named metrics of the run and, last, the JSON result.
func (b *bench) report() {
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0 && b.attempted > 0
	note("%s error_rate=%.4g (%d failed of %d operations and checks)",
		b.workload, float64(b.failed)/math.Max(1, float64(b.attempted)), b.failed, b.attempted)
	if b.traced {
		b.setLayer("process.peak_rss_mb", "MB", peakRSSMB())
		res.Metrics = b.layer
		for _, m := range layerMetrics {
			v, ok := b.layer[m.name]
			if !ok {
				// A layer this workload never calls reports an explicit 0.
				v = metric{Unit: m.unit}
				res.Metrics[m.name] = v
			}
			note("%s %s=%.6g %s", b.workload, m.name, v.Value, v.Unit)
		}
	} else {
		p50, tail, q := tailPercentile(b.requests.cpu)
		res.Metrics["setup_s"] = metric{median(b.setups.cpu), "s"}
		res.Metrics["request_cpu_ms_p50"] = metric{1000 * p50, "ms"}
		res.Metrics["request_cpu_ms_tail"] = metric{1000 * tail, "ms"}
		res.Metrics["peak_heap_mb"] = metric{peakHeapMB(), "MB"}
		wp50, wtail, _ := tailPercentile(b.requests.wall)
		note("%s setup_s=%.4f CPU-s (wall %.4f s, median of %d)", b.workload,
			median(b.setups.cpu), median(b.setups.wall), len(b.setups.cpu))
		note("%s request_cpu_ms_p50=%.1f ms request_cpu_ms_tail=%.1f ms (p%d of %d requests); wall p50 %.1f ms, tail %.1f ms",
			b.workload, 1000*p50, 1000*tail, q, len(b.requests.cpu), 1000*wp50, 1000*wtail)
		note("%s unit of work: wall %.3f s, CPU %.3f s (median of %d); peak_heap_mb=%.1f MB peak_rss_mb=%.1f MB",
			b.workload, median(b.units.wall), median(b.units.cpu), len(b.units.wall), peakHeapMB(), peakRSSMB())
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// layerMetric names one per-layer metric and its unit. Every traced run
// prints all of them; see README.md for the layer each belongs to.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"service.queue_wait_ms", "ms"},
	{"service.exec_s", "s"},
	{"service.retained_heap_mb", "MB"},
	{"cache.get_ms", "ms"},
	{"cache.put_ms", "ms"},
	{"cache.bytes_read", "bytes"},
	{"cache.bytes_written", "bytes"},
	{"cache.hit_ratio", "ratio"},
	{"timing.train_s", "s"},
	{"timing.load_s", "s"},
	{"timing.predict_ms", "ms"},
	{"embed.spectral_s", "s"},
	{"eig.lanczos.iterations", "count"},
	{"knn.build_s", "s"},
	{"knn.fanout_per_n", "ratio"},
	{"pgm.build_x_s", "s"},
	{"pgm.build_y_s", "s"},
	{"sparsify.s", "s"},
	{"effres.sketch_build_s", "s"},
	{"pgm.gx_components", "count"},
	{"solver.pcg_iters_mean", "count"},
	{"solver.no_convergence", "count"},
	{"eig.generalized_s", "s"},
	{"eig.generalized.iterations", "count"},
	{"eig.warm_s", "s"},
	{"eig.warm.fallbacks", "count"},
	{"core.run_s", "s"},
	{"seq.step_ms_p50", "ms"},
	{"seq.step_ms_tail", "ms"},
	{"seq.incremental_ms", "ms"},
	{"seq.patch_ratio", "ratio"},
	{"core.incremental.full_rebuilds", "count"},
	{"parallel.utilization_pct", "%"},
	{"health.pin0_rank", "rank"},
	{"process.peak_rss_mb", "MB"},
	{"host.steal_s", "s"},
	{"trace.untraced_s", "s"},
	{"trace.traced_s", "s"},
	{"trace.overhead_s", "s"},
}

// median returns the median of v (0 for no samples).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile returns the median of v, the highest whole percentile q
// with at least ten samples above it, and q itself. With fewer than twenty
// samples no percentile above the median qualifies; the tail is then the
// maximum and q is 100.
func tailPercentile(v []float64) (p50, tail float64, q int) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q = int(math.Floor(100 - 1000/float64(n)))
	if q < 50 {
		return median(s), s[n-1], 100
	}
	// Nearest-rank percentile: the smallest sample with at least q% of the
	// samples at or below it.
	idx := int(math.Ceil(float64(q)/100*float64(n))) - 1
	return median(s), s[idx], q
}
