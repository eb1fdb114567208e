package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cirstag/internal/cache"
	"cirstag/internal/circuit"
	"cirstag/internal/obs"
	"cirstag/internal/service"
	"cirstag/internal/timing"
)

// design_job: the cirstagd job path in-process. One unit of work is a fresh
// service.Server over a fresh disk cache.Store receiving one cold job: an
// inline netlist of a sasc variant, with default parameters. Then come warmJobs resubmissions that differ only in Top: each
// is a new job, but every cached artifact hits.
const (
	designJobBench = "sasc"
	warmJobs       = 4
	coldTop        = 20
)

type designJobState struct {
	nl   *circuit.Netlist // the design as the server parses it
	text string           // the netlist the client submits
	key  string           // JobKey of the cold job
}

func setupDesignJob(b *bench) (any, error) {
	base, err := circuit.BenchmarkByName(designJobBench, designSeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := circuit.Write(&buf, variant(base, b.seed)); err != nil {
		return nil, err
	}
	st := &designJobState{text: buf.String()}
	if st.nl, err = circuit.Read(strings.NewReader(st.text)); err != nil {
		return nil, err
	}
	if st.key, err = service.JobKey(st.nl, designJobRequest(st.text, coldTop).Params); err != nil {
		return nil, err
	}
	return st, nil
}

// designJobRequest is the job a client submits: an inline netlist with
// default parameters except the number of ranked rows.
func designJobRequest(netlist string, top int) *service.Request {
	r := &service.Request{Params: service.Params{Netlist: netlist, Top: top}}
	r.Normalize()
	return r
}

// jobOutcome is what one submission produced, as the client sees it, and
// the wall and CPU seconds from Submit to Done.
type jobOutcome struct {
	wallS, cpuS float64
	status      service.Status
	report      []byte
}

// designUnit is one unit of design_job work. It returns the outcome of the
// cold job followed by the warm ones, the backend tallies, the store's
// counters, and the live-heap growth the finished server retains.
type designUnit struct {
	jobs      []jobOutcome
	backend   backendStats
	store     cache.Stats
	retainedM float64
	loadS     float64
	predictMS float64
}

func runDesignUnit(b *bench, st *designJobState, parent *obs.Span) (*designUnit, error) {
	dir, err := scratchDir("design_job")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inner, err := cache.OpenDir(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	tb := &timedBackend{inner: inner}
	store := cache.NewStore(tb)
	heap0 := heapMB()
	srv := service.NewServer(service.Config{Store: store})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: draining server: %v\n", err)
		}
	}()

	u := &designUnit{}
	for i := 0; i <= warmJobs; i++ {
		req := designJobRequest(st.text, coldTop+i)
		name := "service.Submit.warm"
		if i == 0 {
			name = "service.Submit.cold"
		}
		var (
			j         *service.Job
			coalesced bool
			serr      error
		)
		c0 := cpuSeconds()
		wall := span(parent, name, func() {
			j, coalesced, serr = srv.Submit(req)
			if serr == nil {
				<-j.Done()
			}
		})
		cpu := cpuSeconds() - c0
		if !b.op(serr, "submitting job") {
			return nil, serr
		}
		b.check(!coalesced, "job %d coalesced onto an earlier job", i)
		status := srv.Status(j)
		if !b.op(jobError(status), "job "+strconv.Itoa(i)) {
			return nil, jobError(status)
		}
		u.jobs = append(u.jobs, jobOutcome{wallS: wall, cpuS: cpu, status: status, report: srv.Report(j)})
	}
	u.backend = tb.stats()
	u.store = store.Snapshot()
	u.retainedM = heapMB() - heap0

	if b.traced {
		// The job path times loading the cached model only as a zero-length
		// marker span, so time the timing layer's load and inference directly
		// against the same store.
		p := designJobRequest(st.text, coldTop).Params
		cfg := timing.Config{Epochs: p.Epochs, Hidden: p.Hidden, Seed: p.Seed}
		var m *timing.Model
		var ok bool
		u.loadS = span(parent, "timing.LoadCached", func() { m, ok = timing.LoadCached(st.nl, cfg, store) })
		b.check(ok, "trained model missing from the cache after the cold job")
		if ok {
			u.predictMS = 1000 * span(parent, "timing.Predict", func() { m.Predict(st.nl) })
		}
	}
	checkDesignUnit(b, st, u)
	return u, nil
}

// jobTimes parses when a finished job was submitted, started and finished.
func jobTimes(s service.Status) ([3]time.Time, error) {
	var t [3]time.Time
	for i, v := range []string{s.Submitted, s.Started, s.Finished} {
		var err error
		if t[i], err = time.Parse(time.RFC3339Nano, v); err != nil {
			return t, fmt.Errorf("job %s: %w", s.ID, err)
		}
	}
	return t, nil
}

func jobError(s service.Status) error {
	if s.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", s.ID, s.State, s.Error)
	}
	return nil
}

// rankingRows returns the ranked rows of a job's result listing (the header
// line dropped).
func rankingRows(result string) []string {
	lines := strings.Split(strings.TrimRight(result, "\n"), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "#") {
		lines = lines[1:]
	}
	return lines
}

// checkDesignUnit checks the cache contract and the listing: each job ranks
// exactly its Top rows, every score is finite, the cold job is the expected
// job identity, and each warm rerun's rows equal the cold job's rows byte for
// byte.
func checkDesignUnit(b *bench, st *designJobState, u *designUnit) {
	cold := rankingRows(u.jobs[0].status.Result)
	b.check(u.jobs[0].status.ID == st.key, "cold job id %s, want %s", u.jobs[0].status.ID, st.key)
	for i, j := range u.jobs {
		rows := rankingRows(j.status.Result)
		b.check(len(rows) == coldTop+i, "job %d ranked %d rows, want %d", i, len(rows), coldTop+i)
		scores := make([]float64, 0, len(rows))
		for _, r := range rows {
			f := strings.Fields(r)
			if len(f) < 2 {
				b.check(false, "job %d: malformed row %q", i, r)
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			b.check(err == nil, "job %d: unparsable score in row %q", i, r)
			scores = append(scores, v)
		}
		b.check(finite(scores), "job %d: non-finite score", i)
		if i > 0 && len(rows) >= len(cold) {
			b.check(strings.Join(rows[:len(cold)], "\n") == strings.Join(cold, "\n"),
				"warm job %d ranking differs from the cold job's", i)
		}
	}
	b.check(u.store.Misses > 0 && u.store.Corruptions == 0, "cache saw %d misses, %d corruptions", u.store.Misses, u.store.Corruptions)
}

// pin0Rank is pin 0's 1-based position in a listing, or len(rows)+1 when it
// is not listed.
func pin0Rank(rows []string) int {
	for i, r := range rows {
		if f := strings.Fields(r); len(f) > 0 && f[0] == "0" {
			return i + 1
		}
	}
	return len(rows) + 1
}

func measureDesignJob(b *bench, s any) error {
	st := s.(*designJobState)
	start := time.Now()
	var first string
	for len(b.units.wall) == 0 || time.Since(start) < b.budget {
		var u *designUnit
		wall, cpu, err := timedUnit(func() (err error) {
			u, err = runDesignUnit(b, st, nil)
			return err
		})
		if err != nil {
			return err
		}
		b.units.add(wall, cpu)
		for _, j := range u.jobs {
			b.requests.add(j.wallS, j.cpuS)
		}
		d := digest(u.jobs[0].status.Result)
		if err := b.checkRankingDigest(&first, d); err != nil {
			return err
		}
		warm := make([]float64, 0, warmJobs)
		for _, j := range u.jobs[1:] {
			warm = append(warm, j.wallS)
		}
		note("%s cold_job_s=%.3f s warm_job_s=%.3f s (median of %d) on %s (%d pins)",
			b.workload, u.jobs[0].wallS, median(warm), len(warm), designJobBench, st.nl.NumPins())
	}
	return nil
}

func tracedDesignJob(b *bench, s any) error {
	st := s.(*designJobState)
	untraced, _, err := timedUnit(func() error { _, err := runDesignUnit(b, st, nil); return err })
	if err != nil {
		return err
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	root := obs.Start("perfbench.design_job")
	before := metricsNow()
	var u *designUnit
	traced, _, err := timedUnit(func() (err error) {
		u, err = runDesignUnit(b, st, root)
		return err
	})
	after := metricsNow()
	if _, werr := writeTrace(root, b.workload, b.seed); werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", werr)
	}
	if err != nil {
		return err
	}

	// Per-job phase times come from each job's own report (its span
	// subtree), which the server keeps when obs is on.
	coldRep, err := obs.ParseReport(u.jobs[0].report)
	if !b.op(err, "parsing the cold job's report") {
		return err
	}
	var waitMS, coldExecS float64
	for i, j := range u.jobs {
		t, err := jobTimes(j.status)
		if !b.op(err, "reading job times") {
			return err
		}
		waitMS += float64(t[1].Sub(t[0])) / float64(time.Millisecond) / float64(len(u.jobs))
		if i == 0 {
			coldExecS = t[2].Sub(t[1]).Seconds()
		}
	}
	b.setLayer("service.queue_wait_ms", "ms", waitMS)
	b.setLayer("service.exec_s", "s", coldExecS)
	b.setLayer("service.retained_heap_mb", "MB", u.retainedM)

	b.setLayer("cache.get_ms", "ms", u.backend.getMS)
	b.setLayer("cache.put_ms", "ms", u.backend.putMS)
	b.setLayer("cache.bytes_read", "bytes", float64(u.backend.bytesRead))
	b.setLayer("cache.bytes_written", "bytes", float64(u.backend.bytesWritten))
	if n := u.store.Hits + u.store.Misses; n > 0 {
		b.setLayer("cache.hit_ratio", "ratio", float64(u.store.Hits)/float64(n))
	}
	note("%s cache: %d gets, %d puts; store %d hits, %d misses", b.workload,
		u.backend.gets, u.backend.puts, u.store.Hits, u.store.Misses)

	b.setLayer("timing.train_s", "s", spanTotalMS(coldRep.Spans, "train_gnn")/1000)
	b.setLayer("timing.load_s", "s", u.loadS)
	b.setLayer("timing.predict_ms", "ms", u.predictMS)
	phaseTimes(b, coldRep.Spans)
	layerCounters(b, before, after, st.nl.NumPins())
	b.setLayer("health.pin0_rank", "rank", float64(pin0Rank(rankingRows(u.jobs[0].status.Result))))
	setOverhead(b, untraced, traced)
	return nil
}
