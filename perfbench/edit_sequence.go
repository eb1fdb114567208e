package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/seq"
	"cirstag/internal/timing"
)

// edit_sequence: an edit script from seq.Example on an ss_pcm variant, scored
// against a timing GNN trained during setup. One request, and one unit of
// work, is one whole sequence, as a cirstagd sequence job runs it: the
// baseline analysis, then for every step seq.Apply, Predictor.Outputs,
// Baseline.RunIncremental and Advance. Each step is also timed from outside.
// The script is 80 steps long so that the share of steps taking each
// incremental path, which sets the sequence's latency, varies little from
// seed to seed.
const (
	editSequenceBench = "ss_pcm"
	sequenceSteps     = 80
)

type editSequenceState struct {
	nl     *circuit.Netlist
	pred   seq.Predictor
	script *seq.Script
	opts   core.Options
	trainS float64 // wall seconds training the timing GNN took
}

func setupEditSequence(b *bench) (any, error) {
	base, err := circuit.BenchmarkByName(editSequenceBench, designSeed)
	if err != nil {
		return nil, err
	}
	nl := variant(base, b.seed)
	t0 := time.Now()
	m, err := timing.New(nl, timing.Config{Epochs: 300, Hidden: 32, Seed: analysisSeed})
	trainS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	script := seq.Example(nl, sequenceSteps, b.seed)
	if err := script.Validate(nl); err != nil {
		return nil, err
	}
	return &editSequenceState{
		nl:     nl,
		pred:   seq.NewModelPredictor(m),
		trainS: trainS,
		script: script,
		// The parameters a cirstagd sequence job uses by default.
		opts: core.Options{Seed: analysisSeed, EmbedDims: 16, ScoreDims: 8, FeatureAlpha: 1},
	}, nil
}

// stepOutcome is one step of a sequence as the client saw it.
type stepOutcome struct {
	ms            float64
	predictMS     float64
	incrementalMS float64
	path          string
}

// sequenceRun is the outcome of one whole sequence.
type sequenceRun struct {
	steps []stepOutcome
	final *core.Result
	nl    *circuit.Netlist
}

// runSequence drives one sequence step by step, the way seq.Run does, so
// each step can be timed (and, traced, split) from outside.
func runSequence(b *bench, st *editSequenceState, parent *obs.Span) (*sequenceRun, error) {
	nl := st.nl
	var base *core.Baseline
	var err error
	span(parent, "core.NewBaseline", func() {
		var y0 *mat.Dense
		if y0, err = st.pred.Outputs(nl); err == nil {
			// Parent the program's own spans under the benchmark's, as
			// seq.Run does (a nil parent when untraced).
			opts := st.opts
			opts.Span = parent
			base, err = core.NewBaseline(core.Input{Graph: nl.PinGraph(), Output: y0, Features: nl.Features()}, opts)
		}
	})
	if !b.op(err, "baseline analysis") {
		return nil, err
	}
	out := &sequenceRun{}
	for i, step := range st.script.Steps {
		stepSpan := parent.Child("seq.step")
		base.Opts.Span = stepSpan
		var so stepOutcome
		t0 := time.Now()
		// Step i draws from the same RNG stream seq.Run gives it.
		next := seq.Apply(nl, step, parallel.NewRNG(st.script.Seed, uint64(1<<20+i)))
		t1 := time.Now()
		y, err := st.pred.Outputs(next)
		t2 := time.Now()
		var res *core.Result
		var info *core.IncrementalInfo
		if err == nil {
			res, info, err = base.RunIncremental(y, core.IncrementalOptions{})
		}
		t3 := time.Now()
		if err == nil {
			err = base.Advance(y, res, info)
		}
		so.ms = float64(time.Since(t0)) / float64(time.Millisecond)
		stepSpan.End()
		if !b.op(err, fmt.Sprintf("step %d (%s)", i, step.Op)) {
			return nil, err
		}
		so.predictMS = float64(t2.Sub(t1)) / float64(time.Millisecond)
		so.incrementalMS = float64(t3.Sub(t2)) / float64(time.Millisecond)
		so.path = seq.StepReport{ReusedBaseline: info.ReusedBaseline, FullRebuild: info.FullRebuild, DriftRebuild: info.DriftRebuild}.Path()
		b.check(finite(res.NodeScores) && finite(res.Eigenvalues), "step %d: non-finite score", i)
		out.steps = append(out.steps, so)
		nl = next
	}
	out.final, out.nl = base.Result, nl
	return out, nil
}

// stepMS lists the latency of every step.
func stepMS(steps []stepOutcome) []float64 {
	ms := make([]float64, len(steps))
	for i, s := range steps {
		ms[i] = s.ms
	}
	return ms
}

// pathCounts tallies the incremental path of every step.
func pathCounts(steps []stepOutcome) map[string]int {
	c := map[string]int{}
	for _, s := range steps {
		c[s.path]++
	}
	return c
}

// pathSummary lists, per incremental path, its step count and median step
// latency.
func pathSummary(steps []stepOutcome) string {
	byPath := map[string][]float64{}
	for _, s := range steps {
		byPath[s.path] = append(byPath[s.path], s.ms)
	}
	var parts []string
	for _, p := range []string{"reuse", "patch", "rebuild", "drift-rebuild"} {
		if v := byPath[p]; len(v) > 0 {
			parts = append(parts, fmt.Sprintf("%s %d x %.0f ms", p, len(v), median(v)))
		}
	}
	return strings.Join(parts, ", ")
}

func measureEditSequence(b *bench, s any) error {
	st := s.(*editSequenceState)
	start := time.Now()
	var first string
	for len(b.units.wall) == 0 || time.Since(start) < b.budget {
		var run *sequenceRun
		wall, cpu, err := timedUnit(func() (err error) {
			run, err = runSequence(b, st, nil)
			return err
		})
		if err != nil {
			return err
		}
		b.units.add(wall, cpu)
		b.requests.add(wall, cpu)
		_, d := checkCoreResult(b, run.nl, run.final)
		if err := b.checkRankingDigest(&first, d); err != nil {
			return err
		}
		p50, tail, q := tailPercentile(stepMS(run.steps))
		note("%s sequence_s=%.3f s step_ms_p50=%.1f ms step_ms_tail=%.1f ms (p%d of %d steps) paths: %s; on %s (%d pins)",
			b.workload, wall, p50, tail, q, len(run.steps), pathSummary(run.steps), editSequenceBench, st.nl.NumPins())
	}
	return nil
}

func tracedEditSequence(b *bench, s any) error {
	st := s.(*editSequenceState)
	var plain *sequenceRun
	untraced, _, err := timedUnit(func() (err error) {
		plain, err = runSequence(b, st, nil)
		return err
	})
	if err != nil {
		return err
	}
	// Step latencies come from the untraced unit.
	p50, tail, q := tailPercentile(stepMS(plain.steps))
	b.setLayer("seq.step_ms_p50", "ms", p50)
	b.setLayer("seq.step_ms_tail", "ms", tail)
	note("%s step_ms_p50=%.1f ms step_ms_tail=%.1f ms (p%d of %d steps) paths: %s",
		b.workload, p50, tail, q, len(plain.steps), pathSummary(plain.steps))
	obs.Reset()
	obs.Enable()
	root := obs.Start("perfbench.edit_sequence")
	before := metricsNow()
	var run *sequenceRun
	traced, _, err := timedUnit(func() (err error) {
		run, err = runSequence(b, st, root)
		return err
	})
	after := metricsNow()
	rep, werr := writeTrace(root, b.workload, b.seed)
	obs.Disable()
	if werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", werr)
	}
	if err != nil {
		return err
	}
	if rep != nil {
		phaseTimes(b, rep.Spans)
	}
	ranking, d := checkCoreResult(b, run.nl, run.final)
	layerCounters(b, before, after, st.nl.NumPins())
	b.setLayer("health.pin0_rank", "rank", float64(rankOf(ranking, 0)))
	setOverhead(b, untraced, traced)

	var predict, incremental []float64
	for _, so := range run.steps {
		predict = append(predict, so.predictMS)
		incremental = append(incremental, so.incrementalMS)
	}
	paths := pathCounts(run.steps)
	b.setLayer("timing.train_s", "s", st.trainS)
	b.setLayer("timing.predict_ms", "ms", median(predict))
	b.setLayer("seq.incremental_ms", "ms", median(incremental))
	b.setLayer("seq.patch_ratio", "ratio", float64(paths["patch"]+paths["reuse"])/float64(len(run.steps)))

	// The benchmark's own step loop must agree with seq.Run on the same
	// script.
	var ref *seq.Result
	refS, _, err := timedUnit(func() (err error) {
		ref, err = seq.Run(st.nl, st.script, st.pred, seq.Options{Core: st.opts})
		return err
	})
	if !b.op(err, "seq.Run") {
		return err
	}
	_, refDigest := checkCoreResult(b, ref.FinalNetlist, ref.Final)
	b.check(refDigest == d, "final ranking differs from seq.Run's (%s vs %s)", d, refDigest)
	note("%s seq.Run took %.3f s", b.workload, refS)
	return nil
}
