package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/eig"
	"cirstag/internal/embed"
	"cirstag/internal/gnn"
	"cirstag/internal/graph"
	"cirstag/internal/knn"
	"cirstag/internal/mat"
	"cirstag/internal/nn"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/perturb"
	"cirstag/internal/pgm"
)

// large_core: core.Run on a design above the 8,192-node threshold where
// Phase-2 sparsification ranks edges by sketched resistances. The design is
// pci_spoci's generator spec with 13 layers of 200 gates instead of 14 of
// 230, about 8.6k pins instead of 10.7k, so that one run fits the
// benchmark's time budget. Y is the forward pass of an untrained two-layer
// GCN (as in the Fig. 5 scalability experiment), so no training is timed.
// One unit of work is one core.Run.
var largeCoreSpec = circuit.Spec{
	Name: "pci_spoci_8k", Inputs: 64, Outputs: 48, Layers: 13, Width: 200,
	LocalBias: 0.7, WireCap: 1.4,
}

// sketchThreshold is pgm's node count above which sparsification sketches
// resistances; the large_core design must stay above it.
const sketchThreshold = 8192

type largeCoreState struct {
	nl   *circuit.Netlist
	in   core.Input
	opts core.Options
}

func setupLargeCore(b *bench) (any, error) {
	nl := variant(circuit.Generate(largeCoreSpec, rand.New(rand.NewSource(designSeed))), b.seed)
	if nl.NumPins() <= sketchThreshold {
		return nil, fmt.Errorf("%s has %d pins, not above the sketch threshold %d", largeCoreSpec.Name, nl.NumPins(), sketchThreshold)
	}
	g := nl.PinGraph()
	feat := nl.Features()
	// The GCN is the model, so its weights are the same for every seed, as a
	// trained model's would be; the seed draws the design.
	rng := rand.New(rand.NewSource(analysisSeed))
	adj := gnn.NormalizedAdjacency(g)
	l1 := gnn.NewGCNLayer(adj, feat.Cols, 16, rng)
	l2 := gnn.NewGCNLayer(adj, 16, 16, rng)
	y := l2.Forward((&nn.Tanh{}).Forward(l1.Forward(feat)))
	return &largeCoreState{
		nl: nl,
		in: core.Input{Graph: g, Output: y, Features: feat},
		// The parameters a cirstag run uses by default.
		opts: core.Options{Seed: analysisSeed, EmbedDims: 16, ScoreDims: 8, FeatureAlpha: 1},
	}, nil
}

// coreRanking ranks a result's node scores the way a cirstag run does
// (primary-output pins excluded) and fingerprints the ranking.
func coreRanking(nl *circuit.Netlist, res *core.Result) (*core.Ranking, string) {
	r := core.Rank(res.NodeScores, perturb.PrimaryOutputPinSet(nl))
	var sb strings.Builder
	for i, p := range r.Order {
		sb.WriteString(strconv.Itoa(p))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(math.Float64bits(r.Scores[i]), 16))
		sb.WriteByte('\n')
	}
	return r, digest(sb.String())
}

// checkCoreResult checks that every node score, edge score and eigenvalue is
// finite and returns the ranking digest.
func checkCoreResult(b *bench, nl *circuit.Netlist, res *core.Result) (*core.Ranking, string) {
	b.check(len(res.NodeScores) == nl.NumPins(), "%d node scores for %d pins", len(res.NodeScores), nl.NumPins())
	b.check(finite(res.NodeScores), "non-finite node score")
	b.check(finite(res.Eigenvalues) && len(res.Eigenvalues) > 0, "non-finite or missing eigenvalues")
	edges := make([]float64, len(res.EdgeScores))
	for i, e := range res.EdgeScores {
		edges[i] = e.Score
	}
	b.check(finite(edges), "non-finite edge score")
	return coreRanking(nl, res)
}

// rankOf is node p's 1-based position in r (0 when it is not ranked).
func rankOf(r *core.Ranking, p int) int {
	for i, q := range r.Order {
		if q == p {
			return i + 1
		}
	}
	return 0
}

func measureLargeCore(b *bench, s any) error {
	st := s.(*largeCoreState)
	start := time.Now()
	var first string
	for len(b.units.wall) == 0 || time.Since(start) < b.budget {
		var res *core.Result
		wall, cpu, err := timedUnit(func() (err error) {
			res, err = core.Run(st.in, st.opts)
			return err
		})
		if !b.op(err, "core.Run") {
			return err
		}
		b.units.add(wall, cpu)
		b.requests.add(wall, cpu)
		_, d := checkCoreResult(b, st.nl, res)
		if err := b.checkRankingDigest(&first, d); err != nil {
			return err
		}
		note("%s core_run_s=%.3f s on %s (%d pins)", b.workload, wall, largeCoreSpec.Name, st.nl.NumPins())
	}
	return nil
}

func tracedLargeCore(b *bench, s any) error {
	st := s.(*largeCoreState)
	var plain *core.Result
	untraced, _, err := timedUnit(func() (err error) {
		plain, err = core.Run(st.in, st.opts)
		return err
	})
	if !b.op(err, "core.Run") {
		return err
	}
	_, plainDigest := checkCoreResult(b, st.nl, plain)

	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	root := obs.Start("perfbench.large_core")
	before := metricsNow()
	var res *core.Result
	traced := span(root, "core.Run", func() {
		opts := st.opts
		opts.Span = root
		res, err = core.Run(st.in, opts)
	})
	after := metricsNow()
	if !b.op(err, "traced core.Run") {
		return err
	}
	ranking, d := checkCoreResult(b, st.nl, res)
	b.check(d == plainDigest, "tracing changed the ranking")
	layerCounters(b, before, after, st.nl.NumPins())
	b.setLayer("health.pin0_rank", "rank", float64(rankOf(ranking, 0)))
	setOverhead(b, untraced, traced)

	replay := root.Child("replay")
	replayPhases(b, st, res, replay)
	replay.End()
	rep, werr := writeTrace(root, b.workload, b.seed)
	if werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", werr)
	}
	if rep != nil {
		b.setLayer("core.run_s", "s", coreSelfS(findSpans(rep.Spans[0], "core.run")))
		b.setLayer("sparsify.s", "s", spanTotalMS(findSpans(rep.Spans[0], "replay"), "sparsify")/1000)
	}
	return nil
}

// replayPhases times core.Run's phases one at a time by calling their public
// entry points under the replay span, on the inputs, options and RNG streams
// the run used, and checks the replayed embedding and eigenvalues are
// bit-identical to the run's.
func replayPhases(b *bench, st *largeCoreState, res *core.Result, replay *obs.Span) {
	opts := st.opts
	var emb *mat.Dense
	spectral := span(replay, "embed.Spectral", func() {
		sp := embed.Spectral(st.in.Graph, parallel.NewRNG(opts.Seed, 0), embed.Options{Dims: opts.EmbedDims})
		emb = embed.FeatureAugmented(sp.U, st.in.Features, opts.FeatureAlpha)
	})
	b.setLayer("embed.spectral_s", "s", spectral)
	b.check(denseEqual(emb, res.Embedding), "replayed embedding differs from core.Run's")
	b.setLayer("knn.build_s", "s", span(replay, "knn.BuildGraph", func() { knn.BuildGraph(emb, 10) }))

	// pgm.Build records its own knn and sparsify child spans under the span
	// it is handed; sparsify.s is read from them.
	pgmBuild := func(name string, x *mat.Dense, stream uint64) (*graph.Graph, float64) {
		sp := replay.Child(name)
		defer sp.End()
		t0 := time.Now()
		g := pgm.Build(x, parallel.NewRNG(opts.Seed, stream), pgm.Options{K: 10, AvgDegree: 6, Span: sp})
		return g, time.Since(t0).Seconds()
	}
	gx, gxS := pgmBuild("pgm.Build.x", emb, 1)
	_, gyS := pgmBuild("pgm.Build.y", st.in.Output, 2)
	b.setLayer("pgm.build_x_s", "s", gxS)
	b.setLayer("pgm.build_y_s", "s", gyS)
	_, comps := gx.ConnectedComponents()
	b.setLayer("pgm.gx_components", "count", float64(comps))

	// The result's manifolds are already connected (core.Run bridges stray
	// components before its eigensolve), so the solve replays directly.
	var pairs []eig.GeneralizedPair
	b.setLayer("eig.generalized_s", "s", span(replay, "eig.GeneralizedTopKSeeded", func() {
		pairs = eig.GeneralizedTopKSeeded(res.InputManifold.Laplacian(), res.OutputManifold.Laplacian(),
			opts.ScoreDims, nil, parallel.NewRNG(opts.Seed, 3), opts.Eig)
	}))
	same := len(pairs) == len(res.Eigenvalues)
	for i := 0; same && i < len(pairs); i++ {
		same = math.Float64bits(pairs[i].Value) == math.Float64bits(res.Eigenvalues[i])
	}
	b.check(same, "replayed eigenvalues differ from core.Run's")
	note("%s replay: embed %.2fs, knn(X) %.2fs, pgm X %.2fs, pgm Y %.2fs, eig %.2fs; G_X raw components %d",
		b.workload, spectral, b.layer["knn.build_s"].Value, gxS, gyS, b.layer["eig.generalized_s"].Value, comps)
}

// denseEqual reports whether two matrices are bit-identical.
func denseEqual(a, b *mat.Dense) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}
