package seq

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/mat"
)

// featPredictor is a cheap deterministic Predictor for tests: the output
// matrix is the design's raw feature matrix, which responds to every script
// operation (cap scaling moves the cap column, rewiring moves fanout/depth)
// without the cost of training a GNN.
type featPredictor struct{}

func (featPredictor) Outputs(nl *circuit.Netlist) (*mat.Dense, error) { return nl.Features(), nil }

// runStepwise runs script over base one step at a time through resume — the
// code path Run executes — and captures the chained result after every step.
func runStepwise(t *testing.T, nl *circuit.Netlist, base *core.Baseline, script *Script, pred Predictor, opts Options) (*Result, []*core.Result) {
	t.Helper()
	snap := &snapshot{nl: nl, base: base}
	var res *Result
	var stepResults []*core.Result
	for i := range script.Steps {
		prefix := *script
		prefix.Steps = script.Steps[:i+1]
		var err error
		if res, err = resume(snap, &prefix, i, pred, opts); err != nil {
			t.Fatal(err)
		}
		stepResults = append(stepResults, res.Final)
	}
	return res, stepResults
}

func testDesign(t testing.TB) *circuit.Netlist {
	t.Helper()
	return circuit.Generate(circuit.Spec{
		Name: "seqtest", Inputs: 16, Outputs: 8, Layers: 6, Width: 24,
		LocalBias: 0.65, WireCap: 1.2,
	}, rand.New(rand.NewSource(3)))
}

func testOptions() Options {
	return Options{Core: core.Options{Seed: 5, EmbedDims: 8, ScoreDims: 4, FeatureAlpha: 1}}
}

func TestParseRejectsMalformedScripts(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"wrong schema", `{"schema":"cirstag.seq/v0","steps":[{"op":"resize","cell":1,"factor":2}]}`},
		{"missing schema", `{"steps":[{"op":"resize","cell":1,"factor":2}]}`},
		{"no steps", `{"schema":"cirstag.seq/v1","steps":[]}`},
		{"unknown field", `{"schema":"cirstag.seq/v1","bogus":1,"steps":[{"op":"resize","cell":1,"factor":2}]}`},
		{"unknown step field", `{"schema":"cirstag.seq/v1","steps":[{"op":"resize","gate":1}]}`},
		{"trailing data", `{"schema":"cirstag.seq/v1","steps":[{"op":"resize","cell":1,"factor":2}]} {}`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.body)); err == nil {
			t.Errorf("%s: Parse accepted %q", c.name, c.body)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	nl := testDesign(t)
	s := Example(nl, 10, 7)
	if err := s.Validate(nl); err != nil {
		t.Fatalf("example script invalid: %v", err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse round-trip: %v", err)
	}
	if len(got.Steps) != len(s.Steps) || got.Seed != s.Seed {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, s)
	}
}

func TestValidateRejectsBadSteps(t *testing.T) {
	nl := testDesign(t)
	port := nl.PrimaryInputs[0]
	cases := []struct {
		name string
		st   Step
	}{
		{"unknown op", Step{Op: "delete"}},
		{"resize port", Step{Op: OpResize, Cell: port, Factor: 2}},
		{"resize out of range", Step{Op: OpResize, Cell: len(nl.Cells), Factor: 2}},
		{"resize nonpositive factor", Step{Op: OpResize, Cell: gateCell(nl), Factor: 0}},
		{"scale_caps no pins", Step{Op: OpScaleCaps, Factor: 2}},
		{"scale_caps output pin", Step{Op: OpScaleCaps, Pins: []int{outputPin(nl)}, Factor: 2}},
		{"buffer bad net", Step{Op: OpBuffer, Net: len(nl.Nets), Factor: 2}},
		{"merge single cell", Step{Op: OpMerge, Cells: []int{gateCell(nl)}}},
		{"merge duplicate", Step{Op: OpMerge, Cells: []int{gateCell(nl), gateCell(nl)}}},
		{"rewire no pins", Step{Op: OpRewire}},
	}
	for _, c := range cases {
		s := &Script{Schema: SchemaVersion, Steps: []Step{c.st}}
		if err := s.Validate(nl); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.st)
		}
	}
}

func gateCell(nl *circuit.Netlist) int {
	for _, c := range nl.Cells {
		if c.Type != circuit.PortIn && c.Type != circuit.PortOut {
			return c.ID
		}
	}
	return -1
}

func outputPin(nl *circuit.Netlist) int {
	for _, p := range nl.Pins {
		if p.Dir == circuit.DirOut {
			return p.ID
		}
	}
	return -1
}

// TestApplyPreservesPinStructureAndValidity drives every operation kind and
// asserts the invariants the sequence runner relies on: the pin structure is
// untouched (timing.Model.Predict's contract) and the design still validates.
func TestApplyPreservesPinStructureAndValidity(t *testing.T) {
	nl := testDesign(t)
	script := Example(nl, 15, 11)
	if err := script.Validate(nl); err != nil {
		t.Fatal(err)
	}
	cur := nl
	for i, st := range script.Steps {
		next := Apply(cur, st, stepRNG(script.Seed, i))
		if next == cur {
			t.Fatalf("step %d (%s): Apply returned the input netlist", i, st.Op)
		}
		if len(next.Pins) != len(nl.Pins) || len(next.Cells) != len(nl.Cells) {
			t.Fatalf("step %d (%s): pin structure changed: %d pins %d cells, want %d/%d",
				i, st.Op, len(next.Pins), len(next.Cells), len(nl.Pins), len(nl.Cells))
		}
		for p := range next.Pins {
			if next.Pins[p].Dir != nl.Pins[p].Dir || next.Pins[p].Cell != nl.Pins[p].Cell {
				t.Fatalf("step %d (%s): pin %d changed direction or cell", i, st.Op, p)
			}
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("step %d (%s): netlist no longer validates: %v", i, st.Op, err)
		}
		cur = next
	}
}

// TestSequenceOracle is the chained-sequence oracle: a 20-step script is run
// through the incremental sequence runner, and after every step the same
// perturbed output is scored cold (a full core.Run against the pinned step-0
// input manifold). Full-rebuild steps must match the oracle bit for bit; patch
// steps are approximations and must stay within tolerance — rankings strongly
// correlated and the top node's score within a few percent.
func TestSequenceOracle(t *testing.T) {
	nl := testDesign(t)
	script := Example(nl, 20, 7)
	opts := testOptions()
	pred := featPredictor{}

	// Runner under test, capturing the per-step results.
	y0, err := pred.Outputs(nl)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Input{Graph: nl.PinGraph(), Output: y0, Features: nl.Features()}
	base, err := core.NewBaseline(in, opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	res, stepResults := runStepwise(t, nl, base, script, pred, opts)
	if len(res.Steps) != len(script.Steps) || len(stepResults) != len(script.Steps) {
		t.Fatalf("got %d step reports, %d captured results, want %d", len(res.Steps), len(stepResults), len(script.Steps))
	}

	// Oracle: replay the edits independently and score each step cold.
	cur := nl
	patches, rebuilds := 0, 0
	for i := range script.Steps {
		cur = Apply(cur, script.Steps[i], stepRNG(script.Seed, i))
		y, err := pred.Outputs(cur)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Run(core.Input{Graph: in.Graph, Output: y, Features: in.Features}, opts.Core)
		if err != nil {
			t.Fatalf("step %d cold run: %v", i, err)
		}
		inc := stepResults[i]
		rep := res.Steps[i]
		if rep.FullRebuild {
			rebuilds++
			for p := range cold.NodeScores {
				if cold.NodeScores[p] != inc.NodeScores[p] {
					t.Fatalf("step %d (%s, rebuild): score[%d] = %g, cold %g — rebuild must be bit-identical",
						i, rep.Op, p, inc.NodeScores[p], cold.NodeScores[p])
				}
			}
			continue
		}
		if rep.ReusedBaseline {
			continue
		}
		// Patch steps skip the global re-sparsification of G_Y (the documented
		// PatchKNN approximation), so absolute scores drift from the cold
		// oracle; what must survive is the stability *ranking* — strongly
		// correlated scores, the patch path's top node among the oracle's top
		// ranks, and the top magnitude within a factor-level tolerance.
		patches++
		if r := pearson(cold.NodeScores, inc.NodeScores); r < 0.95 {
			t.Errorf("step %d (%s, patch): score correlation %.4f vs cold, want >= 0.95", i, rep.Op, r)
		}
		coldTop, coldScore := argmax(cold.NodeScores)
		incTop, incScore := argmax(inc.NodeScores)
		if !inTopK(cold.NodeScores, incTop, 5) {
			t.Errorf("step %d (%s, patch): top node %d not in the oracle's top 5 (oracle top %d)",
				i, rep.Op, incTop, coldTop)
		}
		if rel := math.Abs(coldScore-incScore) / math.Max(coldScore, 1e-300); rel > 0.5 {
			t.Errorf("step %d (%s, patch): top score %g (node %d) vs cold %g (node %d), rel err %.4f > 0.5",
				i, rep.Op, incScore, incTop, coldScore, coldTop, rel)
		}
	}
	if patches == 0 {
		t.Fatal("oracle never exercised the patch path; sequence too coarse")
	}
	t.Logf("oracle: %d patch steps, %d rebuild steps over %d", patches, rebuilds, len(script.Steps))
}

// TestSequenceDriftGuardBitIdentical drives a sequence of individually
// sub-tolerance cap nudges until the cumulative-drift guard trips, and asserts
// the guard-forced rebuild is bit-identical to a cold run of the same output.
func TestSequenceDriftGuardBitIdentical(t *testing.T) {
	nl := testDesign(t)
	// One pin nudged by a tiny factor each step: below RelTol per step, but
	// the drift ledger accumulates and MaxDriftFrac is tiny.
	pin := -1
	for _, p := range nl.Pins {
		if p.Dir == circuit.DirIn && p.Net >= 0 {
			pin = p.ID
			break
		}
	}
	script := &Script{Schema: SchemaVersion, Name: "drift", Seed: 1}
	for i := 0; i < 12; i++ {
		script.Steps = append(script.Steps, Step{Op: OpScaleCaps, Pins: []int{pin}, Factor: 1.0002})
	}
	opts := testOptions()
	opts.Inc = core.IncrementalOptions{RelTol: 1e-2, MaxDriftFrac: 1e-6}
	pred := featPredictor{}

	y0, _ := pred.Outputs(nl)
	in := core.Input{Graph: nl.PinGraph(), Output: y0, Features: nl.Features()}
	base, err := core.NewBaseline(in, opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	res, stepResults := runStepwise(t, nl, base, script, pred, opts)
	drift := -1
	for i, rep := range res.Steps {
		if rep.DriftRebuild {
			drift = i
			break
		}
	}
	if drift < 0 {
		t.Fatal("drift guard never tripped")
	}
	// Cold-score the output at the drift step: must match bit for bit.
	cur := nl
	for i := 0; i <= drift; i++ {
		cur = Apply(cur, script.Steps[i], stepRNG(script.Seed, i))
	}
	y, _ := pred.Outputs(cur)
	cold, err := core.Run(core.Input{Graph: in.Graph, Output: y, Features: in.Features}, opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	for p := range cold.NodeScores {
		if cold.NodeScores[p] != stepResults[drift].NodeScores[p] {
			t.Fatalf("drift rebuild at step %d: score[%d] = %g, cold %g — must be bit-identical",
				drift, p, stepResults[drift].NodeScores[p], cold.NodeScores[p])
		}
	}
	t.Logf("drift guard tripped at step %d, rebuild bit-identical", drift)
}

// TestRunDeterministic: two identical Run invocations produce bitwise equal
// step reports (modulo latency) and final scores.
func TestRunDeterministic(t *testing.T) {
	nl := testDesign(t)
	script := Example(nl, 8, 13)
	a, err := Run(nl, script, featPredictor{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(nl, script, featPredictor{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Steps {
		x, y := a.Steps[i], b.Steps[i]
		if x.ChangedNodes != y.ChangedNodes || x.Path() != y.Path() || x.TopNode != y.TopNode || x.TopScore != y.TopScore {
			t.Fatalf("step %d diverged: %+v vs %+v", i, x, y)
		}
	}
	for p := range a.Final.NodeScores {
		if a.Final.NodeScores[p] != b.Final.NodeScores[p] {
			t.Fatalf("final score[%d] diverged: %g vs %g", p, a.Final.NodeScores[p], b.Final.NodeScores[p])
		}
	}
}

func pearson(a, b mat.Vec) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// inTopK reports whether node is among the k largest entries of scores.
func inTopK(scores mat.Vec, node, k int) bool {
	above := 0
	for _, s := range scores {
		if s > scores[node] {
			above++
		}
	}
	return above < k
}

func argmax(v mat.Vec) (int, float64) {
	bi, bv := -1, math.Inf(-1)
	for i, x := range v {
		if x > bv {
			bi, bv = i, x
		}
	}
	return bi, bv
}
