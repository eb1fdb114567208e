package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cirstag/internal/bench"
	"cirstag/internal/obs/history"
)

// gates is the prefix set CI's bench job passes to -phases.
const gates = "CoreRun,KNNBuild,EffresSketch,DMDQuery,SeqStep"

func gated(name string) bool {
	for _, g := range strings.Split(gates, ",") {
		if strings.HasPrefix(name, g) {
			return true
		}
	}
	return false
}

// writeJSON marshals v into dir/name and returns the path.
func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchReport builds a cirstag.bench/v1 report from (name, ms) pairs.
func benchReport(pairs ...any) *bench.BenchReport {
	rep := &bench.BenchReport{Schema: bench.BenchSchemaVersion}
	for i := 0; i+1 < len(pairs); i += 2 {
		rep.Results = append(rep.Results, bench.BenchResult{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64) * 1e6,
		})
	}
	return rep
}

// runCmd runs the command and returns its exit code, stdout, and stderr.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestBenchRegressionExits1NamingBenchmark(t *testing.T) {
	dir := t.TempDir()
	a := writeJSON(t, dir, "a.json", benchReport("CoreRun/serial", 100.0, "KNNBuild/parallel", 50.0))
	b := writeJSON(t, dir, "b.json", benchReport("CoreRun/serial", 130.0, "KNNBuild/parallel", 50.0))
	code, out, errOut := runCmd("-a", a, "-b", b, "-threshold", "25", "-phases", gates)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "top regression: CoreRun/serial") {
		t.Fatalf("stdout does not name CoreRun/serial:\n%s", out)
	}
}

func TestMissingGatedBenchmarkExits1(t *testing.T) {
	dir := t.TempDir()
	a := writeJSON(t, dir, "a.json", benchReport("CoreRun/serial", 100.0, "KNNBuild/parallel", 50.0))
	b := writeJSON(t, dir, "b.json", benchReport("CoreRun/serial", 100.0))
	code, out, _ := runCmd("-a", a, "-b", b, "-phases", gates)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "KNNBuild/parallel") || !strings.Contains(out, "gone") {
		t.Fatalf("stdout does not report the missing benchmark:\n%s", out)
	}
}

// TestCommittedBaselineGate runs the CI gate on the committed baseline: it
// passes against itself and fails once any gated result is dropped.
func TestCommittedBaselineGate(t *testing.T) {
	path := filepath.Join("..", "..", "ci", "bench_baseline.json")
	if code, out, errOut := runCmd("-a", path, "-b", path, "-threshold", "25", "-phases", gates); code != 0 {
		t.Fatalf("baseline vs itself: exit = %d\n%s%s", code, out, errOut)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if !gated(r.Name) {
			continue
		}
		trimmed := rep
		trimmed.Results = append(append([]bench.BenchResult(nil), rep.Results[:i]...), rep.Results[i+1:]...)
		cur := writeJSON(t, t.TempDir(), "cur.json", &trimmed)
		code, out, _ := runCmd("-a", path, "-b", cur, "-threshold", "25", "-phases", gates)
		if code != 1 || !strings.Contains(out, "top regression: "+r.Name) {
			t.Fatalf("dropping gated %s: exit = %d, want 1 naming it\n%s", r.Name, code, out)
		}
	}
}

func TestLedgerRegressionExits1NamingPhase(t *testing.T) {
	dir := t.TempDir()
	for _, ms := range []float64{100, 200} {
		e := history.Entry{
			Schema: history.SchemaVersion, RunID: "r", Time: "2026-01-01T00:00:00Z",
			Tool: "cirstag", InputHash: "h", PhasesMS: map[string]float64{"core.run": ms, "knn": 10},
		}
		if err := history.Append(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errOut := runCmd("-ledger", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "top regression: core.run wall_ms +100.0%") {
		t.Fatalf("stdout does not name core.run:\n%s", out)
	}
}

func TestBadInputExits2(t *testing.T) {
	dir := t.TempDir()
	good := writeJSON(t, dir, "good.json", benchReport("CoreRun/serial", 100.0))
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	unknown := writeJSON(t, dir, "unknown.json", map[string]string{"schema": "cirstag.nope/v9"})
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"malformed JSON", []string{"-a", good, "-b", malformed}, "not valid JSON"},
		{"unknown schema", []string{"-a", unknown, "-b", good}, "unrecognized schema"},
		{"missing file", []string{"-a", good, "-b", filepath.Join(dir, "absent.json")}, "absent.json"},
		{"files and ledger", []string{"-a", good, "-b", good, "-ledger", dir}, "need either -a/-b or -ledger"},
		{"neither mode", nil, "need either -a/-b or -ledger"},
		{"only -a", []string{"-a", good}, "-a and -b are both required"},
		{"input-hash in file mode", []string{"-a", good, "-b", good, "-input-hash", "h"}, "-input-hash only applies"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCmd(tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			if !strings.Contains(errOut, tc.wantErr) {
				t.Fatalf("stderr = %q, want mention of %q", errOut, tc.wantErr)
			}
		})
	}
}
