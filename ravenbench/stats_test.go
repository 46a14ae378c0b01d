package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0, 1}, {99.9, 100}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
}

// TestTailPercentileRule pins the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{6804, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestMedianMatchesPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestRatioBases pins that a per-unit metric over an empty base reads 0,
// never NaN or Inf: fleet-bare packs no guard lanes.
func TestRatioBases(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %g, want 0", got)
	}
	if got := ratio(6, 4); got != 1.5 {
		t.Errorf("ratio(6, 4) = %g, want 1.5", got)
	}
	var tr stageTrace
	tr.ns[stSweep] = 1000
	tr.ticks = 10
	rep := newReport("t")
	tr.report(rep)
	for name, v := range rep.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v with empty bases", name, v)
		}
	}
	if v := rep.values["guard.sweep_ns_per_lane"]; v != 0 {
		t.Errorf("guard.sweep_ns_per_lane = %g over no packed lanes, want 0", v)
	}
}

func TestReportWritesEveryMetricAndAccounting(t *testing.T) {
	rep := newReport("w")
	rep.attempted = 10
	rep.set("setup_s", 0.5, "x")
	var buf bytes.Buffer
	if err := rep.write(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, buf.String())
	if !res.Correct || res.Attempted != 10 || res.Failed != 0 {
		t.Errorf("result %+v, want correct with 10 attempted", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	if !strings.Contains(buf.String(), "not exercised by w") {
		t.Errorf("unmeasured metrics not flagged:\n%s", buf.String())
	}

	rep.fail(3, "broken")
	buf.Reset()
	if err := rep.write(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	if res := lastResult(t, buf.String()); res.Correct || res.Failed != 3 {
		t.Errorf("after a failure: %+v, want incorrect with 3 failed", res)
	}

	rep.set("setup_s", math.NaN(), "x")
	if err := rep.write(&bytes.Buffer{}, endToEnd); err == nil {
		t.Error("NaN metric written without error")
	}
}

// lastResult decodes the JSON result line, which must be the last line and
// carry exactly the four result keys.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(keys) != 4 {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBenchmarkJSONMatchesProgram pins that the repository's
// BENCHMARK.json declares exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	for _, c := range []struct {
		section  string
		declared []struct{ Name, Unit string }
		program  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: %d metrics declared, program reports %d", c.section, len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.program[i].name || d.Unit != c.program[i].unit {
				t.Errorf("%s[%d]: declared %s %s, program reports %s %s", c.section, i, d.Name, d.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "fleet-bare", "--trace", "2"},
		{"--workload", "fleet-bare", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}
