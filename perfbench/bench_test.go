package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// testSeed was not used while the benchmark was written or tuned.
const testSeed = 97

// TestWorkloadsShort runs every workload, untraced and traced, on a
// small trace for the fewest rounds, and checks that every output check
// passes and every metric is printed: above 0 for the end-to-end ones,
// and above 0 for the per-layer ones of the layers the workload runs.
func TestWorkloadsShort(t *testing.T) {
	// Per-layer metrics that must be above 0 on each workload, by module
	// prefix; the others read 0 there (see README.md).
	applies := map[string][]string{
		"wire-proposal": {"server.", "engine.lookup", "engine.hits", "engine.misses", "engine.writes",
			"engine.bypassed", "cluster.", "cache.", "core.decide", "core.bypass", "core.onetime",
			"flash.", "ml.", "features.", "labeling.", "trace.", "tier.", "runtime.", "tracing."},
		"engine-original": {"engine.lookup", "engine.hits", "engine.misses", "engine.writes", "cluster.",
			"cache.", "core.decide", "flash.", "trace.", "tier.", "runtime.", "tracing."},
		"sim-proposal": {"engine.lookup", "engine.hits", "engine.misses", "engine.writes", "engine.bypassed",
			"cache.", "core.decide", "core.bypass", "core.onetime", "core.history", "ml.", "features.",
			"labeling.", "trace.", "runtime.", "tracing."},
	}
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := runConfig{seed: testSeed, measure: 1, traced: traced, photos: 3000, subSeeds: 2}
				rep, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.print(&out, stamp(name, cfg)); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.HasPrefix(lines[0], "env {") {
					t.Errorf("first line is not the environment stamp: %q", lines[0])
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "check FAIL") {
						t.Error(l)
					}
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.Name)
					case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v %s", d.Name, m.Value, m.Unit)
					case (!traced || hasPrefix(d.Name, applies[name])) && m.Value <= 0:
						t.Errorf("%s = %v, want above 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json's metric lists
// in step with the ones the benchmark prints.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestUsage checks that a bad command line fails without a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-proposal", "--seconds", "0"},
		{"--workload", "sim-proposal", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
