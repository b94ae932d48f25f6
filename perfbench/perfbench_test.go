package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// smokeResult is the last output line of one run.
type smokeResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload at tiny size for a single batch and parses
// its output. Callers have changed to the repository root, where the
// benchmark runs.
func smokeRun(t *testing.T, workload string, trace int) (string, smokeResult) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "0",
		"--trace", strconv.Itoa(trace), "--tiny"}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res smokeResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v\n%s", workload, trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return out.String(), res
}

// TestSmokeEveryMetricEmitted runs every workload at tiny size, untraced and
// traced, and asserts that every metric BENCHMARK.json names is emitted with
// its unit — in the result object and, with its direction, in the metric
// table — that end-to-end metrics are never zero, and that every per-layer
// metric is wired to something: non-zero on at least one workload.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	t.Chdir("..")
	defs, err := loadDefs(configPath)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := map[string]bool{}
	for _, w := range defs.Workloads {
		for trace, list := range [][]metricDef{defs.EndToEnd, defs.PerLayer} {
			out, res := smokeRun(t, w.Name, trace)
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(list))
			}
			for _, d := range list {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s unit %q, declared %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if !metricLine(out, d) {
					t.Errorf("%s trace=%d: no table line for %s with unit %s and direction %s", w.Name, trace, d.Name, d.Unit, d.Better)
				}
				if trace == 0 && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.Name, *m.Value)
				}
				if *m.Value != 0 {
					nonzero[d.Name] = true
				}
			}
		}
	}
	for _, d := range defs.PerLayer {
		if !nonzero[d.Name] {
			t.Errorf("per-layer metric %s is zero on every workload", d.Name)
		}
	}
}

// metricLine reports whether out carries the "# metric" table line of d.
func metricLine(out string, d metricDef) bool {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 6 && f[1] == "metric" && f[2] == d.Name && f[4] == d.Unit && f[5] == d.Better {
			return true
		}
	}
	return false
}

// TestSmokeUnknownWorkloadPrintsNoResult: a bad invocation exits non-zero
// without printing a result line.
func TestSmokeUnknownWorkloadPrintsNoResult(t *testing.T) {
	t.Chdir("..")
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errb); code == 0 {
		t.Fatalf("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed %q", out.String())
	}
}
