package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestVerdict(t *testing.T) {
	base := []float64{590, 588, 592, 587, 591, 589, 590, 586, 593, 588}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		wins   int
		want   string
	}{
		{"gain", []float64{484, 483, 485, 482, 486, 484, 483, 485, 484, 483}, true, 10, "gain"},
		{"loss", []float64{484, 483, 485, 482, 486, 484, 483, 485, 484, 483}, false, 0, "loss"},
		// Nine wins, but a median gap inside the parent's spread.
		{"within spread", []float64{589, 587, 591, 586, 590, 588, 589, 585, 592, 600}, true, 9, "-"},
		// A median far off, but only eight wins.
		{"eight wins", []float64{484, 483, 485, 482, 486, 484, 483, 485, 600, 600}, true, 8, "-"},
	} {
		wins, v := verdict(base, tc.change, tc.lower)
		if wins != tc.wins || v != tc.want {
			t.Errorf("%s: %d wins, verdict %q; want %d, %q", tc.name, wins, v, tc.wins, tc.want)
		}
	}
	same := []float64{1.25, 1.25, 1.25}
	if _, v := verdict(same, same, true); v != "equal" {
		t.Errorf("identical runs judged %q, want equal", v)
	}
	if _, v := verdict(base[:9], base[:9], true); v != "-" {
		t.Errorf("varying identical pairs judged %q, want -", v)
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.25); q != 1.75 {
		t.Errorf("first quartile of 1..4 is %v, want 1.75", q)
	}
}

// writeRuns writes one perfbench result line per value of metric.
func writeRuns(t *testing.T, name, metric string, failed int, values ...float64) string {
	t.Helper()
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, `{"correct":10,"attempted":10,"failed":%d,"metrics":{%q:{"value":%g,"unit":"MB"},"slowdown.AMPoM":{"value":1.5,"unit":"ratio"}}}`+"\n", failed, metric, v)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokeCompare(t *testing.T) {
	decl := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(decl, []byte(`{"end_to_end":[{"name":"alloc_mb","unit":"MB","better":"lower"},{"name":"slowdown.AMPoM","unit":"ratio","better":"lower"},{"name":"cpu_s","unit":"s","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, "base.jsonl", "alloc_mb", 0, 590, 588, 592, 587, 591, 589, 590, 586, 593, 588)
	change := writeRuns(t, "change.jsonl", "alloc_mb", 0, 484, 483, 485, 482, 486, 484, 483, 485, 484, 483)
	out := clitest.Run(t, decl, base, change)
	for _, want := range []string{"10 pairs", "alloc_mb", "10/10", "gain", "slowdown.AMPoM", "equal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cpu_s") {
		t.Fatalf("a metric no run reports was printed:\n%s", out)
	}
	failed := writeRuns(t, "failed.jsonl", "alloc_mb", 1, 484, 483, 485, 482, 486, 484, 483, 485, 484, 483)
	if out, _ := clitest.RunExpect(t, cli.CodeFail, decl, base, failed); !strings.Contains(out, "change run 1: 1 of 10 operations failed") {
		t.Fatalf("failed operations not reported:\n%s", out)
	}
	clitest.RunExpect(t, cli.CodeFail, decl, base, writeRuns(t, "short.jsonl", "alloc_mb", 0, 1, 2))
	clitest.RunExpect(t, cli.CodeUsage, decl, base)
}
