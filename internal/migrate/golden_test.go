package migrate

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ampom/internal/hpcc"
	"ampom/internal/netmodel"
)

// The paper-path golden pins every Result field of a fixed set of runs at
// full precision, so a change to the migration, paging, prefetching or
// network layers that moves one event shows up as a diff here rather than
// as a hand-run cmp of the CLI output.

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_path.golden from the current code")

const paperGoldenFile = "paper_path.golden"

// goldenCase is one pinned run.
type goldenCase struct {
	name string
	cfg  RunConfig
}

// paperGoldenCases builds the pinned runs: the paper's §5 matrix (every
// Table 1 row under the three evaluated schemes) at 1/16 scale, every
// scheme the package defines on each kernel's largest row, and the
// broadband profile under 30 % background load for the paging schemes.
// Seeds are fixed per case; do not edit a case without regenerating the
// golden on a commit whose output is trusted.
func paperGoldenCases(t *testing.T) []goldenCase {
	t.Helper()
	const div = 16
	build := func(e hpcc.Entry, seed uint64) *hpcc.Workload {
		w, err := hpcc.Build(hpcc.Scaled(e, div), seed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var cases []goldenCase
	add := func(group string, w *hpcc.Workload, cfg RunConfig) {
		cfg.Workload = w
		name := fmt.Sprintf("%s %s %s", group, w.Name, cfg.Scheme)
		if cfg.Network.Name != "" {
			name += fmt.Sprintf(" %s load=%g", cfg.Network.Name, cfg.BackgroundLoad)
		}
		cases = append(cases, goldenCase{name: name, cfg: cfg})
	}
	for i, e := range hpcc.Catalogue() {
		seed := uint64(1000 + i)
		w := build(e, seed)
		for _, s := range Schemes() {
			add("matrix", w, RunConfig{Scheme: s, Seed: seed})
		}
	}
	for i, k := range hpcc.Kernels() {
		seed := uint64(2000 + i)
		w := build(hpcc.Largest(k), seed)
		for _, s := range AllSchemes() {
			add("schemes", w, RunConfig{Scheme: s, Seed: seed})
		}
	}
	for i, k := range []hpcc.Kernel{hpcc.DGEMM, hpcc.RandomAccess} {
		seed := uint64(3000 + i)
		w := build(hpcc.Largest(k), seed)
		for _, s := range []Scheme{AMPoM, NoPrefetch, FFAFileServer} {
			add("broadband", w, RunConfig{Scheme: s, Seed: seed, Network: netmodel.Broadband(), BackgroundLoad: 0.3})
		}
	}
	return cases
}

// renderResult prints every exported field of r, one per line, with
// floats in their shortest exact form and durations in nanoseconds.
func renderResult(b *strings.Builder, r *Result) {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		fmt.Fprintf(b, "  %s ", v.Type().Field(i).Name)
		switch f.Kind() {
		case reflect.Float64:
			b.WriteString(strconv.FormatFloat(f.Float(), 'g', -1, 64))
		case reflect.Int64, reflect.Int:
			b.WriteString(strconv.FormatInt(f.Int(), 10))
		case reflect.Uint8, reflect.Uint64:
			b.WriteString(strconv.FormatUint(f.Uint(), 10))
		case reflect.String:
			b.WriteString(strconv.Quote(f.String()))
		default:
			b.WriteString(fmt.Sprintf("%v", f.Interface()))
		}
		b.WriteByte('\n')
	}
}

func renderPaperGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range paperGoldenCases(t) {
		r, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s\n", c.name)
		renderResult(&b, r)
	}
	return b.String()
}

// TestPaperPathGolden requires every pinned run to reproduce the stored
// golden byte for byte. Run with -update to rewrite it.
func TestPaperPathGolden(t *testing.T) {
	got := renderPaperGolden(t)
	path := filepath.Join("testdata", paperGoldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	run := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !strings.HasPrefix(wl[i], "  ") {
			run = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("paper path diverged from %s at line %d (run %q):\n got: %s\nwant: %s", path, i+1, run, gl[i], wl[i])
		}
	}
	t.Fatalf("paper path output has %d lines, golden %d", len(gl), len(wl))
}
