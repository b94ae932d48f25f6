// Command ampom-benchab judges paired benchmark runs of a parent revision
// and a change on the same host. It reads the benchmark's metric
// declarations and two files of perfbench result lines, the last JSON line
// of each run, one run per line, where line i of both files is pair i:
//
//	ampom-benchab BENCHMARK.json base.jsonl change.jsonl
//
// `make bench-ab` produces the two files by alternating the runs. For every
// metric the runs report, it prints each side's median and quartiles, how
// many pairs the change wins in the metric's better direction, and a
// verdict:
//
//   - "gain" when the change wins at least 9 of 10 pairs (at least 10
//     pairs) and its median beats the parent's by more than the parent's
//     interquartile range;
//   - "loss" when the parent wins by the same rule;
//   - "equal" when every run on both sides reads the same value, as the
//     model metrics must;
//   - "-" otherwise: the runs cannot tell the two apart.
//
// Quartiles interpolate linearly between order statistics. A failed
// operation on either side is reported on its own line and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"ampom/internal/cli"
)

// declared is one metric of the benchmark declaration.
type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// run is one perfbench result line.
type run struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// summary is one side's spread of a metric.
type summary struct{ q1, median, q3 float64 }

// quantile interpolates the q-th quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarise(values []float64) summary {
	s := slices.Clone(values)
	slices.Sort(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// verdict applies the paired rule to one metric; lower says whether lower
// values are better.
func verdict(base, change []float64, lower bool) (wins int, v string) {
	equal := true
	for i := range base {
		d := change[i] - base[i]
		if lower {
			d = -d
		}
		if d > 0 {
			wins++
		}
		equal = equal && base[i] == change[i] && base[i] == base[0]
	}
	if equal {
		return wins, "equal"
	}
	n := len(base)
	b, c := summarise(base), summarise(change)
	gap := c.median - b.median
	if lower {
		gap = -gap
	}
	switch iqr := b.q3 - b.q1; {
	case n >= 10 && 10*wins >= 9*n && gap > iqr:
		return wins, "gain"
	case n >= 10 && 10*(n-wins) >= 9*n && -gap > iqr:
		return wins, "loss"
	}
	return wins, "-"
}

// readRuns decodes one result line per run.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: line %d: %v", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// compare writes the per-metric table and reports whether any operation
// failed.
func compare(w io.Writer, metrics []declared, base, change []run) (failed bool) {
	fmt.Fprintf(w, "%d pairs\n", len(base))
	fmt.Fprintf(w, "%-40s %-8s %36s %36s %7s  %s\n", "metric", "unit", "base q1 / median / q3", "change q1 / median / q3", "wins", "verdict")
	for _, m := range metrics {
		var b, c []float64
		for i := range base {
			bv, bok := base[i].Metrics[m.Name]
			cv, cok := change[i].Metrics[m.Name]
			if bok && cok {
				b, c = append(b, bv.Value), append(c, cv.Value)
			}
		}
		if len(b) < len(base) {
			continue // not reported by every run of this workload
		}
		wins, v := verdict(b, c, m.Better == "lower")
		bs, cs := summarise(b), summarise(c)
		fmt.Fprintf(w, "%-40s %-8s %10.4g / %10.4g / %10.4g %10.4g / %10.4g / %10.4g %3d/%-3d  %s\n",
			m.Name, m.Unit, bs.q1, bs.median, bs.q3, cs.q1, cs.median, cs.q3, wins, len(b), v)
	}
	for side, runs := range [][]run{base, change} {
		for i, r := range runs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s run %d: %d of %d operations failed\n", []string{"base", "change"}[side], i+1, r.Failed, r.Attempted)
				failed = true
			}
		}
	}
	return failed
}

func main() {
	if len(os.Args) != 4 {
		cli.Usage("want BENCHMARK.json BASE.jsonl CHANGE.jsonl, have %d arguments", len(os.Args)-1)
	}
	data, err := os.ReadFile(os.Args[1])
	cli.Check(err)
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		cli.Fail("%s: %v", os.Args[1], err)
	}
	base, err := readRuns(os.Args[2])
	cli.Check(err)
	change, err := readRuns(os.Args[3])
	cli.Check(err)
	if len(base) == 0 || len(base) != len(change) {
		cli.Fail("%d base runs and %d change runs do not pair", len(base), len(change))
	}
	if compare(os.Stdout, append(decl.EndToEnd, decl.PerLayer...), base, change) {
		cli.Exit(cli.CodeFail)
	}
}
