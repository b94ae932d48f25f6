// Command ampom-benchjson converts `go test -bench` output into a stable
// JSON artefact, so the repository's performance trajectory (the fabric
// event-budget gates above all) is machine-readable and diffable across
// PRs instead of living in CI logs.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkFabric' -benchtime 1x -count 3 . | ampom-benchjson -o BENCH_fabric.json
//	ampom-benchjson -i bench.txt            # read a saved log instead of stdin
//
// Every benchmark result line ("BenchmarkName-P  N  value unit  value unit
// ...") is one sample. The samples of one benchmark — `-count N` repeats
// it N times — fold into one JSON record: the GOMAXPROCS suffix P (absent
// means 1) as its own field, the sample count, the median and minimum
// ns/op, and the median of every custom metric (events/sim-s, migrations,
// B/op, allocs/op) under its reported unit. A host block records the
// converting machine's NumCPU and the log's "cpu:" line, so a row is never
// read without the core count behind it (convert a log on the host that
// produced it). Other non-benchmark lines
// (goos/pkg/PASS headers) pass through silently; a log with no benchmark
// lines is an error, so a CI wiring mistake cannot publish an empty
// artefact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ampom/internal/cli"
)

// benchKey identifies one benchmark: its name and the GOMAXPROCS it ran
// at.
type benchKey struct {
	name       string
	gomaxprocs int
}

// sample is one parsed benchmark line.
type sample struct {
	benchKey
	nsPerOp float64
	metrics map[string]float64
}

// result is one benchmark's record, folded over its samples.
type result struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Samples    int                `json:"samples"`
	NsPerOp    float64            `json:"ns_per_op"`
	MinNsPerOp float64            `json:"min_ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// host describes the machine behind the numbers.
type host struct {
	NumCPU int    `json:"num_cpu"`
	CPU    string `json:"cpu,omitempty"`
}

// document is the artefact shape: results sorted by benchmark name (then
// GOMAXPROCS) under a version gate, like the scenario report artefacts —
// stable however the bench regexp ordered the runs.
type document struct {
	Version    int      `json:"version"`
	Host       host     `json:"host"`
	Benchmarks []result `json:"benchmarks"`
}

// Version is the artefact format version.
const Version = 2

// gomaxprocsSuffix matches the "-8"-style GOMAXPROCS suffix go test
// appends to benchmark names when GOMAXPROCS is above 1.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseLine decodes one benchmark result line, reporting ok=false for
// non-benchmark lines.
func parseLine(line string) (sample, bool, error) {
	if !strings.HasPrefix(line, "Benchmark") {
		return sample{}, false, nil
	}
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return sample{}, false, fmt.Errorf("malformed benchmark line %q", line)
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return sample{}, false, fmt.Errorf("benchmark line %q: bad iteration count: %v", line, err)
	}
	r := sample{benchKey: benchKey{name: fields[0], gomaxprocs: 1}, metrics: map[string]float64{}}
	if m := gomaxprocsSuffix.FindStringSubmatchIndex(r.name); m != nil {
		r.gomaxprocs, _ = strconv.Atoi(r.name[m[2]:m[3]])
		r.name = r.name[:m[0]]
	}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false, fmt.Errorf("benchmark line %q: bad value %q: %v", line, fields[i], err)
		}
		if fields[i+1] == "ns/op" {
			r.nsPerOp = v
			continue
		}
		r.metrics[fields[i+1]] = v
	}
	return r, true, nil
}

// median returns the middle of vs (the mean of the two middle values for
// an even count); it sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// fold merges one benchmark's samples into its record.
func fold(samples []sample) result {
	r := result{Name: samples[0].name, GOMAXPROCS: samples[0].gomaxprocs, Samples: len(samples)}
	ns := make([]float64, len(samples))
	byUnit := map[string][]float64{}
	for i, s := range samples {
		ns[i] = s.nsPerOp
		for unit, v := range s.metrics {
			byUnit[unit] = append(byUnit[unit], v)
		}
	}
	r.MinNsPerOp = slices.Min(ns)
	r.NsPerOp = median(ns)
	if len(byUnit) > 0 {
		r.Metrics = make(map[string]float64, len(byUnit))
		for unit, vs := range byUnit {
			r.Metrics[unit] = median(vs)
		}
	}
	return r
}

// convert parses a full benchmark log into the artefact encoding; numCPU
// is the host's core count.
func convert(in io.Reader, numCPU int) ([]byte, error) {
	doc := document{Version: Version, Host: host{NumCPU: numCPU}}
	var order []benchKey
	samples := map[benchKey][]sample{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok && doc.Host.CPU == "" {
			doc.Host.CPU = strings.TrimSpace(cpu)
			continue
		}
		s, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if samples[s.benchKey] == nil {
			order = append(order, s.benchKey)
		}
		samples[s.benchKey] = append(samples[s.benchKey], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	for _, k := range order {
		doc.Benchmarks = append(doc.Benchmarks, fold(samples[k]))
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		a, b := doc.Benchmarks[i], doc.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.GOMAXPROCS < b.GOMAXPROCS
	})
	addShardSpeedups(doc.Benchmarks)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// addShardSpeedups derives the shard_speedup metric: for every benchmark
// named "<Base>Shards" whose sequential sibling "<Base>" ran at the same
// GOMAXPROCS, the sharded record gains sequential-ns/sharded-ns over the
// median ns/op — above 1.0 the sharded engine wins. Derived here rather
// than in the benchmarks because the two runs are separate benchmark
// functions; recording the ratio in the artefact makes the
// parallel-efficiency trajectory diffable per PR.
func addShardSpeedups(results []result) {
	seq := make(map[benchKey]float64, len(results))
	for _, r := range results {
		seq[benchKey{r.Name, r.GOMAXPROCS}] = r.NsPerOp
	}
	for i := range results {
		r := &results[i]
		base, ok := strings.CutSuffix(r.Name, "Shards")
		if !ok || base == "" {
			continue
		}
		ns, ok := seq[benchKey{base, r.GOMAXPROCS}]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics["shard_speedup"] = ns / r.NsPerOp
	}
}

func main() {
	input := flag.String("i", "", "read the benchmark log from this file (default: stdin)")
	output := flag.String("o", "", "write the JSON artefact to this file (default: stdout)")
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Usage("unexpected arguments %v", flag.Args())
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			cli.Fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	data, err := convert(in, runtime.NumCPU())
	if err != nil {
		cli.Fail("%v", err)
	}
	if *output == "" {
		os.Stdout.Write(data)
		return
	}
	cli.Check(os.WriteFile(*output, data, 0o644))
}
