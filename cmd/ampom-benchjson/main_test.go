package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

// sampleLog mirrors real `go test -bench` output: headers, a plain
// benchmark with custom metrics, one with a GOMAXPROCS suffix, and the PASS
// trailer.
const sampleLog = `goos: linux
goarch: amd64
pkg: ampom
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFabric512 	       1	1304924710 ns/op	      3279 AMPoM_ev_per_sim_s	        95.00 qg_migrations	1113295496 B/op	 1555518 allocs/op
BenchmarkFabric4096-8 	       1	45000000000 ns/op	     13503 AMPoM_ev_per_sim_s
PASS
ok  	ampom	1.315s
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(sampleLog), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokeConvert(t *testing.T) {
	out := clitest.Run(t, "-i", writeSample(t))
	var doc document
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc.Version != Version || len(doc.Benchmarks) != 2 {
		t.Fatalf("decoded version %d with %d benchmarks, want %d and 2", doc.Version, len(doc.Benchmarks), Version)
	}
	// The binary records the core count of the host it ran on.
	if doc.Host.NumCPU != runtime.NumCPU() || doc.Host.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("host %+v, want NumCPU %d and the log's cpu line", doc.Host, runtime.NumCPU())
	}
	// Sorted by name, GOMAXPROCS suffix split off into its own field.
	b4096, b512 := doc.Benchmarks[0], doc.Benchmarks[1]
	if b4096.Name != "BenchmarkFabric4096" || b4096.GOMAXPROCS != 8 || b512.Name != "BenchmarkFabric512" || b512.GOMAXPROCS != 1 {
		t.Fatalf("records %+v, %+v not sorted/split", b4096, b512)
	}
	if b512.NsPerOp != 1304924710 || b512.MinNsPerOp != 1304924710 || b512.Samples != 1 {
		t.Fatalf("ns/op %v (min %v) over %d samples decoded wrong", b512.NsPerOp, b512.MinNsPerOp, b512.Samples)
	}
	if b512.Metrics["AMPoM_ev_per_sim_s"] != 3279 || b512.Metrics["qg_migrations"] != 95 {
		t.Fatalf("custom metrics decoded wrong: %v", b512.Metrics)
	}
	if _, hasNs := b512.Metrics["ns/op"]; hasNs {
		t.Fatal("ns/op leaked into the metrics map")
	}
}

// TestConvertFoldsSamples is the table of fold rules: the GOMAXPROCS
// suffix, -count repeats folding into one record with median and minimum
// ns/op and median metrics, and the host block.
func TestConvertFoldsSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  string
		host host
		want []result
	}{{
		name: "single sample, no suffix, no cpu line",
		log:  "BenchmarkA \t 1\t100 ns/op\t5 ev\n",
		host: host{NumCPU: 4},
		want: []result{{Name: "BenchmarkA", GOMAXPROCS: 1, Samples: 1, NsPerOp: 100, MinNsPerOp: 100,
			Metrics: map[string]float64{"ev": 5}}},
	}, {
		name: "three samples fold to median and min",
		log: "cpu: Test CPU @ 1GHz \nBenchmarkA-2 \t 1\t300 ns/op\t7 ev\t10 B/op\n" +
			"BenchmarkA-2 \t 1\t100 ns/op\t7 ev\t30 B/op\nBenchmarkA-2 \t 1\t200 ns/op\t7 ev\t20 B/op\n",
		host: host{NumCPU: 2, CPU: "Test CPU @ 1GHz"},
		want: []result{{Name: "BenchmarkA", GOMAXPROCS: 2, Samples: 3, NsPerOp: 200, MinNsPerOp: 100,
			Metrics: map[string]float64{"ev": 7, "B/op": 20}}},
	}, {
		name: "even sample count takes the middle mean",
		log:  "BenchmarkA-2 1 400 ns/op\nBenchmarkA-2 1 100 ns/op\n",
		host: host{NumCPU: 2},
		want: []result{{Name: "BenchmarkA", GOMAXPROCS: 2, Samples: 2, NsPerOp: 250, MinNsPerOp: 100}},
	}, {
		name: "distinct GOMAXPROCS stay distinct records, sorted",
		log:  "BenchmarkB-4 1 40 ns/op\nBenchmarkA 1 10 ns/op\nBenchmarkB-2 1 20 ns/op\n",
		host: host{NumCPU: 4},
		want: []result{
			{Name: "BenchmarkA", GOMAXPROCS: 1, Samples: 1, NsPerOp: 10, MinNsPerOp: 10},
			{Name: "BenchmarkB", GOMAXPROCS: 2, Samples: 1, NsPerOp: 20, MinNsPerOp: 20},
			{Name: "BenchmarkB", GOMAXPROCS: 4, Samples: 1, NsPerOp: 40, MinNsPerOp: 40},
		},
	}, {
		name: "shard speedup over the medians",
		log: "BenchmarkF-2 1 90 ns/op\nBenchmarkFShards-2 1 60 ns/op\n" +
			"BenchmarkF-2 1 100 ns/op\nBenchmarkFShards-2 1 40 ns/op\n" +
			"BenchmarkF-2 1 80 ns/op\nBenchmarkFShards-2 1 50 ns/op\n",
		host: host{NumCPU: 2},
		want: []result{
			{Name: "BenchmarkF", GOMAXPROCS: 2, Samples: 3, NsPerOp: 90, MinNsPerOp: 80},
			{Name: "BenchmarkFShards", GOMAXPROCS: 2, Samples: 3, NsPerOp: 50, MinNsPerOp: 40,
				Metrics: map[string]float64{"shard_speedup": 1.8}},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := convert(strings.NewReader(tc.log), tc.host.NumCPU)
			if err != nil {
				t.Fatal(err)
			}
			var doc document
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("output is not JSON: %v\n%s", err, out)
			}
			if doc.Version != Version || doc.Host != tc.host {
				t.Fatalf("version %d host %+v, want %d and %+v", doc.Version, doc.Host, Version, tc.host)
			}
			if !reflect.DeepEqual(doc.Benchmarks, tc.want) {
				t.Fatalf("records\n%+v\nwant\n%+v", doc.Benchmarks, tc.want)
			}
		})
	}
}

func TestSmokeOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if stdout := clitest.Run(t, "-i", writeSample(t), "-o", out); stdout != "" {
		t.Fatalf("-o still wrote to stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkFabric512") {
		t.Fatalf("artefact missing benchmark:\n%s", data)
	}
}

func TestSmokeEmptyInputFails(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeFail, "-i", empty); !strings.Contains(stderr, "no benchmark") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeUnexpectedArgsAreUsageError(t *testing.T) {
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "stray"); !strings.Contains(stderr, "unexpected arguments") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeMalformedLineFails(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("BenchmarkX 1 12 ns/op trailing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeFail, "-i", bad); !strings.Contains(stderr, "malformed") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestShardSpeedupMetric locks the derived parallel-efficiency metric: a
// "<Base>Shards" benchmark paired with its sequential sibling gains
// shard_speedup = sequential-ns / sharded-ns, and nothing else does.
func TestShardSpeedupMetric(t *testing.T) {
	log := `BenchmarkFabric16384 	       1	77000000000 ns/op	      2739 qg_migrations
BenchmarkFabric16384Shards 	       1	38500000000 ns/op	      2739 qg_migrations
BenchmarkFabric512 	       1	1304924710 ns/op
PASS
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	out := clitest.Run(t, "-i", path)
	var doc struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	byName := map[string]map[string]float64{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b.Metrics
	}
	if got := byName["BenchmarkFabric16384Shards"]["shard_speedup"]; got != 2.0 {
		t.Fatalf("shard_speedup = %v, want 2.0", got)
	}
	for _, name := range []string{"BenchmarkFabric16384", "BenchmarkFabric512"} {
		if _, has := byName[name]["shard_speedup"]; has {
			t.Fatalf("%s wrongly carries shard_speedup", name)
		}
	}
}
