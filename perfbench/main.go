// Command perfbench is the repository benchmark: it runs one named
// workload of the simulator end to end for a fixed time and prints every
// end-to-end metric BENCHMARK.json declares (or, with --trace 1, every
// per-layer metric) as one JSON object on the last line of its output.
//
//	perfbench --workload rack-farm-failures --seed 7 --seconds 20 --trace 0
//
// Inputs derive from --seed alone. Every batch's outputs are checked; a
// failed check counts as a failed operation. See README.md for the
// workloads, the metric → layer → workload map and held-out seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloads maps each benchmark workload to its set-up function.
var workloads = map[string]func(env) (plan, error){
	"paper-migration":    setupPaper,
	"small-farms":        setupSmallFarms,
	"rack-farm-failures": setupRackFarm,
	"mega-farm-sharded":  setupMegaFarm,
}

// metricDef is one metric declaration of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchDefs is the part of BENCHMARK.json the program reads: the
// declarations are the single source of metric names, units and
// directions.
type benchDefs struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The benchmark runs from the repository root: it reads the metric
// declarations there and writes the traced run's spans under the build
// directory.
const configPath = "BENCHMARK.json"

var traceDir = filepath.Join(".bench_build", "trace")

func loadDefs(path string) (*benchDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDefs
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// procStart approximates process start for the one-off start-up figure.
var procStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation; the exit code is 0 whenever a
// result was printed (its "correct" field carries the checks' verdict)
// and 2 for usage or set-up errors, which print no result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-migration, small-farms, rack-farm-failures, mega-farm-sharded")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	secs := fs.Int("seconds", 20, "measure for at least this many seconds (at least one batch)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments %q", fs.Args())
	}
	defs, err := loadDefs(configPath)
	if err != nil {
		return fail("%v", err)
	}
	setup, ok := workloads[*name]
	declared := false
	for _, w := range defs.Workloads {
		declared = declared || w.Name == *name
	}
	if !ok || !declared {
		return fail("unknown workload %q", *name)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fail("--trace must be 0 or 1")
	}

	cpus := runtime.NumCPU()
	e := env{seed: *seed, workers: cpus, shards: cpus, tiny: *tiny}
	startup := time.Since(procStart)
	deadline := time.Duration(*secs) * time.Second
	start := time.Now()
	sc := &setupClock{setup: setup, e: e}
	p, err := sc.sample()
	if err != nil {
		return fail("set-up: %v", err)
	}
	meta := hostMeta{Workload: *name, Seed: *seed, Seconds: *secs, Trace: *traceMode, Tiny: *tiny,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: cpus, GoVersion: runtime.Version(), Commit: commit(),
		Workers: e.workers, Shards: p.shardCount()}

	res := result{metrics: map[string]float64{}}
	var lines []string
	if *traceMode == 0 {
		// Calibration runs before the first batch and after every batch; the
		// run's CPU times are scaled to the reference speed by the median
		// calibration, which cancels the host's drift between runs.
		var batches []*batch
		cals := []time.Duration{calibrate(e.workers)}
		for another(len(batches), start, deadline) {
			if len(batches) > 0 {
				if _, err := sc.sample(); err != nil {
					return fail("set-up: %v", err)
				}
			}
			b := p.run()
			b.release()
			batches = append(batches, b)
			cals = append(cals, calibrate(e.workers))
		}
		meta.Iterations = len(batches)
		var cs []float64
		for _, c := range cals {
			cs = append(cs, c.Seconds())
		}
		speed := speedFactor(median(cs))
		lines = append(lines, fmt.Sprintf("# calibration_s %.6f speed %.4f", median(cs), speed))
		for i, b := range batches {
			lines = append(lines, fmt.Sprintf("# batch %d wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f calibration_s=%.6f",
				i, b.wall.Seconds(), b.cpu.Seconds(), b.rss, cals[i+1].Seconds()))
		}
		res.absorb(batches)
		res.endToEnd(batches, median(sc.samples), speed)
	} else {
		tr := newTracer()
		root := tr.begin(-1, "workload", *name)
		var plain, traced []*batch
		for another(len(traced), start, deadline) {
			us := tr.begin(root, "untraced", "batch")
			u := p.run()
			tr.end(us)
			t := p.runTraced(tr, root, u)
			u.release()
			t.release()
			plain = append(plain, u)
			traced = append(traced, t)
		}
		probes := runProbes(p.shape(), tr, root)
		tr.end(root)
		meta.Iterations = len(traced)
		res.absorb(plain)
		res.absorb(traced)
		res.perLayer(plain, traced, probes)
		path, err := tr.write(traceDir, meta)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("writing spans: %v", err))
		} else {
			lines = append(lines, "# spans "+path)
		}
		self := tr.selfByLayer()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			lines = append(lines, fmt.Sprintf("# self_s %-9s %.6f", l, self[l]))
		}
	}

	defsUsed := defs.EndToEnd
	if *traceMode == 1 {
		defsUsed = defs.PerLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	mj, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "# meta %s\n", mj)
	fmt.Fprintf(stdout, "# startup_s %.6f\n", startup.Seconds())
	fmt.Fprintf(stdout, "# model_digest %s %s\n", *name, res.digest)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	for _, d := range defsUsed {
		v, ok := res.metrics[d.Name]
		if !ok && *traceMode == 0 {
			res.problems = append(res.problems, fmt.Sprintf("end-to-end metric %s not measured", d.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		out.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Fprintf(stdout, "# metric %-36s %14.6g %-8s %s\n", d.Name, v, d.Unit, d.Better)
	}
	for i, pr := range res.problems {
		if i == 20 {
			fmt.Fprintf(stdout, "# problem ... %d more\n", len(res.problems)-i)
			break
		}
		fmt.Fprintf(stdout, "# problem %s\n", pr)
	}
	out.Attempted, out.Failed = res.attempted, res.failed
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	out.Correct = res.failed == 0 && len(res.problems) == 0
	data, err := json.Marshal(out)
	if err != nil {
		return fail("encoding result: %v", err)
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// another reports whether the run starts another round: always the first,
// then while the next one, at the mean round length so far, would end no
// later than half a round past the deadline.
func another(rounds int, start time.Time, deadline time.Duration) bool {
	if rounds == 0 {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(2*rounds) < deadline
}

// setupClock times the workload's set-up — preset and spec resolution and
// validation, job enumeration, anchor workload builds. Each sample repeats
// set-up for at least 20 ms of thread CPU time with collection paused
// (a group allocates a few MB), so the figure is set-up's own work rather
// than the collector's timing. Samples are taken before every batch, so
// their median spans the host's speed over the whole run, as the batches'
// does.
type setupClock struct {
	setup   func(env) (plan, error)
	e       env
	samples []float64
}

func (s *setupClock) sample() (plan, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var (
		p   plan
		err error
	)
	n, c := 0, threadCPU()
	for n == 0 || threadCPU()-c < 20*time.Millisecond {
		if p, err = s.setup(s.e); err != nil {
			return nil, err
		}
		n++
	}
	s.samples = append(s.samples, (threadCPU()-c).Seconds()/float64(n))
	return p, nil
}

// result accumulates a run's verdict and metrics.
type result struct {
	attempted, failed int
	problems          []string
	digest            string
	metrics           map[string]float64
}

// absorb adds batches' operation counts and problems, and requires every
// batch to reproduce the first one's model digest.
func (r *result) absorb(bs []*batch) {
	for _, b := range bs {
		r.attempted += b.attempted
		r.failed += b.failed
		r.problems = append(r.problems, b.problems...)
	}
	if r.digest == "" && len(bs) > 0 {
		r.digest = bs[0].digest
	}
	for _, b := range bs[1:] {
		if b.digest != bs[0].digest {
			r.failed++
			r.problems = append(r.problems, "model digest differs between batches of one seed")
			break
		}
	}
}

// endToEnd derives the end-to-end metrics from untraced batches: medians
// over batches for the batch figures, nearest-rank percentiles over every
// job of every batch for the job CPU times. CPU times are scaled to the
// reference speed by the factor speed (speedFactor).
func (r *result) endToEnd(bs []*batch, setupS, speed float64) {
	var cpus, allocs, jcpu []float64
	for _, b := range bs {
		cpus = append(cpus, b.cpu.Seconds()*speed)
		allocs = append(allocs, float64(b.alloc)/1e6)
		for _, d := range b.jobCPU {
			jcpu = append(jcpu, d.Seconds()*speed)
		}
	}
	r.metrics["cpu_s"] = median(cpus)
	r.metrics["setup_s"] = setupS * speed
	r.metrics["alloc_mb"] = median(allocs)
	r.metrics["job_cpu_p50_s"] = percentile(jcpu, 50)
	r.metrics["job_cpu_p90_s"] = percentile(jcpu, 90)
	r.metrics["slowdown.AMPoM"] = bs[0].metrics["slowdown.AMPoM"]
	r.metrics["fault_prevention"] = bs[0].metrics["fault_prevention"]
}

// perLayer derives the per-layer metrics: counters from the first
// untraced batch, host timings as medians over batches, shares and
// decision counts from the traced batches, and the probes.
func (r *result) perLayer(plain, traced []*batch, probes map[string]float64) {
	for k, v := range plain[0].metrics {
		r.metrics[k] = v
	}
	var cpus, tcpus, utils, tm []float64
	for i, b := range plain {
		cpus = append(cpus, b.cpu.Seconds())
		tcpus = append(tcpus, traced[i].cpu.Seconds())
		utils = append(utils, b.busy.Seconds()/(b.wall.Seconds()*float64(b.workers)))
	}
	// Traced shares and counts: medians over the traced batches.
	keys := map[string]bool{}
	for _, t := range traced {
		for k := range t.metrics {
			keys[k] = true
		}
	}
	for k := range keys {
		tm = tm[:0]
		for _, t := range traced {
			tm = append(tm, t.metrics[k])
		}
		r.metrics[k] = median(tm)
	}
	for k, v := range probes {
		r.metrics[k] = v
	}
	// Host costs in CPU time, which the hypervisor's steal does not inflate.
	cpu := median(cpus)
	r.metrics["sim.events"] = float64(plain[0].events)
	if plain[0].events > 0 {
		r.metrics["sim.ns_per_event"] = cpu * 1e9 / float64(plain[0].events)
	}
	r.metrics["campaign.jobs"] = float64(plain[0].jobs)
	r.metrics["campaign.worker_util"] = median(utils)
	r.metrics["trace.overhead_frac"] = (median(tcpus) - cpu) / cpu
}
