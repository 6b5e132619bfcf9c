// Command bench is the repo's wall-clock benchmark: four workloads (dense
// training to a quality target, data-parallel training from streamed shards,
// and a live serve.Server under closed- and open-loop load), each measured
// end to end with tracing off and, in a separate traced run, layer by layer.
// Every layer is timed from outside, by calls into its public functions from
// this directory; nothing in the program under test is switched or edited.
//
// BENCHMARK.json at the repo root is generated from the tables in spec.go
// (bench -manifest) and names this directory's run.sh as its command. See
// README.md for the workloads, the metric tables and how to compare runs.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	p       params
	// spanDir, when set, receives the traced run's span file.
	spanDir string
}

// meter collects what a workload measured. Metrics a workload does not set
// read 0, which is how a per-layer metric of an unexercised layer reports.
type meter struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newMeter() *meter {
	return &meter{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *meter) set(name string, v float64) { m.values[name] = v }

// setN records a metric together with the number of samples behind it.
func (m *meter) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// problem records a failed correctness check: the run is a failed run, not
// a slow one.
func (m *meter) problem(format string, a ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, a...))
}

func (m *meter) note(format string, a ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, a...))
}

// untracedRun is what an untraced run hands over to be turned into the
// end-to-end metrics; every workload reports through it, so each metric has
// one definition.
type untracedRun struct {
	setupS    float64
	toQuality time.Duration // first op to goal
	wall      time.Duration // the timed region
	samples   int           // samples of successful ops
	attempted int           // ops attempted
	failed    int           // of them, failed
	latNS     []int64       // latency of each successful op
	limit     time.Duration // latency limit a successful op must also meet; 0: none
	allocMB   float64       // TotalAlloc over the timed region
}

// tailMS is the 99th percentile as the benchmark reports it: the run's ops,
// in the order they completed, are cut into up to ten equal stretches of at
// least 1000 ops (ten beyond the percentile), and the median of the
// stretches' p99 is taken. One host stall lands in one stretch and moves the
// whole-run p99 by a tenth; a tail the program itself produces is in every
// stretch and stays. Fewer than 2000 ops are one stretch, and fewer than
// 1000 are read at tailPercentile: two or three outliers are not a tail.
func tailMS(ns []int64) float64 {
	k := min(10, len(ns)/1000)
	if k < 2 {
		return quantile(sorted(msOf(ns)), tailPercentile(len(ns)))
	}
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = quantile(sorted(msOf(ns[i*len(ns)/k:(i+1)*len(ns)/k])), 0.99)
	}
	return median(tails)
}

// tailPercentile is the percentile latency_p99_ms is read at: the 99th, or
// with fewer than 1000 samples the highest one that has ten samples beyond
// it (train_dense, ~150 steps: the 90th), never below the median.
func tailPercentile(n int) float64 {
	return min(0.99, max(0.5, highestSupported(n)))
}

func (m *meter) reportEndToEnd(r untracedRun) error {
	lat := sorted(msOf(r.latNS))
	// A failed op has no latency sample and misses any limit.
	ok := r.attempted - r.failed
	if r.limit > 0 {
		limitMS := float64(r.limit) / 1e6
		ok = sort.Search(len(lat), func(i int) bool { return lat[i] > limitMS })
	}
	m.set("setup_s", r.setupS)
	m.set("time_to_quality_s", r.toQuality.Seconds())
	m.set("samples_per_s", float64(r.samples)/r.wall.Seconds())
	m.set("throughput_rps", float64(ok)/r.wall.Seconds())
	m.setN("latency_p50_ms", quantile(lat, 0.5), len(lat))
	m.setN("latency_p99_ms", tailMS(r.latNS), len(lat))
	m.note("whole-run p99 %.6g ms", quantile(lat, 0.99))
	m.set("slo_attainment", float64(ok)/float64(r.attempted))
	m.set("alloc_mb_per_kop", r.allocMB/float64(r.attempted)*1000)
	if tp := tailPercentile(len(lat)); tp < 0.99 {
		m.note("latency_p99_ms rests on %d samples and is read at p%g, the highest percentile with ten samples beyond it",
			len(lat), tp*100)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("peak_rss_mb", rss)
	return nil
}

// runRecord is one run as stored in an -out file and read by -compare.
type runRecord struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"ops_attempted"`
	Succeeded  int                `json:"ops_succeeded"`
	Failed     int                `json:"ops_failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

// runSet is the content of an -out file.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

// driverResult is the last line of standard output of a single-workload
// run, in the shape the benchmark driver parses.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf is the list a run must report in full: the end-to-end metrics
// with tracing off, the per-layer metrics from a traced run.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in this process and returns its record.
func runOne(w workloadDef, c runConfig, quick bool) runRecord {
	runtime.GOMAXPROCS(procs)
	m := newMeter()
	if err := w.run(c, m); err != nil {
		m.problem("%v", err)
	}
	rec := runRecord{Workload: w.Name, Traced: c.traced,
		Provenance: stamp(c.seed, c.seconds, quick),
		Attempted:  m.attempted, Failed: m.failed, Succeeded: m.attempted - m.failed,
		Metrics: map[string]float64{}, Samples: m.samples}
	for _, d := range metricsOf(c.traced) {
		v := m.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.problem("%s is not finite", d.Name)
			v = 0
		}
		rec.Metrics[d.Name] = v
	}
	if rec.Attempted < 1 {
		m.problem("no operation was attempted")
		rec.Attempted = 1
	}
	if m.failed > 0 {
		m.problem("%d of %d operations failed", m.failed, m.attempted)
	}
	rec.Problems = m.problems
	rec.Correct = len(m.problems) == 0
	for _, n := range m.notes {
		fmt.Println(n)
	}
	return rec
}

// printRecord prints every metric of a run by name with its unit.
func printRecord(rec runRecord) {
	kind := "end-to-end, tracing off"
	if rec.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s (%s): ops attempted %d, succeeded %d, failed %d\n",
		rec.Workload, kind, rec.Attempted, rec.Succeeded, rec.Failed)
	for _, d := range metricsOf(rec.Traced) {
		n := ""
		if c, ok := rec.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-38s %14.6g %s%s\n", d.Name, rec.Metrics[d.Name], d.Unit, n)
	}
	for _, p := range rec.Problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
}

func (rec runRecord) driverLine() string {
	out := driverResult{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]driverValue{}}
	for _, d := range metricsOf(rec.Traced) {
		out.Metrics[d.Name] = driverValue{rec.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

func writeSet(path string, set runSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (runSet, error) {
	var set runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errChecksFailed = errors.New("a correctness check failed")

// checkManifest refuses to measure when the BENCHMARK.json of the checkout
// the benchmark was started in is not the one the tables in spec.go
// generate: the driver would ask for names this program does not emit, or
// gate on bounds it does not report. A run started outside a checkout's root
// has no file to check.
func checkManifest() error {
	got, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	want, err := manifest()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("BENCHMARK.json differs from the tables in bench/spec.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	return nil
}

func realMain() error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a fresh child process)")
	seed := fs.Uint64("seed", 1, "workload seed; the program under test receives only the inputs generated from it")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	reps := fs.Int("reps", 1, "runs per workload (seeds seed, seed+1, ...) when running every workload")
	out := fs.String("out", "", "write the runs to this JSON file (and a traced run's spans next to it)")
	quick := fs.Bool("quick", false, "sub-second smoke sizes, for tests only; never for reported numbers")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	repeat := fs.Bool("repeat", false, "run two full sets of the same code back to back and compare them")
	showManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric and workload tables")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	switch {
	case *showManifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files, got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if err := checkManifest(); err != nil {
		return err
	}
	switch {
	case *repeat:
		return repeatSets(*seed, *seconds, *reps, *quick, *out)
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.Name
			}
			return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
		}
		c := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, p: constants(*quick)}
		if *out != "" {
			c.spanDir = filepath.Dir(*out)
		}
		rec := runOne(w, c, *quick)
		prov, err := json.Marshal(rec.Provenance)
		if err != nil {
			return err
		}
		fmt.Printf("provenance %s\n", prov)
		printRecord(rec)
		if *out != "" {
			if err := writeSet(*out, runSet{Runs: []runRecord{rec}}); err != nil {
				return err
			}
		}
		fmt.Println(rec.driverLine())
		if !rec.Correct {
			return errChecksFailed
		}
		return nil
	default:
		set, err := runAll(*seed, *seconds, *reps, *quick, true)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeSet(*out, set); err != nil {
				return err
			}
		}
		summarize(set)
		for _, r := range set.Runs {
			if !r.Correct {
				return errChecksFailed
			}
		}
		return nil
	}
}
