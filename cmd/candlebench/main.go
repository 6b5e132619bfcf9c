// Command candlebench runs the paper-reproduction experiment suite (E1-E17)
// and prints one result table per experiment.
//
// Usage:
//
//	candlebench [-quick] [-seed N] [-only E3,E8] [-csv dir] [-json dir]
//	            [-metrics m.jsonl] [-trace t.json] [-comm BENCH_comm.json]
//	            [-kernels BENCH_kernels.json] [-data BENCH_data.json]
//
// Each experiment reproduces one architectural claim of Stevens' HPDC 2017
// keynote; DESIGN.md maps claims to experiments and EXPERIMENTS.md records
// the measured shapes. -trace wraps every experiment in a phase span (with
// trainer/collective/scheduler spans nested inside) and writes a
// chrome://tracing-loadable JSON file; -metrics dumps the suite's counters,
// gauges and timer histograms as JSON lines; -json writes each table as a
// machine-readable JSON file next to the usual CSV export.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "shrink budgets for a fast pass")
	seed := flag.Uint64("seed", 1, "root seed for all experiments")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E8); empty = all")
	csvDir := flag.String("csv", "", "directory to also write per-experiment CSV files into")
	jsonDir := flag.String("json", "", "directory to also write per-experiment JSON tables into")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations A1-A3")
	metricsOut := flag.String("metrics", "", "write suite counters/gauges/timer histograms as JSONL to this file")
	omOut := flag.String("metrics-out", "", "write suite counters/gauges/histograms in OpenMetrics (Prometheus) text format to this file")
	traceOut := flag.String("trace", "", "write a chrome://tracing span trace (JSON) to this file")
	commOut := flag.String("comm", "", "write the deterministic gradient-communication profile (BENCH_comm.json) to this file and exit")
	kernelsOut := flag.String("kernels", "", "measure the GEMM kernel profile (BENCH_kernels.json) on this host, write it to this file, and exit")
	dataOut := flag.String("data", "", "write the deterministic tiered-staging data-plane profile (BENCH_data.json) to this file and exit")
	searchOut := flag.String("search", "", "write the deterministic search-at-scale profile (BENCH_search.json) to this file and exit")
	flag.Parse()

	if *commOut != "" {
		// The committed profile is pure machine-model output: same binary,
		// same bytes, so the artifact can be byte-compared in tests.
		writeTo(*commOut, experiments.CommBench().WriteJSON)
		fmt.Printf("comm profile: %s\n", *commOut)
		return
	}
	if *dataOut != "" {
		// Virtual-clock output of a seeded run through the real streaming
		// loader: same binary, same bytes, byte-compared in tests.
		writeTo(*dataOut, experiments.DataBench().WriteJSON)
		fmt.Printf("data-plane profile: %s\n", *dataOut)
		return
	}
	if *searchOut != "" {
		// Virtual-clock fleet scheduling plus analytic search landscape:
		// same binary, same bytes, byte-compared in tests. SearchBench also
		// gates the headline invariants (fault layer on, throughput grows
		// with nodes, learning searchers beat random at equal budget).
		rep, err := experiments.SearchBench(*seed, nil)
		if err != nil {
			fail(err)
		}
		writeTo(*searchOut, rep.WriteJSON)
		fmt.Printf("search-at-scale profile: %s\n", *searchOut)
		return
	}
	if *kernelsOut != "" {
		// Wall-clock measurement: the artifact test asserts the committed
		// headline invariants rather than byte-comparing a regeneration.
		rep := experiments.KernelsBench(*quick)
		writeTo(*kernelsOut, rep.WriteJSON)
		fmt.Printf("kernels profile: %s (packed vs blocked at %d³: f64 %.2fx, f32 %.2fx; ComputeF32 train ratio %.2f)\n",
			*kernelsOut, rep.HeadlineSize, rep.Headline[0].PackedVsBlocked, rep.Headline[1].PackedVsBlocked, rep.TrainRatioF32)
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var sess *obs.Session
	if *metricsOut != "" || *omOut != "" || *traceOut != "" {
		sess = obs.NewSession()
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Obs: sess}
	suite := experiments.All()
	if *ablations {
		suite = append(suite, experiments.Ablations()...)
	}
	ran := 0
	for _, e := range suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("--- %s: %q\n", e.ID, e.Claim)
		start := time.Now()
		sp := sess.Span(0, e.ID)
		sp.SetArg("claim", e.Claim)
		table := e.Run(cfg)
		sp.End()
		if err := table.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "candlebench: %s render: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			writeTable(*csvDir, e.ID, ".csv", table.WriteCSV)
		}
		if *jsonDir != "" {
			writeTable(*jsonDir, e.ID, ".json", table.WriteJSON)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "candlebench: no experiments matched -only")
		os.Exit(1)
	}
	if *metricsOut != "" {
		writeTo(*metricsOut, sess.WriteMetricsJSONL)
		fmt.Printf("metrics: %s\n", *metricsOut)
	}
	if *omOut != "" {
		writeTo(*omOut, sess.WriteOpenMetrics)
		fmt.Printf("openmetrics: %s\n", *omOut)
	}
	if *traceOut != "" {
		writeTo(*traceOut, sess.WriteChromeTrace)
		fmt.Printf("trace:   %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, sess.Tracer.NumEvents())
	}
}

// writeTable writes one experiment table into dir/<id><ext> via fn.
func writeTable(dir, id, ext string, fn func(w io.Writer) error) {
	writeTo(filepath.Join(dir, strings.ToLower(id)+ext), fn)
}

// writeTo writes via fn into path, exiting the command on any error.
func writeTo(path string, fn func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := fn(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "candlebench: %v\n", err)
	os.Exit(1)
}
