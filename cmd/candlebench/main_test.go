package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// buildCandlebench compiles the command once into a temp dir.
func buildCandlebench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "candlebench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCandlebench(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("candlebench %v: %v\n%s", args, err, out)
	}
	return string(out)
}

type commDoc struct {
	Ranks int `json:"ranks"`
	Flat  struct {
		StepMs  float64 `json:"step_ms"`
		Overlap float64 `json:"overlap_fraction"`
	} `json:"flat"`
	Bucketed []struct {
		Buckets int     `json:"buckets"`
		StepMs  float64 `json:"step_ms"`
		Overlap float64 `json:"overlap_fraction"`
		Speedup float64 `json:"speedup_vs_flat"`
	} `json:"bucketed"`
	Compressed []struct {
		Label     string  `json:"label"`
		WireRatio float64 `json:"wire_ratio"`
		StepMs    float64 `json:"step_ms"`
	} `json:"compressed"`
	BestSpeedup float64 `json:"best_speedup"`
}

// TestCommProfileIsBitIdentical generates the gradient-communication profile
// twice and requires byte-identical JSON — the property that lets
// BENCH_comm.json live in the repository — then checks the headline shape:
// bucketed overlap must beat the flat allreduce, and both compressed
// configurations must beat the uncompressed step.
func TestCommProfileIsBitIdentical(t *testing.T) {
	bin := buildCandlebench(t)
	dir := t.TempDir()
	j1 := filepath.Join(dir, "a.json")
	j2 := filepath.Join(dir, "b.json")

	runCandlebench(t, bin, "-comm", j1)
	runCandlebench(t, bin, "-comm", j2)

	b1, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs produced different comm JSON:\n%s\n---\n%s", b1, b2)
	}

	var doc commDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("comm JSON does not parse: %v", err)
	}
	if doc.BestSpeedup <= 1 {
		t.Fatalf("best bucketed speedup %v not above flat", doc.BestSpeedup)
	}
	if doc.Flat.Overlap != 0 {
		t.Fatalf("flat allreduce reports overlap %v", doc.Flat.Overlap)
	}
	sawOverlap := false
	for _, r := range doc.Bucketed {
		if r.Overlap > 0 && r.StepMs < doc.Flat.StepMs {
			sawOverlap = true
		}
	}
	if !sawOverlap {
		t.Fatalf("no bucketed row overlaps and beats flat: %+v", doc.Bucketed)
	}
	if len(doc.Compressed) < 2 {
		t.Fatalf("expected top-k and int8 rows, got %+v", doc.Compressed)
	}
	for _, c := range doc.Compressed {
		if c.WireRatio <= 1 {
			t.Fatalf("%s wire ratio %v not above 1", c.Label, c.WireRatio)
		}
		if c.StepMs >= doc.Flat.StepMs {
			t.Fatalf("%s step %vms not below flat %vms", c.Label, c.StepMs, doc.Flat.StepMs)
		}
	}
}

// TestCommittedCommArtifactIsCurrent regenerates BENCH_comm.json and
// compares it byte-for-byte with the committed copy, so the artifact can
// never drift from the code that claims to produce it.
func TestCommittedCommArtifactIsCurrent(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_comm.json"))
	if err != nil {
		t.Skipf("no committed BENCH_comm.json: %v", err)
	}
	bin := buildCandlebench(t)
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	runCandlebench(t, bin, "-comm", fresh)
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, got) {
		t.Fatal("BENCH_comm.json is stale: regenerate with `make bench-comm`")
	}
}

// TestDataProfileIsBitIdentical generates the tiered-staging data-plane
// profile twice and requires byte-identical JSON — everything in it is
// virtual-clock output of a seeded run through the real streaming loader —
// then checks the E7 crossover shape survives end-to-end execution: warm
// NVRAM staging must crush direct-PFS once the dataset exceeds DRAM, and
// the prefetched warm epoch must sit at max(compute, stage-in).
func TestDataProfileIsBitIdentical(t *testing.T) {
	bin := buildCandlebench(t)
	dir := t.TempDir()
	j1 := filepath.Join(dir, "a.json")
	j2 := filepath.Join(dir, "b.json")

	runCandlebench(t, bin, "-data", j1)
	runCandlebench(t, bin, "-data", j2)

	b1, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs produced different data-plane JSON:\n%s\n---\n%s", b1, b2)
	}

	var rep experiments.DataBenchReport
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatalf("data JSON does not parse: %v", err)
	}
	checkDataReport(t, &rep)
}

// checkDataReport asserts the headline invariants on a data-plane report.
func checkDataReport(t *testing.T, rep *experiments.DataBenchReport) {
	t.Helper()
	row := func(dsGB float64, policy string) experiments.DataBenchRow {
		for _, r := range rep.Rows {
			if r.DatasetGB == dsGB && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("no row for %gGB/%s", dsGB, policy)
		return experiments.DataBenchRow{}
	}
	// Fits DRAM: the warm epoch is compute-bound out of the DRAM cache.
	if r := row(32, "dram-lru"); r.WarmDRAMHits != r.Shards || r.WarmStallFrac > 0.05 {
		t.Fatalf("32GB warm epoch not DRAM-resident and compute-bound: %+v", r)
	}
	// Exceeds DRAM, fits NVRAM: staged NVRAM beats direct PFS by >10x.
	nv, direct := row(256, "nvram-staged"), row(256, "direct-pfs+prefetch")
	if !(nv.WarmEpochS*10 < direct.WarmEpochS) {
		t.Fatalf("NVRAM staging %.1fs not >10x faster than direct PFS %.1fs at 256GB",
			nv.WarmEpochS, direct.WarmEpochS)
	}
	// Prefetch>0 collapses the warm epoch to ~max(compute, stage-in).
	bound := nv.WarmComputeS
	if nv.WarmStageS > bound {
		bound = nv.WarmStageS
	}
	if nv.WarmEpochS < bound-1e-9 || nv.WarmEpochS > 1.05*bound {
		t.Fatalf("prefetched warm epoch %.2fs is not ~max(compute %.2fs, stage %.2fs)",
			nv.WarmEpochS, nv.WarmComputeS, nv.WarmStageS)
	}
	// Exceeds NVRAM: tiering helps, but the PFS is back on the clock.
	t2000, d2000 := row(2000, "tiered-dram-nvram"), row(2000, "direct-pfs+prefetch")
	if !(t2000.WarmEpochS < 0.9*d2000.WarmEpochS) || t2000.WarmPFSReads == 0 {
		t.Fatalf("2TB tiering %.0fs vs direct %.0fs (PFS reads %d): crossover gone",
			t2000.WarmEpochS, d2000.WarmEpochS, t2000.WarmPFSReads)
	}
}

// TestCommittedDataArtifactIsCurrent regenerates BENCH_data.json and
// compares it byte-for-byte with the committed copy (the profile is pure
// virtual-clock output, so it can never legitimately drift), then re-checks
// the committed numbers still carry the E7 crossover.
func TestCommittedDataArtifactIsCurrent(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_data.json"))
	if err != nil {
		t.Skipf("no committed BENCH_data.json: %v", err)
	}
	bin := buildCandlebench(t)
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	runCandlebench(t, bin, "-data", fresh)
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, got) {
		t.Fatal("BENCH_data.json is stale: regenerate with `make bench-data`")
	}
	// Schema currency: decoding into the current report type and re-encoding
	// must reproduce the committed bytes exactly.
	var rep experiments.DataBenchReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		t.Fatalf("data JSON does not parse: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Fatal("BENCH_data.json does not match the current schema: regenerate with `make bench-data`")
	}
	checkDataReport(t, &rep)
}

// TestCommittedKernelsArtifactIsCurrent checks BENCH_kernels.json two ways.
// The numbers are wall-clock measurements, so unlike BENCH_comm.json the file
// cannot be byte-compared against a fresh run; instead (1) decoding it into
// the current KernelsReport and re-encoding must reproduce it byte-for-byte,
// which pins the committed file to the current schema and field order, and
// (2) the committed numbers must still carry the headline claim: every
// kernel measured at the headline size, and packed at least 1.3x the blocked
// kernel of the same precision at 512³ on one worker (measured 1.45x to
// 1.96x: the blocked kernel's speed moves by a third with where the
// toolchain happens to place its inner loop). The ComputeF32 train
// ratio is reported, not asserted: with float64 on the packed kernel too,
// which mode trains faster is a property of the host.
func TestCommittedKernelsArtifactIsCurrent(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Skipf("no committed BENCH_kernels.json: %v", err)
	}
	var rep experiments.KernelsReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		t.Fatalf("kernels JSON does not parse: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Fatal("BENCH_kernels.json does not match the current schema: regenerate with `make bench-kernels`")
	}

	if rep.HeadlineSize != 512 {
		t.Fatalf("headline size %d, want the 512³ acceptance shape", rep.HeadlineSize)
	}
	want := map[string]bool{"f64-blocked": false, "f64-packed": false,
		"f32-naive": false, "f32-blocked": false, "f32-packed": false}
	for _, r := range rep.Gemm {
		if r.GFLOPs <= 0 {
			t.Fatalf("non-positive GFLOP/s row: %+v", r)
		}
		if key := r.Precision + "-" + r.Backend; r.Size == rep.HeadlineSize {
			if _, ok := want[key]; !ok {
				t.Fatalf("unexpected kernel %s in the artifact", key)
			}
			want[key] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("kernel %s not measured at the headline size", name)
		}
	}
	if len(rep.Headline) != 2 || rep.Headline[0].Precision != "f64" || rep.Headline[1].Precision != "f32" {
		t.Fatalf("headline rows %+v missing the f64/f32 pair", rep.Headline)
	}
	for _, h := range rep.Headline {
		if h.PackedVsBlocked < 1.3 {
			t.Fatalf("packed %s only %.2fx the blocked %s GEMM at %d³; the packed kernel's 1.3x claim is gone",
				h.Precision, h.PackedVsBlocked, h.Precision, rep.HeadlineSize)
		}
	}
	if len(rep.Train) != 2 || rep.Train[0].Mode != "f64" || rep.Train[1].Mode != "f32-compute" {
		t.Fatalf("train rows %+v missing the f64/f32-compute pair", rep.Train)
	}
	if rep.TrainRatioF32 <= 0 || rep.Train[1].Ratio != rep.TrainRatioF32 {
		t.Fatalf("train ratio %v does not match its row %+v", rep.TrainRatioF32, rep.Train[1])
	}
}

// checkSearchReport asserts the headline invariants on a search-at-scale
// report (SearchBench already gates them at generation time; re-checking
// here pins the committed numbers, not just the generator).
func checkSearchReport(t *testing.T, rep *experiments.SearchBenchReport) {
	t.Helper()
	if len(rep.Rows) < 3 {
		t.Fatalf("expected at least 3 machine sizes, got %d", len(rep.Rows))
	}
	prevBudget := 0.0
	for _, row := range rep.Rows {
		if row.ShardKills == 0 || row.Interrupted == 0 || row.Steals == 0 || row.Retries == 0 {
			t.Fatalf("fault layer idle at %d nodes: %+v", row.Nodes, row)
		}
		if row.EvalBudget <= prevBudget {
			t.Fatalf("eval budget not growing with machine size at %d nodes", row.Nodes)
		}
		prevBudget = row.EvalBudget
		best := map[string]float64{}
		for _, s := range row.Strategies {
			best[s.Strategy] = s.TrueBest
			if s.Budget != row.EvalBudget || s.CostUsed > s.Budget+1e-9 {
				t.Fatalf("%s at %d nodes: budget %v cost %v (row budget %v)",
					s.Strategy, row.Nodes, s.Budget, s.CostUsed, row.EvalBudget)
			}
		}
		for _, name := range []string{"rl", "pbt"} {
			if best[name] >= best["random"] {
				t.Fatalf("%s true best %.4f not below random %.4f at %d nodes",
					name, best[name], best["random"], row.Nodes)
			}
		}
	}
}

// TestSearchProfileIsBitIdentical generates the search-at-scale profile
// twice and requires byte-identical JSON — the fleet is a deterministic
// discrete-event simulation and the search landscape is analytic, so the
// artifact can live in the repository — then checks the headline shape.
func TestSearchProfileIsBitIdentical(t *testing.T) {
	bin := buildCandlebench(t)
	dir := t.TempDir()
	j1 := filepath.Join(dir, "a.json")
	j2 := filepath.Join(dir, "b.json")

	runCandlebench(t, bin, "-search", j1)
	runCandlebench(t, bin, "-search", j2)

	b1, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs produced different search JSON:\n%s\n---\n%s", b1, b2)
	}

	var rep experiments.SearchBenchReport
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatalf("search JSON does not parse: %v", err)
	}
	checkSearchReport(t, &rep)
}

// TestCommittedSearchArtifactIsCurrent regenerates BENCH_search.json and
// compares it byte-for-byte with the committed copy, then re-checks the
// committed numbers still carry the search-at-scale claims.
func TestCommittedSearchArtifactIsCurrent(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_search.json"))
	if err != nil {
		t.Skipf("no committed BENCH_search.json: %v", err)
	}
	bin := buildCandlebench(t)
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	runCandlebench(t, bin, "-search", fresh)
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, got) {
		t.Fatal("BENCH_search.json is stale: regenerate with `make bench-search`")
	}
	// Schema currency: decode + re-encode must reproduce the bytes.
	var rep experiments.SearchBenchReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		t.Fatalf("search JSON does not parse: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Fatal("BENCH_search.json does not match the current schema: regenerate with `make bench-search`")
	}
	checkSearchReport(t, &rep)
}
