package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// runQuick executes an experiment in quick mode and returns its table text.
func runQuick(t *testing.T, id string) (*Experiment, string) {
	t.Helper()
	e := ByID(id)
	if e == nil {
		t.Fatalf("experiment %s missing", id)
	}
	tb := e.Run(Config{Quick: true, Seed: 1})
	if tb.NumRows() == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return e, tb.String()
}

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s", i, e.ID)
		}
		if e.Claim == "" {
			t.Fatalf("%s has no claim", e.ID)
		}
	}
	if ByID("E42") != nil {
		t.Fatal("phantom experiment found")
	}
}

// parse pulls float columns out of a rendered table for shape assertions.
func tableRows(s string) [][]string {
	var rows [][]string
	for i, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if i < 3 || strings.TrimSpace(line) == "" { // title, header, sep
			continue
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func f(t *testing.T, s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float", s)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	_, out := runQuick(t, "E1")
	rows := tableRows(out)
	// Find tumor fp64 accuracy and fp32 accuracy: should be close; modelled
	// speedup should be >= 1 and monotone non-decreasing with narrower types.
	var acc64, acc32, sp64, sp16 float64
	for _, r := range rows {
		if r[0] == "tumor-hard" && r[1] == "fp64" {
			acc64, sp64 = f(t, r[3]), f(t, r[7])
		}
		if r[0] == "tumor-hard" && r[1] == "fp32" {
			acc32 = f(t, r[3])
		}
		if r[0] == "tumor-hard" && r[1] == "fp16" && r[2] == "yes" {
			sp16 = f(t, r[7])
		}
	}
	if math.Abs(acc64-acc32) > 0.1 {
		t.Fatalf("fp32 accuracy %v far from fp64 %v", acc32, acc64)
	}
	if sp64 != 1 {
		t.Fatalf("fp64 speedup %v != 1", sp64)
	}
	if sp16 <= 1.5 {
		t.Fatalf("fp16 modelled speedup %v too small", sp16)
	}
}

func TestE2Shape(t *testing.T) {
	_, out := runQuick(t, "E2")
	rows := tableRows(out)
	// GEMV rows must be bandwidth bound; square GEMM compute bound.
	for _, r := range rows {
		if strings.HasPrefix(r[0], "gemv") && r[8] != "bandwidth" {
			t.Fatalf("GEMV classified as %s", r[8])
		}
		if strings.HasPrefix(r[0], "gemm(square)") && r[8] != "compute" {
			t.Fatalf("square GEMM classified as %s", r[8])
		}
	}
}

func TestE3Shape(t *testing.T) {
	_, out := runQuick(t, "E3")
	rows := tableRows(out)
	// Modelled strong efficiency at 256 ranks must be far below weak at 256.
	var strong256, weak256 float64
	for _, r := range rows {
		if r[7] != "model" {
			continue
		}
		if r[0] == "strong" && r[1] == "256" {
			strong256 = f(t, r[5])
		}
		if r[0] == "weak" && r[1] == "256" {
			weak256 = f(t, r[5])
		}
	}
	if strong256 >= weak256 {
		t.Fatalf("strong efficiency %v not below weak %v at 256 ranks", strong256, weak256)
	}
	if weak256 < 0.2 {
		t.Fatalf("weak scaling collapsed too: %v", weak256)
	}
}

func TestE4Shape(t *testing.T) {
	_, out := runQuick(t, "E4")
	rows := tableRows(out)
	// The best feasible configuration must be a true combination:
	// S > 1 (model doesn't fit one node) and K > 1 (search parallelism).
	bestTime := math.Inf(1)
	var bestS, bestR, bestK int
	for _, r := range rows {
		if r[3] != "true" {
			continue
		}
		ct := f(t, r[7])
		if ct < bestTime {
			bestTime = ct
			bestS, _ = strconv.Atoi(r[0])
			bestR, _ = strconv.Atoi(r[1])
			bestK, _ = strconv.Atoi(r[2])
		}
	}
	if bestS < 2 {
		t.Fatalf("winner uses S=%d; model cannot fit one node", bestS)
	}
	if bestK < 2 {
		t.Fatalf("winner uses no search parallelism (K=%d)", bestK)
	}
	if bestS*bestR*bestK != 4096 {
		t.Fatalf("winner %dx%dx%d does not use the machine", bestS, bestR, bestK)
	}
}

func TestE5Shape(t *testing.T) {
	_, out := runQuick(t, "E5")
	rows := tableRows(out)
	// Step time must be non-increasing with bandwidth, and the lowest
	// bandwidth row must be bandwidth-bound with data-motion-dominated energy.
	prev := math.Inf(1)
	for i, r := range rows {
		st := f(t, r[3])
		if st > prev*1.0001 {
			t.Fatalf("step time increased with bandwidth at row %d", i)
		}
		prev = st
	}
	first := rows[0]
	if first[8] != "bandwidth" {
		t.Fatalf("lowest bandwidth not bandwidth-bound: %v", first)
	}
	if f(t, first[7]) < 0.5 {
		t.Fatalf("low-bandwidth energy not data-dominated: %v", first[7])
	}
	last := rows[len(rows)-1]
	if last[8] != "compute" {
		t.Fatalf("highest bandwidth not compute-bound: %v", last)
	}
}

func TestE6Shape(t *testing.T) {
	_, out := runQuick(t, "E6")
	rows := tableRows(out)
	// At the highest fabric bandwidth, some multi-stage config must beat
	// 1-stage (speedup > 1); at 10 GB/s the handoff fraction at 16 stages
	// must exceed the 300 GB/s one.
	var speed300 float64
	var hand10, hand300 float64
	for _, r := range rows {
		bw := f(t, r[0])
		stages, _ := strconv.Atoi(r[1])
		if bw == 300 && stages == 8 {
			speed300 = f(t, r[5])
		}
		if stages == 16 {
			if bw == 10 {
				hand10 = f(t, r[4])
			}
			if bw == 300 {
				hand300 = f(t, r[4])
			}
		}
	}
	if speed300 <= 1 {
		t.Fatalf("8-stage pipeline on fast fabric no faster than 1 stage: %v", speed300)
	}
	if hand10 <= hand300 {
		t.Fatalf("slow fabric handoff fraction %v not above fast fabric %v", hand10, hand300)
	}
}

func TestE7Shape(t *testing.T) {
	_, out := runQuick(t, "E7")
	rows := tableRows(out)
	// At the mid dataset (exceeds DRAM, fits NVRAM): resident-dram must be
	// infeasible, prefetch-nvram must beat direct-pfs.
	var direct, prefetchNV float64
	residentInfeasible := false
	for _, r := range rows {
		if r[0] != "256.0" {
			continue
		}
		switch r[1] {
		case "direct-pfs":
			direct = f(t, r[2])
		case "prefetch-nvram":
			prefetchNV = f(t, r[2])
		case "resident-dram":
			if r[2] == "infeasible" {
				residentInfeasible = true
			}
		}
	}
	if !residentInfeasible {
		t.Fatal("256 GB dataset should not fit 64 GB DRAM")
	}
	if prefetchNV >= direct {
		t.Fatalf("NVRAM prefetch (%v) not faster than direct PFS (%v)", prefetchNV, direct)
	}
}

func TestE8Shape(t *testing.T) {
	_, out := runQuick(t, "E8")
	rows := tableRows(out)
	if len(rows) < 7 {
		t.Fatalf("expected one row per strategy, got %d", len(rows))
	}
	// All budget-used within the cap.
	for _, r := range rows {
		if used := f(t, r[2]); used > 8+1e-6 {
			t.Fatalf("%s overspent: %v", r[1], used)
		}
	}
}

func TestE9Shape(t *testing.T) {
	_, out := runQuick(t, "E9")
	rows := tableRows(out)
	// At high heterogeneity (sigma 1.2), hierarchical must beat static.
	var static, hier float64
	for _, r := range rows {
		if r[1] == "1.2000" || r[1] == "1.2" {
			if r[2] == "static" {
				static = f(t, r[3])
			}
			if r[2] == "hierarchical" {
				hier = f(t, r[3])
			}
		}
	}
	if static == 0 || hier == 0 {
		t.Fatalf("missing scheduler rows:\n%s", out)
	}
	if hier >= static {
		t.Fatalf("hierarchical (%v h) not better than static (%v h)", hier, static)
	}
}

func TestE10Shape(t *testing.T) {
	_, out := runQuick(t, "E10")
	rows := tableRows(out)
	// Per machine size: the optimum must be finite and interior — some
	// nonzero interval beats both never-checkpointing and the largest grid
	// interval — and the optimal interval must shrink as the machine grows
	// (system MTBF falls with node count).
	type group struct {
		bestInterval, bestWall float64
		neverWall, maxInterval float64
		maxIntervalWall, daly  float64
	}
	groups := map[string]*group{}
	for _, r := range rows {
		g := groups[r[0]]
		if g == nil {
			g = &group{}
			groups[r[0]] = g
		}
		interval, wall := f(t, r[2]), f(t, r[4])
		g.daly = f(t, r[3])
		if interval == 0 {
			g.neverWall = wall
		}
		if interval > g.maxInterval {
			g.maxInterval, g.maxIntervalWall = interval, wall
		}
		if r[5] == "*" {
			g.bestInterval, g.bestWall = interval, wall
		}
	}
	if len(groups) != 3 {
		t.Fatalf("expected 3 machine sizes, got %d:\n%s", len(groups), out)
	}
	for nodes, g := range groups {
		if g.bestInterval <= 0 || math.IsInf(g.bestWall, 1) {
			t.Fatalf("nodes=%s: no finite optimum (best interval %v wall %v)",
				nodes, g.bestInterval, g.bestWall)
		}
		if g.bestWall >= g.neverWall {
			t.Fatalf("nodes=%s: checkpointing (%v h) no better than never (%v h)",
				nodes, g.bestWall, g.neverWall)
		}
		if g.bestInterval == g.maxInterval && g.bestWall >= g.maxIntervalWall {
			t.Fatalf("nodes=%s: optimum sits on the grid edge", nodes)
		}
		// The empirical optimum brackets Daly's analytic one.
		if g.bestInterval < g.daly/8 || g.bestInterval > g.daly*8 {
			t.Fatalf("nodes=%s: empirical optimum %v far from Daly %v",
				nodes, g.bestInterval, g.daly)
		}
	}
	if groups["256"].bestInterval < groups["4096"].bestInterval {
		t.Fatalf("optimal interval grew with machine size: 256→%v, 4096→%v",
			groups["256"].bestInterval, groups["4096"].bestInterval)
	}
}

func TestE12Shape(t *testing.T) {
	_, out := runQuick(t, "E12")
	rows := tableRows(out)
	// Columns: scenario budget-ms p50 p95 p99 max hedged hedge-wins dup-pct.
	if len(rows) != 6 {
		t.Fatalf("expected clean + unhedged + 4 hedged rows, got %d:\n%s", len(rows), out)
	}
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r[0]] = r
	}
	clean, unhedged := byName["clean"], byName["degraded-unhedged"]
	early, atBudget, late := byName["hedged-0.5x-p95"], byName["hedged-1x-p95"], byName["hedged-4x-p95"]
	if clean == nil || unhedged == nil || early == nil || atBudget == nil || late == nil {
		t.Fatalf("missing scenario rows:\n%s", out)
	}
	// The gray straggler poisons the tail without hedging...
	if f(t, unhedged[4]) < 3*f(t, clean[4]) {
		t.Fatalf("10x straggler barely moved p99 (%s -> %s ms):\n%s", clean[4], unhedged[4], out)
	}
	// ...hedging at the healthy p95 buys it back 2x+ for <=15% extra work...
	if 2*f(t, atBudget[4]) > f(t, unhedged[4]) {
		t.Fatalf("hedging at p95 cut p99 only %s -> %s ms (< 2x):\n%s", unhedged[4], atBudget[4], out)
	}
	if f(t, atBudget[8]) > 15 {
		t.Fatalf("%s%% duplicated work at the p95 budget (> 15%%):\n%s", atBudget[8], out)
	}
	if f(t, atBudget[6]) == 0 || f(t, atBudget[7]) == 0 {
		t.Fatalf("at-budget run never hedged or never won:\n%s", out)
	}
	// ...hedging below the healthy p50 duplicates far more work...
	if f(t, early[8]) <= 2*f(t, atBudget[8]) {
		t.Fatalf("sub-p50 budget did not blow up duplicated work (%s%% vs %s%%):\n%s",
			early[8], atBudget[8], out)
	}
	// ...and hedging late saves work but leaves more tail standing.
	if f(t, late[8]) > f(t, atBudget[8]) {
		t.Fatalf("4x budget duplicated more work than 1x (%s%% vs %s%%):\n%s",
			late[8], atBudget[8], out)
	}
	if f(t, late[4]) <= f(t, atBudget[4]) {
		t.Fatalf("4x budget p99 %s not above 1x budget p99 %s:\n%s", late[4], atBudget[4], out)
	}
}

func TestE13Shape(t *testing.T) {
	_, out := runQuick(t, "E13")
	rows := tableRows(out)
	// Columns: engine scenario ranks buckets wire-ratio comm-ms exposed-ms
	// overlap step-ms speedup.
	var modelFlat, modelBest, hostOverlap, hostInt8 []string
	for _, r := range rows {
		switch {
		case r[0] == "model" && r[1] == "flat-allreduce":
			modelFlat = r
		case r[0] == "model" && r[1] == "bucketed":
			if modelBest == nil || f(t, r[9]) > f(t, modelBest[9]) {
				modelBest = r
			}
		case r[0] == "host" && r[1] == "bucketed+overlap":
			hostOverlap = r
		case r[0] == "host" && r[1] == "overlap+int8":
			hostInt8 = r
		}
	}
	if modelFlat == nil || modelBest == nil || hostOverlap == nil || hostInt8 == nil {
		t.Fatalf("missing rows:\n%s", out)
	}
	// Model: flat hides nothing; the best bucketed config hides most of its
	// comm and cuts the step time.
	if f(t, modelFlat[9]) != 1 || f(t, modelFlat[7]) != 0 {
		t.Fatalf("model flat row not the baseline:\n%s", out)
	}
	if sp := f(t, modelBest[9]); sp <= 1.1 {
		t.Fatalf("best modelled bucketed speedup %v <= 1.1:\n%s", sp, out)
	}
	if ov := f(t, modelBest[7]); ov <= 0.5 {
		t.Fatalf("best modelled overlap %v <= 0.5:\n%s", ov, out)
	}
	// Host: the measured overlap fraction must be positive, exposed comm must
	// not exceed total comm, and compression must report its wire ratio.
	// (Host magnitudes are hardware-dependent — only shapes are asserted.)
	if ov := f(t, hostOverlap[7]); ov <= 0 || ov > 1 {
		t.Fatalf("measured host overlap fraction %v not in (0, 1]:\n%s", ov, out)
	}
	if f(t, hostOverlap[6]) > f(t, hostOverlap[5]) {
		t.Fatalf("host exposed comm %s above total comm %s:\n%s",
			hostOverlap[6], hostOverlap[5], out)
	}
	if ratio := f(t, hostInt8[4]); ratio < 6 {
		t.Fatalf("int8 wire ratio %v < 6:\n%s", ratio, out)
	}
}

func TestE11Shape(t *testing.T) {
	_, out := runQuick(t, "E11")
	rows := tableRows(out)
	if len(rows) != 6 {
		t.Fatalf("expected 6 batch sizes, got %d:\n%s", len(rows), out)
	}
	// Columns: max-batch capacity sat-tput sat-shed sat-p99 fix-rps
	// mean-batch p50 p99.
	var prevTput float64
	for i, r := range rows {
		tput, shed := f(t, r[2]), f(t, r[3])
		if shed <= 0 {
			t.Fatalf("row %s: saturation probe at 2x capacity shed nothing:\n%s", r[0], out)
		}
		// Throughput must rise (or hold, once saturated) with batch size.
		if tput < prevTput*0.98 {
			t.Fatalf("row %s: saturated throughput fell %v -> %v:\n%s", r[0], prevTput, tput, out)
		}
		prevTput = tput
		_ = i
	}
	first, last := rows[0], rows[len(rows)-1]
	if f(t, last[2]) < 2*f(t, first[2]) {
		t.Fatalf("batching bought <2x throughput (%s -> %s rps):\n%s", first[2], last[2], out)
	}
	// Saturation: the last doubling of MaxBatch buys little extra throughput.
	if f(t, last[2]) > 1.25*f(t, rows[len(rows)-2][2]) {
		t.Fatalf("throughput still rising steeply at max batch size:\n%s", out)
	}
	// Fixed-rate p99 inflects upward once MaxBatch crosses rate*linger = 4:
	// larger batches can no longer fill inside the linger bound.
	if f(t, last[8]) <= f(t, first[8]) {
		t.Fatalf("fixed-rate p99 did not inflect upward (%s -> %s ms):\n%s",
			first[8], last[8], out)
	}
	// Past the inflection the batcher flushes on linger, so the mean batch
	// pins near rate*linger instead of tracking MaxBatch.
	if mb := f(t, last[6]); mb > 8 {
		t.Fatalf("mean batch %v kept tracking MaxBatch past the linger bound:\n%s", mb, out)
	}
}

func TestE15Shape(t *testing.T) {
	_, out := runQuick(t, "E15")
	rows := tableRows(out)
	// Columns: kind kernel/mode size procs gflops steps/s ratio.
	gemmBackends := map[string]bool{}
	var trainF64, trainF32 []string
	for _, r := range rows {
		switch r[0] {
		case "gemm":
			gemmBackends[r[1]] = true
			if gf := f(t, r[4]); gf <= 0 {
				t.Fatalf("gemm row %v has non-positive GFLOP/s:\n%s", r, out)
			}
		case "train":
			switch r[1] {
			case "f64":
				trainF64 = r
			case "f32-compute":
				trainF32 = r
			}
		}
	}
	// Both float64 kernels and every registered f32 backend must be measured.
	wantKernels := []string{"f64-blocked", "f64-packed"}
	for _, name := range tensor.BackendNames() {
		wantKernels = append(wantKernels, "f32-"+name)
	}
	for _, want := range wantKernels {
		if !gemmBackends[want] {
			t.Fatalf("no gemm rows for backend %s:\n%s", want, out)
		}
	}
	if trainF64 == nil || trainF32 == nil {
		t.Fatalf("missing train rows:\n%s", out)
	}
	// Throughput magnitudes are hardware-dependent; assert only shapes.
	if f(t, trainF64[5]) <= 0 || f(t, trainF32[5]) <= 0 {
		t.Fatalf("non-positive training throughput:\n%s", out)
	}
	// The ratio's direction is a property of the host, not of the code.
	if f(t, trainF64[6]) != 1 {
		t.Fatalf("f64 train row is not the ratio's baseline:\n%s", out)
	}
	if f(t, trainF32[6]) <= 0 {
		t.Fatalf("f32-compute ratio not positive:\n%s", out)
	}
}

// TestE16Shape re-checks E7's staging story on the executed data plane: at
// the mid dataset (exceeds DRAM, fits NVRAM) the warm NVRAM-staged epoch
// beats direct PFS, a DRAM-only LRU thrashes to no better than direct, and
// the fits-DRAM regime warms up to a compute-bound epoch.
func TestE16Shape(t *testing.T) {
	_, out := runQuick(t, "E16")
	rows := tableRows(out)
	warm := map[string]map[string]float64{} // dataset -> policy -> warm-s
	stall := map[string]map[string]float64{}
	for _, r := range rows {
		if warm[r[0]] == nil {
			warm[r[0]] = map[string]float64{}
			stall[r[0]] = map[string]float64{}
		}
		warm[r[0]][r[1]] = f(t, r[4])
		stall[r[0]][r[1]] = f(t, r[5])
	}
	if len(warm) != 3 {
		t.Fatalf("expected 3 dataset regimes:\n%s", out)
	}
	mid := warm["256.0"]
	if !(mid["nvram-staged"]*10 < mid["direct-pfs+prefetch"]) {
		t.Fatalf("warm NVRAM epoch %v not >10x faster than direct PFS %v:\n%s",
			mid["nvram-staged"], mid["direct-pfs+prefetch"], out)
	}
	if mid["dram-lru"] < mid["direct-pfs+prefetch"] {
		t.Fatalf("a thrashing 64GB DRAM LRU should not beat direct PFS at 256GB:\n%s", out)
	}
	if sf := stall["32.0000"]["dram-lru"]; sf > 0.05 {
		t.Fatalf("fits-DRAM warm epoch stalls %.3f, want compute-bound:\n%s", sf, out)
	}
	// Prefetch overlaps stage-in with compute even without caches.
	small := warm["32.0000"]
	if !(small["direct-pfs+prefetch"] < small["direct-pfs"]) {
		t.Fatalf("prefetch did not overlap direct-PFS staging:\n%s", out)
	}
	// Beyond NVRAM capacity tiering still helps but cannot hide the PFS.
	big := warm["2000.0"]
	if !(big["tiered-dram-nvram"] < big["direct-pfs+prefetch"]) {
		t.Fatalf("tiering lost to direct PFS beyond NVRAM capacity:\n%s", out)
	}
	if big["tiered-dram-nvram"] < 3*warm["256.0"]["tiered-dram-nvram"] {
		t.Fatalf("2TB epoch suspiciously close to 256GB epoch — PFS fell off the clock:\n%s", out)
	}
}

// TestE18Shape checks the search-at-scale sweep in quick mode: the fault
// layer must be genuinely on at every scale, delivered eval budget must
// grow with machine size, and both learning searchers must beat random on
// true best-found loss at equal budget.
func TestE18Shape(t *testing.T) {
	_, out := runQuick(t, "E18")
	rows := tableRows(out)
	// Columns: nodes strategy budget trials observed-best true-best
	// evals/h util kills steals preempt interrupted.
	if len(rows) != 6 {
		t.Fatalf("expected 2 scales x 3 strategies, got %d rows:\n%s", len(rows), out)
	}
	trueBest := map[string]map[string]float64{} // nodes -> strategy -> true-best
	budget := map[string]float64{}
	for _, r := range rows {
		if trueBest[r[0]] == nil {
			trueBest[r[0]] = map[string]float64{}
		}
		trueBest[r[0]][r[1]] = f(t, r[5])
		budget[r[0]] = f(t, r[2])
		if f(t, r[8]) == 0 || f(t, r[9]) == 0 || f(t, r[11]) == 0 {
			t.Fatalf("fault layer idle in row %v:\n%s", r, out)
		}
	}
	if len(trueBest) != 2 {
		t.Fatalf("expected 2 machine sizes:\n%s", out)
	}
	if budget["3000"] <= budget["1000"] {
		t.Fatalf("eval budget did not grow with machine size (%v -> %v):\n%s",
			budget["1000"], budget["3000"], out)
	}
	for nodes, by := range trueBest {
		for _, name := range []string{"rl", "pbt"} {
			if by[name] >= by["random"] {
				t.Fatalf("%s true best %v not below random %v at %s nodes:\n%s",
					name, by[name], by["random"], nodes, out)
			}
		}
	}
}

func TestE17Shape(t *testing.T) {
	_, out := runQuick(t, "E17")
	rows := tableRows(out)
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r[0]] = r
	}
	if len(byName) != 6 {
		t.Fatalf("expected 6 scenarios:\n%s", out)
	}
	// Deploy rows: scenario state ttd ttr bad-pct lost -
	for _, name := range []string{"shadow-catch", "bad-deploy"} {
		if st := byName[name][1]; st != "rolled_back" {
			t.Fatalf("%s state %q, want rolled_back:\n%s", name, st, out)
		}
	}
	// Shadow traffic catches the bad version before any live canary exposure.
	if pct := f(t, byName["shadow-catch"][4]); pct != 0 {
		t.Fatalf("shadow-catch served %v%% live bad-version traffic, want 0:\n%s", pct, out)
	}
	bad := byName["bad-deploy"]
	if ttd := f(t, bad[2]); !(ttd > 0 && ttd <= 1) {
		t.Fatalf("bad-deploy time-to-detect %vs, want (0, 1]:\n%s", ttd, out)
	}
	if pct := f(t, bad[4]); !(pct > 0 && pct <= 5) {
		t.Fatalf("bad-deploy blast radius %v%%, want (0, 5]:\n%s", pct, out)
	}
	if r := byName["good-deploy"]; r[1] != "promoted" || f(t, r[5]) != 0 {
		t.Fatalf("good deploy should promote without losing requests:\n%s", out)
	}
	// Flash rows: scenario avail <ratio> <verdict> - - - lost peak/mean
	if v := byName["flash-fixed-small"][3]; v != "VIOLATED" {
		t.Fatalf("one fixed replica should breach the flash-crowd SLO:\n%s", out)
	}
	auto := byName["flash-autoscaled"]
	if auto[3] != "MET" {
		t.Fatalf("autoscaled fleet should hold the flash-crowd SLO:\n%s", out)
	}
	pm := strings.SplitN(auto[8], "/", 2)
	if len(pm) != 2 {
		t.Fatalf("malformed replicas peak/mean cell %q:\n%s", auto[8], out)
	}
	if peak := f(t, pm[0]); peak < 2 {
		t.Fatalf("autoscaler never surged above 1 replica:\n%s", out)
	}
	if mean := f(t, pm[1]); mean >= e17FixedBigReplicas {
		t.Fatalf("autoscaled mean fleet %v not below the overprovisioned %d:\n%s",
			mean, e17FixedBigReplicas, out)
	}
}
