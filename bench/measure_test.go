package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	asc := []float64{10, 20, 30, 40, 50}
	if got := quantile(asc, 0.99); !near(got, 49.6) {
		t.Errorf("p99 = %g, want 49.6", got)
	}
	if quantile(asc, 0) != 10 || quantile(asc, 1) != 50 {
		t.Error("quantile ends")
	}
}

// The values Python prints for statistics.quantiles(range(1, 11), n=4) and
// for [3, 1, 4, 1, 5, 9, 2, 6]: the driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	var xs []float64
	for i := 1; i <= 10; i++ {
		xs = append(xs, float64(i))
	}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !near(q1, 1.25) || !near(q3, 5.75) {
		t.Errorf("quartiles = %g, %g, want 1.25, 5.75", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {20, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {36000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// latency_p99_ms is read at the 99th percentile only when ten samples lie
// beyond it, and one stalled stretch of a long run does not set it.
func TestTailPercentileAndStretches(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {152, 0.9}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// 10 000 ops of 1 ms with a 2 ms tail of 2% everywhere, and one stretch
	// in which a stall made every op take 50 ms.
	ns := make([]int64, 10000)
	for i := range ns {
		ns[i] = 1e6
		if i%50 == 0 {
			ns[i] = 2e6
		}
		if i >= 3000 && i < 4000 {
			ns[i] = 50e6
		}
	}
	if got := tailMS(ns); !near(got, 2) {
		t.Errorf("tailMS = %g ms, want the 2 ms tail every stretch has", got)
	}
	if whole := quantile(sorted(msOf(ns)), 0.99); whole < 50 {
		t.Errorf("whole-run p99 = %g ms: the test's stall is too small to matter", whole)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "forward", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "gemm", Start: 15, End: 25},
		// Two children that overlap each other (30..60 is covered once) and
		// one that sticks out of the parent's end.
		{ID: 4, Parent: 1, Name: "comm", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130},
		{ID: 6, Name: "alone", Start: 200, End: 207},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"step":    100 - (50 + 10), // children cover 10..60 and 90..100
		"forward": 30 - 10,
		"gemm":    10,
		"comm":    30,
		"late":    40,
		"alone":   7,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %d", name, got, w)
		}
	}
}

func TestRecorderOffIsInert(t *testing.T) {
	var rec *recorder
	id := rec.open("x", 0, 0, time.Now())
	rec.end(id, time.Now())
	rec.count("n", 1)
	if id != 0 || rec.add("y", 0, 0, time.Now(), time.Now()) != 0 {
		t.Error("a nil recorder must hand out no span ids")
	}
}

// stallingServer answers at once with the first outputs of the input, but
// its Submit call itself blocks for stall on one chosen request: the
// generator cannot send while it is stuck, so later requests go out late.
type stallingServer struct {
	calls, stallAt int
	stall          time.Duration
	outputs        int
}

func (f *stallingServer) Submit(x []float64, _ time.Time) <-chan serve.Result {
	if f.calls == f.stallAt {
		time.Sleep(f.stall)
	}
	f.calls++
	ch := make(chan serve.Result, 1)
	ch <- serve.Result{Y: append([]float64(nil), x[:f.outputs]...), BatchSize: 1}
	return ch
}

// An open-loop request is timed from when it was due. A stall must show in
// the latency of every request it delayed and in how late the generator
// ran; timing from the send instant would make it vanish.
func TestOpenLoopChargesAStallToTheRequestsItDelayed(t *testing.T) {
	const n, gap, stall = 30, 4 * time.Millisecond, 60 * time.Millisecond
	s := &serveState{p: serveParams{MaxBatch: 16}}
	for i := 0; i < 8; i++ {
		row := []float64{float64(i), float64(-i), 0.5}
		s.inputs = append(s.inputs, row)
		s.want = append(s.want, row[:2])
	}
	var schedule []time.Duration
	for i := 1; i <= n; i++ {
		schedule = append(schedule, time.Duration(i)*gap)
	}
	fake := &stallingServer{stallAt: 5, stall: stall, outputs: 2}
	o := openLoop(fake, s, schedule, 0, nil)
	if o.sent != n || o.ok != n {
		t.Fatalf("sent %d, correct %d, want %d", o.sent, o.ok, n)
	}
	lat, late := sorted(msOf(o.latNS)), sorted(msOf(o.lateNS))
	stallMS := float64(stall) / 1e6
	if got := lat[len(lat)-1]; got < stallMS*0.9 {
		t.Errorf("largest latency %.1f ms: the %.0f ms stall vanished", got, stallMS)
	}
	if got := late[len(late)-1]; got < stallMS*0.8 {
		t.Errorf("largest generator lateness %.1f ms, want about %.0f ms", got, stallMS)
	}
	// Requests due during the stall (about stall/gap of them) each waited.
	delayed := 0
	for _, v := range lat {
		if v > 2*float64(gap)/1e6 {
			delayed++
		}
	}
	if want := int(stall/gap) - 3; delayed < want {
		t.Errorf("%d requests carry the stall, want at least %d", delayed, want)
	}
	if quantile(lat, 0.1) > 2 {
		t.Errorf("requests before the stall took %.2f ms against a server that answers at once", quantile(lat, 0.1))
	}
}

func TestClosedLoopKeepsTheWindowAndDrains(t *testing.T) {
	s := &serveState{p: serveParams{MaxBatch: 16, Window: 4}}
	s.inputs = [][]float64{{1, 2, 3}}
	s.want = [][]float64{{1, 2}}
	fake := &stallingServer{stallAt: -1, outputs: 2}
	o := closedLoop(fake, s, 20*time.Millisecond, 10, nil)
	if o.sent < 10 || o.ok != o.sent || fake.calls != o.sent {
		t.Fatalf("sent %d, correct %d, server saw %d", o.sent, o.ok, fake.calls)
	}
	if o.goalAt <= 0 || o.goalAt > o.wall {
		t.Errorf("goal reached at %v of %v", o.goalAt, o.wall)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "samples_per_s", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, []float64{100.2, 99.8, 100, 101, 99.5}, "unchanged"},
		{"slower beyond the bound", lower, base, []float64{110, 111, 109, 110, 110.5}, "REGRESSED"},
		{"slower within the bound", lower, base, []float64{103, 104, 102, 103, 103.5}, "worse (within bound)"},
		{"throughput down within the bound", higher, base, []float64{97, 98, 96, 97, 97.5}, "worse (within bound)"},
		{"slower by less than the noise", lower, base, []float64{100.9, 101.9, 99.9, 100.9, 101.4}, "unchanged"},
		{"faster", lower, base, []float64{90, 91, 89, 90, 90.5}, "improved"},
		{"throughput down", higher, base, []float64{90, 91, 89, 90, 90.5}, "REGRESSED"},
		{"throughput up", higher, base, []float64{110, 111, 109, 110, 110.5}, "improved"},
		{"too noisy to tell", lower, []float64{100, 130, 80, 120, 90}, []float64{104, 131, 83, 119, 95}, "unresolved"},
		{"noisy but every run better", lower, []float64{100, 130, 80, 120, 90}, []float64{60, 70, 50, 65, 55}, "improved"},
		{"one run a side", lower, []float64{100}, []float64{103}, "unresolved"},
		{"one run a side, beyond the bound", lower, []float64{100}, []float64{110}, "REGRESSED"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// fakeSet is three runs per workload of every end-to-end metric near 10,
// stamped with the given inputs.
func fakeSet(failed int, prov provenance) runSet {
	var set runSet
	for _, w := range workloads {
		for i := 0; i < 3; i++ {
			r := runRecord{Workload: w.Name, Provenance: prov, Attempted: 1000, Failed: failed, Metrics: map[string]float64{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = 10 + 0.01*float64(i)
			}
			set.Runs = append(set.Runs, r)
		}
	}
	return set
}

func TestCompareFailsOnMoreFailedOps(t *testing.T) {
	var prov provenance
	if err := compareSets(fakeSet(0, prov), fakeSet(0, prov)); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	if err := compareSets(fakeSet(0, prov), fakeSet(2, prov)); err == nil {
		t.Error("a larger share of failed operations must fail the comparison")
	}
}

// Numbers measured with different workload constants, sizes, run lengths or
// processor counts are not comparable; neither is a set that mixes them.
func TestCompareRefusesDifferentInputs(t *testing.T) {
	base := provenance{GitSHA: "a", Constants: "c1", Seconds: 20, GOMAXPROCS: 2}
	for name, change := range map[string]func(*provenance){
		"constants":  func(p *provenance) { p.Constants = "c2" },
		"quick":      func(p *provenance) { p.Quick = true },
		"seconds":    func(p *provenance) { p.Seconds = 5 },
		"gomaxprocs": func(p *provenance) { p.GOMAXPROCS = 8 },
	} {
		other := base
		change(&other)
		if err := compareSets(fakeSet(0, base), fakeSet(0, other)); err == nil {
			t.Errorf("%s differs: the comparison must be refused", name)
		}
		mixed := fakeSet(0, base)
		mixed.Runs[len(mixed.Runs)-1].Provenance = other
		if err := compareSets(mixed, fakeSet(0, base)); err == nil {
			t.Errorf("%s differs inside one set: the comparison must be refused", name)
		}
	}
	other := base
	other.GitSHA, other.Seed, other.Host = "b", 9, "elsewhere"
	if err := compareSets(fakeSet(0, base), fakeSet(0, other)); err != nil {
		t.Errorf("another commit, seed and host are what a comparison is for: %v", err)
	}
}

// serve_open pins every thread of the process to one CPU and must leave the
// process as it found it: the tests run the other workloads in this process.
func TestPinningIsUndone(t *testing.T) {
	all, err := threadAffinity()
	if err != nil {
		t.Fatal(err)
	}
	one, cpu := all.lastCPU()
	if cpu < 0 {
		t.Skip("no CPU pinning on this platform")
	}
	if err := setProcessAffinity(one); err != nil {
		t.Fatal(err)
	}
	if got, _ := threadAffinity(); got != one {
		t.Errorf("pinned to cpu %d, but the thread may run on %v", cpu, got)
	}
	if err := setProcessAffinity(all); err != nil {
		t.Fatal(err)
	}
	if got, _ := threadAffinity(); got != all {
		t.Errorf("after undoing the pin the thread may run on %v, want %v", got, all)
	}
}
