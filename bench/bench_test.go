package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// quickConfig is the smoke-size run the tests use; its numbers mean nothing.
func quickConfig(traced bool) runConfig {
	return runConfig{seed: 7, seconds: 0.3, traced: traced, p: constants(true)}
}

func TestManifestIsCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

func TestManifestMeetsTheContract(t *testing.T) {
	b, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("want exactly 6 keys, got %d", len(top))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 4 {
		t.Errorf("%d workloads, want 2..4", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// TestQuickSuite runs every workload untraced and traced at smoke sizes:
// each run must pass its own checks and report every metric of its list,
// once, finite, under the names BENCHMARK.json carries.
func TestQuickSuite(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec := runOne(w, quickConfig(traced), true)
			if !rec.Correct {
				t.Errorf("%s traced=%v failed its checks: %v", w.Name, traced, rec.Problems)
			}
			if rec.Failed != 0 || rec.Attempted < 1 || rec.Succeeded != rec.Attempted {
				t.Errorf("%s traced=%v: attempted %d succeeded %d failed %d", w.Name, traced, rec.Attempted, rec.Succeeded, rec.Failed)
			}
			defs := metricsOf(traced)
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: %s missing or not finite (%v)", w.Name, traced, d.Name, v)
				}
				if !traced && v == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			var line driverResult
			if err := json.Unmarshal([]byte(rec.driverLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(defs) || line.Attempted != rec.Attempted {
				t.Errorf("%s traced=%v: driver line does not carry the record", w.Name, traced)
			}
		}
	}
}

// A reply that does not match the reference forward pass is a failed
// operation, not a fast one.
func TestWrongServingReferenceFails(t *testing.T) {
	p := constants(true).Saturate
	s, err := setupServe(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := range s.want {
		if i%2 == 0 {
			s.want[i][0] += 1
		}
	}
	o := closedLoop(s.srv, s, secs(0.05), 0, nil)
	m := newMeter()
	if err := reportServe(m, s, o, 0.1); err != nil {
		t.Fatal(err)
	}
	if m.failed == 0 || m.failed == m.attempted {
		t.Fatalf("failed %d of %d: want the replies to the corrupted half counted as failed", m.failed, m.attempted)
	}
	if got := m.values["slo_attainment"]; got > 0.75 {
		t.Errorf("slo_attainment %g: a failed operation must miss the latency limit", got)
	}
}

// The traced step loop must be nn.Train written out: the same epoch losses,
// bit for bit, and the same number of steps to the target.
func TestTracedDenseLoopMatchesTrain(t *testing.T) {
	p := constants(true).Dense
	a, err := setupDense(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupDense(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trainDenseUntraced(p, a, p.EpochCap, true)
	if err != nil {
		t.Fatal(err)
	}
	got := trainDenseTraced(p, b, p.EpochCap, newRecorder())
	if !want.reached || !got.reached {
		t.Fatalf("target not reached: train %v, loop %v", want.reached, got.reached)
	}
	if got.steps != want.steps || len(got.epochLoss) != len(want.epochLoss) {
		t.Fatalf("loop took %d steps over %d epochs, nn.Train %d over %d", got.steps, len(got.epochLoss), want.steps, len(want.epochLoss))
	}
	for e := range want.epochLoss {
		if math.Float64bits(got.epochLoss[e]) != math.Float64bits(want.epochLoss[e]) {
			t.Fatalf("epoch %d: loop loss %v, nn.Train %v", e, got.epochLoss[e], want.epochLoss[e])
		}
	}
}
