package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// runAll runs every workload, each run in a fresh child process (a re-exec
// of this binary) so that heap, collector state and peak_rss_mb belong to
// one workload: reps untraced runs on seeds seed, seed+1, ... and, when
// traced is set, one traced run on seed.
func runAll(seed uint64, seconds float64, reps int, quick, traced bool) (runSet, error) {
	var set runSet
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	dir := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return set, err
	}
	child := func(w string, s uint64, trace int) error {
		out := filepath.Join(dir, fmt.Sprintf("%s_seed%d_trace%d.json", w, s, trace))
		args := []string{"-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", out}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		one, err := readSet(out)
		if err != nil {
			if runErr != nil {
				return fmt.Errorf("%s: %w", w, runErr)
			}
			return err
		}
		set.Runs = append(set.Runs, one.Runs...)
		return nil
	}
	for _, w := range workloads {
		for r := 0; r < max(1, reps); r++ {
			if err := child(w.Name, seed+uint64(r), 0); err != nil {
				return set, err
			}
		}
		if traced {
			if err := child(w.Name, seed, 1); err != nil {
				return set, err
			}
		}
	}
	return set, nil
}

// repeatSets runs two full untraced sets of the same code back to back and
// compares them: the benchmark's check on itself, and how the bounds in
// spec.go were derived (each at least three times the spread seen here).
func repeatSets(seed uint64, seconds float64, reps int, quick bool, out string) error {
	var sets [2]runSet
	for i := range sets {
		var err error
		if sets[i], err = runAll(seed, seconds, reps, quick, false); err != nil {
			return err
		}
		if out != "" {
			ext := filepath.Ext(out)
			if err := writeSet(fmt.Sprintf("%s.%d%s", strings.TrimSuffix(out, ext), i+1, ext), sets[i]); err != nil {
				return err
			}
		}
	}
	return compareSets(sets[0], sets[1])
}

func compareFiles(a, b string) error {
	sa, err := readSet(a)
	if err != nil {
		return err
	}
	sb, err := readSet(b)
	if err != nil {
		return err
	}
	return compareSets(sa, sb)
}

// column gathers one end-to-end metric of one workload over a set's
// untraced runs, with the set's failed and attempted totals.
func column(set runSet, workload, metric string) (vals []float64, failed, attempted int) {
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			vals = append(vals, r.Metrics[metric])
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return vals, failed, attempted
}

// summarize prints, per workload and end-to-end metric, the median over a
// set's untraced runs and their spread beside the metric's bound. A spread
// above a third of the bound is marked: the benchmark would be too noisy to
// resolve a change of the size the bound allows.
func summarize(set runSet) {
	fmt.Printf("%-16s %-18s %13s %-6s %8s %6s  %s\n", "workload", "metric", "median", "unit", "spread", "bound", "runs")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vals, _, _ := column(set, w.Name, d.Name)
			if len(vals) < 2 {
				continue
			}
			mark := ""
			if sp := spread(vals); sp > d.Bound/3 && d.Name != "setup_s" {
				mark = "  spread above a third of the bound"
			}
			fmt.Printf("%-16s %-18s %13.6g %-6s %7.2f%% %5.1f%%  n=%d%s\n",
				w.Name, d.Name, median(vals), d.Unit, spread(vals)*100, d.Bound*100, len(vals), mark)
		}
	}
}

// verdict compares base runs a with changed runs b of one metric. worse is
// the share of a's median by which b's median is worse (negative: better).
// When either side's run-to-run spread is wider than the bound the medians
// cannot settle it: the verdict is "unresolved", not "unchanged", unless
// every run of b reads better than every run of a. One run a side has no
// spread to judge a shift against, so short of a regression it is
// unresolved too. A shift the noise does not explain is named in either
// direction, also when it stays inside the bound and passes the gate.
func verdict(d metricDef, a, b []float64) (v string, worse float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / math.Abs(ma)
	if len(a) < 2 || len(b) < 2 {
		if worse > d.Bound {
			return "REGRESSED", worse
		}
		return "unresolved", worse
	}
	noise := max(spread(a), spread(b))
	if noise > d.Bound {
		sa, sb := sorted(a), sorted(b)
		if (sign > 0 && sb[len(sb)-1] < sa[0]) || (sign < 0 && sb[0] > sa[len(sa)-1]) {
			return "improved", worse
		}
		return "unresolved", worse
	}
	switch resolved := max(noise, 0.01); {
	case worse > d.Bound:
		return "REGRESSED", worse
	case worse > resolved:
		return "worse (within bound)", worse
	case worse < -resolved:
		return "improved", worse
	}
	return "unchanged", worse
}

// inputs is what two sets must share for their numbers to be comparable.
type inputs struct {
	Constants  string
	Quick      bool
	Seconds    float64
	GOMAXPROCS int
}

// inputsOf returns the inputs a set's untraced runs were measured with and
// the commits they came from; a set measured with more than one is refused.
func inputsOf(set runSet) (in inputs, shas []string, err error) {
	first := true
	for _, r := range set.Runs {
		if r.Traced {
			continue
		}
		p := r.Provenance
		got := inputs{p.Constants, p.Quick, p.Seconds, p.GOMAXPROCS}
		if first {
			in, first = got, false
		} else if got != in {
			return in, nil, fmt.Errorf("one set mixes runs of different inputs: %+v and %+v", in, got)
		}
		if !slices.Contains(shas, p.GitSHA) {
			shas = append(shas, p.GitSHA)
		}
	}
	return in, shas, nil
}

// compareSets prints one row per workload and end-to-end metric, each ratio
// with its base, and fails on a regression beyond the metric's bound or on
// a larger share of failed operations.
func compareSets(a, b runSet) error {
	ia, shaA, err := inputsOf(a)
	if err != nil {
		return err
	}
	ib, shaB, err := inputsOf(b)
	if err != nil {
		return err
	}
	if ia != ib {
		return fmt.Errorf("the two sets were not measured with the same inputs (constants hash, quick, seconds, GOMAXPROCS): base %+v, new %+v", ia, ib)
	}
	fmt.Printf("base: commit %s; new: commit %s; both with %+v\n", strings.Join(shaA, ", "), strings.Join(shaB, ", "), ia)
	bad := 0
	fmt.Printf("%-16s %-18s %13s %13s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "new median", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range workloads {
		_, fa, na := column(a, w.Name, endToEnd[0].Name)
		_, fb, nb := column(b, w.Name, endToEnd[0].Name)
		if na == 0 || nb == 0 {
			fmt.Printf("%-16s missing from one side\n", w.Name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			va, _, _ := column(a, w.Name, d.Name)
			vb, _, _ := column(b, w.Name, d.Name)
			v, worse := verdict(d, va, vb)
			sa, sb := math.NaN(), math.NaN()
			if len(va) > 1 && len(vb) > 1 {
				sa, sb = spread(va), spread(vb)
			}
			fmt.Printf("%-16s %-18s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%% %5.1f%%  %s (of base %.6g %s, n=%d/%d)\n",
				w.Name, d.Name, median(va), median(vb), worse*100, sa*100, sb*100, d.Bound*100, v, median(va), d.Unit, len(va), len(vb))
			if v == "REGRESSED" {
				bad++
			}
		}
		shareA, shareB := float64(fa)/float64(na), float64(fb)/float64(nb)
		state := "ok"
		if shareB > shareA {
			state = "MORE FAILURES"
			bad++
		}
		fmt.Printf("%-16s %-18s %13d %13d  of %d / %d attempted  %s\n", w.Name, "ops_failed", fa, fb, na, nb, state)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparison(s) outside the bounds", bad)
	}
	return nil
}
