package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every workload runs under: the reference host has
// two cores, and a pinned value keeps tensor.ParallelFor's fan-out (and so
// the numbers) the same on a larger machine.
const procs = 2

// provenance is stamped on every output so a number can be traced to the
// code, toolchain, host and inputs that produced it.
type provenance struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Constants  string  `json:"constants_hash"`
}

func stamp(seed uint64, seconds float64, quick bool) provenance {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				sha += "+dirty"
			}
		}
	}
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return provenance{GitSHA: sha, GoVersion: runtime.Version(), Host: host,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
		Seconds: seconds, Quick: quick, Constants: constantsHash(quick)}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memMark is a runtime.MemStats snapshot taken at the edge of a timed
// region; since gives what the region allocated and collected.
type memMark struct{ ms runtime.MemStats }

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	return m
}

type memDelta struct {
	allocMB   float64
	mallocs   float64
	gcCycles  float64
	gcPauseMS float64
}

func (m memMark) since() memDelta {
	now := markMem()
	return memDelta{
		allocMB:   float64(now.ms.TotalAlloc-m.ms.TotalAlloc) / (1 << 20),
		mallocs:   float64(now.ms.Mallocs - m.ms.Mallocs),
		gcCycles:  float64(now.ms.NumGC - m.ms.NumGC),
		gcPauseMS: float64(now.ms.PauseTotalNs-m.ms.PauseTotalNs) / 1e6,
	}
}

// release drops what a discarded set-up left behind, so that the peak
// resident set is the working set of one set-up plus the run and not an
// accident of when the collector last ran.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timedSetups runs setup reps times, releasing every result but the last,
// and returns the last result with the median set-up time. One set-up is one
// sample; several make setup_s a median instead of a single draw.
func timedSetups[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
			var zero T
			last = zero
			release()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
