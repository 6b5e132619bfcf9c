package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Op is the step or request the call belongs to, so
// the spans of one step share an identifier; Parent is the span that caused
// it (0 = none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and counts in memory until the workload ends. A nil
// recorder is tracing switched off: every method returns at once, which lets
// the untraced and the traced run share one load generator.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]int64{}}
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int32, op int64, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// open records a span whose end is not known yet; close it with end.
func (r *recorder) open(name string, parent int32, op int64, start time.Time) int32 {
	return r.add(name, parent, op, start, start)
}

func (r *recorder) end(id int32, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the part of it that its child spans cover.
// Children may overlap each other and may stick out of the parent; only the
// union of their intervals inside the parent is subtracted.
func selfTimes(spans []span) map[string][]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int32][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := map[string][]int64{}
	for _, s := range spans {
		self := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, covered), min(k.hi, s.End)
			if hi > lo {
				self -= hi - lo
				covered = hi
			}
		}
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// write stores the spans as JSON lines, the counts as the last line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": r.counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
