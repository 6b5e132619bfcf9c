package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/biodata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
)

// submitter is the part of serve.Server the load generators drive; tests
// substitute a fake that stalls.
type submitter interface {
	Submit(x []float64, deadline time.Time) <-chan serve.Result
}

// serveState is one set-up of a serving workload: seeded inputs, the
// reference outputs computed with Net.Forward before the server exists, and
// the live server, warmed with one full batch.
type serveState struct {
	p      serveParams
	inputs [][]float64
	want   [][]float64
	net    *nn.Net
	srv    *serve.Server
	newS   float64
}

func setupServe(p serveParams, seed uint64) (*serveState, error) {
	root := rng.New(seed)
	ds := biodata.Tumor(biodata.TumorConfig{Samples: p.Inputs, Genes: p.Genes, Classes: p.Classes,
		Informative: 20, Separation: 2.0, Noise: 1.2}, root.Split("inputs"))
	net := nn.MLP(p.Genes, p.Hidden, p.Classes, nn.ReLU, root.Split("init"))
	s := &serveState{p: p, net: net}
	// The reference runs in slices of MaxBatch rows, the most the server
	// forwards at once: one row block per GEMM, so set-up time does not hang
	// on whether tensor.ParallelFor's second worker gets a core in time (with
	// all rows in one call setup_s read 0.17 or 0.27 s from run to run).
	for lo := 0; lo < p.Inputs; lo += p.MaxBatch {
		hi := min(lo+p.MaxBatch, p.Inputs)
		ref := net.Forward(ds.X.SliceRows(lo, hi), false)
		for i := lo; i < hi; i++ {
			s.inputs = append(s.inputs, ds.X.Row(i).Data)
			s.want = append(s.want, append([]float64(nil), ref.Row(i-lo).Data...))
		}
	}
	t0 := time.Now()
	srv, err := serve.New(net, serve.Config{Replicas: 1, MaxBatch: p.MaxBatch, MaxLinger: p.MaxLinger,
		QueueCap: p.QueueCap, InDim: p.Genes})
	if err != nil {
		return nil, err
	}
	s.srv, s.newS = srv, time.Since(t0).Seconds()
	var warm []<-chan serve.Result
	for i := 0; i < p.MaxBatch; i++ {
		warm = append(warm, srv.Submit(s.inputs[i%len(s.inputs)], time.Time{}))
	}
	for _, ch := range warm {
		if res := <-ch; res.Err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up request: %w", res.Err)
		}
	}
	return s, nil
}

func (s *serveState) close() {
	if s != nil && s.srv != nil {
		s.srv.Close()
	}
}

// correct compares a reply with the reference forward pass of the same
// input: the same argmax, and each output within 1e-3 (relative above 1),
// loose enough for a later reduced-precision inference mode.
func (s *serveState) correct(idx int, res serve.Result) bool {
	want := s.want[idx%len(s.want)]
	if res.Err != nil || len(res.Y) != len(want) {
		return false
	}
	bestGot, bestWant := 0, 0
	for j := range want {
		if d := math.Abs(res.Y[j] - want[j]); !(d <= 1e-3*math.Max(1, math.Abs(want[j]))) {
			return false
		}
		if res.Y[j] > res.Y[bestGot] {
			bestGot = j
		}
		if want[j] > want[bestWant] {
			bestWant = j
		}
	}
	return bestGot == bestWant
}

// loadOutcome is one load segment as the generator saw it.
type loadOutcome struct {
	sent, ok  int
	latNS     []int64 // the end-to-end clock, correct replies only
	lateNS    []int64 // open loop: sent minus due
	serverNS  []int64 // Result.Latency of correct replies
	fullBatch int     // correct replies that rode a MaxBatch-sized batch
	goalAt    time.Duration
	wall      time.Duration
	mem       memDelta
}

// settle accounts one reply. from is where the end-to-end clock started:
// the submit instant in a closed loop, the due instant in an open loop.
func (o *loadOutcome) settle(s *serveState, idx int, res serve.Result, from, now, start time.Time, goal int) {
	if !s.correct(idx, res) {
		return
	}
	o.ok++
	o.latNS = append(o.latNS, now.Sub(from).Nanoseconds())
	o.serverNS = append(o.serverNS, res.Latency.Nanoseconds())
	if res.BatchSize == s.p.MaxBatch {
		o.fullBatch++
	}
	if o.ok == goal {
		o.goalAt = now.Sub(start)
	}
}

// requestSpans records one request's spans: the request on the end-to-end
// clock, the Submit call, and the server's own submit-to-complete latency
// laid back from the reply instant.
func requestSpans(rec *recorder, op int64, from, sent, submitted, now time.Time, res serve.Result) {
	if rec == nil {
		return
	}
	req := rec.add("serve.request", 0, op, from, now)
	rec.add("serve.submit", req, op, sent, submitted)
	rec.add("serve.server", req, op, now.Add(-res.Latency), now)
}

// closedLoop keeps window requests outstanding from this one goroutine for
// dur, reading replies oldest first (one replica answers in order), and
// drains what is outstanding when the time is up.
func closedLoop(srv submitter, s *serveState, dur time.Duration, goal int, rec *recorder) *loadOutcome {
	type slot struct {
		ch              <-chan serve.Result
		idx             int
		sent, submitted time.Time
	}
	o := &loadOutcome{}
	ring := make([]slot, s.p.Window)
	submit := func(i int) {
		idx := o.sent
		o.sent++
		t0 := time.Now()
		ch := srv.Submit(s.inputs[idx%len(s.inputs)], time.Time{})
		ring[i] = slot{ch: ch, idx: idx, sent: t0}
		if rec != nil {
			ring[i].submitted = time.Now()
		}
	}
	mem := markMem()
	start := time.Now()
	deadline := start.Add(dur)
	for i := range ring {
		submit(i)
	}
	last := start
	for head, outstanding := 0, len(ring); outstanding > 0; head = (head + 1) % len(ring) {
		e := ring[head]
		if e.ch == nil {
			continue
		}
		res := <-e.ch
		now := time.Now()
		last = now
		o.settle(s, e.idx, res, e.sent, now, start, goal)
		requestSpans(rec, int64(e.idx), e.sent, e.sent, e.submitted, now, res)
		if now.Before(deadline) {
			submit(head)
		} else {
			ring[head].ch = nil
			outstanding--
		}
	}
	o.wall = last.Sub(start)
	o.mem = mem.since()
	return o
}

// poissonSchedule draws the due offsets of an open-loop run: exponential
// gaps at rate per second until dur is used up.
func poissonSchedule(r *rng.Stream, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := r.Exp(rate); t < dur.Seconds(); t += r.Exp(rate) {
		due = append(due, time.Duration(t*1e9))
	}
	return due
}

// openLoop sends on the schedule whatever the server does: this goroutine
// sleeps to each due time and submits; one collector goroutine reads the
// replies in order. A request's clock starts when it was due, not when it
// was sent, so a stall charges every request it delayed; how late the
// generator ran is reported beside it.
func openLoop(srv submitter, s *serveState, schedule []time.Duration, goal int, rec *recorder) *loadOutcome {
	type sentReq struct {
		ch                   <-chan serve.Result
		idx                  int
		due, sent, submitted time.Time
	}
	o := &loadOutcome{}
	// Sized to the number of sends, so the generator never waits for the
	// collector and its lateness is the sleep's and the server's alone.
	q := make(chan sentReq, len(schedule))
	mem := markMem()
	start := time.Now()
	last := start
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range q {
			res := <-r.ch
			now := time.Now()
			last = now
			o.lateNS = append(o.lateNS, r.sent.Sub(r.due).Nanoseconds())
			o.settle(s, r.idx, res, r.due, now, start, goal)
			requestSpans(rec, int64(r.idx), r.due, r.sent, r.submitted, now, res)
		}
	}()
	for i, off := range schedule {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := sentReq{idx: i, due: due, sent: time.Now()}
		r.ch = srv.Submit(s.inputs[i%len(s.inputs)], time.Time{})
		if rec != nil {
			r.submitted = time.Now()
		}
		q <- r
	}
	close(q)
	wg.Wait()
	o.sent = len(schedule)
	o.wall = last.Sub(start)
	o.mem = mem.since()
	return o
}

// reportServe turns an untraced load segment into the end-to-end metrics.
func reportServe(m *meter, s *serveState, o *loadOutcome, setupS float64) error {
	m.attempted, m.failed = o.sent, o.sent-o.ok
	if o.goalAt == 0 {
		m.problem("fewer correct replies than the goal count")
		o.goalAt = o.wall
	}
	return m.reportEndToEnd(untracedRun{setupS: setupS, toQuality: o.goalAt, wall: o.wall,
		samples: o.ok, attempted: o.sent, failed: o.sent - o.ok, latNS: o.latNS, limit: s.p.Limit, allocMB: o.mem.allocMB})
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func runServeSaturate(c runConfig, m *meter) error {
	return runServe(c, m, c.p.Saturate, "serve_saturate", func(s *serveState, dur time.Duration, goal int, rec *recorder) *loadOutcome {
		return closedLoop(s.srv, s, dur, goal, rec)
	})
}

func runServeOpen(c runConfig, m *meter) error {
	segment := 0
	return runServe(c, m, c.p.Open, "serve_open", func(s *serveState, dur time.Duration, goal int, rec *recorder) *loadOutcome {
		// Each segment of a run draws its own schedule from the seed.
		r := rng.New(c.seed).Split("arrivals").SplitN(segment)
		segment++
		return openLoop(s.srv, s, poissonSchedule(r, s.p.Rate, dur), goal, rec)
	})
}

// runServe is the shape both serving workloads share; load is how the
// workload's requests arrive.
//
// The whole process runs on one CPU. One replica's forward pass is one
// thread's work, the generator and the collector wake for microseconds at a
// time, and the host's kernel leaves so light a process on one vCPU for
// most runs (the other reads 100% idle) and on two for some, for tens of
// minutes at a time. On one, a woken generator or collector waits behind the
// running forward pass: serve_open's latency_p50_ms read 4.65 ms against 4.0
// on two, serve_saturate's latency_p99_ms 18.1 against 14.3, and ten runs
// that mixed the states spread 12-15%. Pinned, every run is in the first.
func runServe(c runConfig, m *meter, p serveParams, name string,
	load func(s *serveState, dur time.Duration, goal int, rec *recorder) *loadOutcome) error {
	all, err := threadAffinity()
	if err != nil {
		return err
	}
	one, cpu := all.lastCPU()
	if err := setProcessAffinity(one); err != nil {
		return err
	}
	defer setProcessAffinity(all)
	m.note("%s: generator and server share cpu %d", name, cpu)
	setup := func() (*serveState, error) { return setupServe(p, c.seed) }
	if !c.traced {
		s, setupS, err := timedSetups(c.p.SetupReps, setup, (*serveState).close)
		if err != nil {
			return err
		}
		defer s.close()
		o := load(s, secs(c.seconds), int(c.seconds*p.GoalPerSecond), nil)
		return reportServe(m, s, o, setupS)
	}

	s, err := setup()
	if err != nil {
		return err
	}
	defer s.close()
	hasLadder := len(p.Ladder) > 0
	mainShare := 0.5
	if hasLadder {
		mainShare = 0.4
	}
	refOut := load(s, secs(c.seconds*0.2), 0, nil)
	before := s.srv.Stats()
	rec := newRecorder()
	gc := markMem()
	o := load(s, secs(c.seconds*mainShare), 0, rec)
	gcd := gc.since()
	after := s.srv.Stats()
	m.attempted, m.failed = o.sent, o.sent-o.ok
	rec.count("serve.requests", int64(o.sent))
	rec.count("serve.correct", int64(o.ok))
	rec.count("serve.batches", after.Batches-before.Batches)
	m.note("%s reference segment: sent %d, correct %d", name, refOut.sent, refOut.ok)

	fwd := probeServeShapes(m, s.net, p.Genes, p.Hidden[0])
	batches := float64(after.Batches - before.Batches)
	meanBatch := float64(after.Completed-before.Completed) / batches
	lat := sorted(msOf(o.latNS))
	server := sorted(msOf(o.serverNS))
	late := sorted(msOf(o.lateNS))
	self := selfTimes(rec.spans)
	fwdMS := forwardAt(fwd, meanBatch) * 1e3
	serverP50 := quantile(server, 0.5)
	m.set("serve.mean_batch", meanBatch)
	m.set("serve.full_batch_frac", float64(o.fullBatch)/float64(o.ok))
	m.set("serve.batches", batches)
	m.set("serve.shed_frac", float64(after.Shed-before.Shed)/float64(o.sent))
	m.set("serve.expired_frac", float64(after.Expired-before.Expired)/float64(o.sent))
	m.setN("serve.server_latency_p50_ms", serverP50, len(server))
	m.setN("serve.server_latency_p99_ms", quantile(server, 0.99), len(server))
	m.setN("serve.latency_p999_ms", quantile(lat, 0.999), len(lat))
	m.set("serve.wait_p50_ms", serverP50-fwdMS)
	busy := batches * fwdMS / 1e3 / o.wall.Seconds()
	m.set("serve.forward_busy_frac", busy)
	m.setN("serve.submit_us", median(msOf(self["serve.submit"]))*1e3, len(self["serve.submit"]))
	m.set("serve.allocs_per_request", o.mem.mallocs/float64(o.sent))
	if len(late) > 0 {
		m.setN("serve.gen_late_p99_ms", quantile(late, 0.99), len(late))
		m.set("serve.gen_late_max_ms", late[len(late)-1])
	}
	m.set("serve.new_s", s.newS)
	m.set("runtime.gc_cycles", gcd.gcCycles)
	m.set("runtime.gc_pause_total_ms", gcd.gcPauseMS)
	// Seen from outside, the request breakdown has two terms: the forward
	// pass (probe) and everything before it (wait). The probe must fit
	// inside what the server reported, per request and over the segment.
	if serverP50-fwdMS < -0.15*serverP50 {
		m.problem("request breakdown does not add up: forward probe %.3f ms at batch %.1f exceeds the server's median latency %.3f ms; the probe is the term that is off", fwdMS, meanBatch, serverP50)
	}
	if busy > 1.15 {
		m.problem("request breakdown does not add up: %0.f batches x forward probe %.3f ms = %.2f of the segment's wall; the probe is the term that is off", batches, fwdMS, busy)
	}
	// Tracing overhead per op: wall per request in a closed loop; in an open
	// loop the rate is fixed, so the median latency stands in.
	tracedPer, untracedPer := o.wall.Seconds()/float64(o.sent), refOut.wall.Seconds()/float64(refOut.sent)
	if len(late) > 0 {
		tracedPer, untracedPer = quantile(lat, 0.5), median(msOf(refOut.latNS))
	}
	m.set("trace.overhead_frac", (tracedPer-untracedPer)/untracedPer)

	if hasLadder {
		best := 0.0
		for _, rate := range p.Ladder {
			rung := p
			rung.Rate = rate
			rs := *s
			rs.p = rung
			ro := load(&rs, secs(c.seconds*0.1), 0, nil)
			p99 := 0.0 // a rung too short to be answered at all reads 0
			if len(ro.latNS) > 0 {
				p99 = quantile(sorted(msOf(ro.latNS)), 0.99)
			}
			m.setN(fmt.Sprintf("serve.ladder_p99_ms_r%.0f", rate), p99, len(ro.latNS))
			if ro.ok == ro.sent && p99 <= float64(p.Limit)/1e6 {
				best = rate
			}
		}
		m.set("serve.max_rate_within_slo_rps", best)
	}
	m.set("runtime.heap_peak_mb", float64(markMem().ms.HeapSys)/(1<<20))
	return writeSpans(c, rec, name)
}
