package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// replicaTIDBase offsets replica span tracks away from trainer ranks and
// the hedge flow track in a merged Chrome trace.
const replicaTIDBase = 2000

// batch is one formed tensor batch travelling from the batcher to a replica.
// ver selects the model version every request in the batch executes against
// (batches never mix versions).
type batch struct {
	reqs []*request
	ver  int
}

// pool runs the model replicas. Each replica is a goroutine owning one
// nn.Net clone and one FIFO work queue; the batcher pushes to the least
// loaded live replica, and an idle replica steals from the back of the
// longest queue. A single mutex guards all queues — batches arrive at
// micro-batch granularity, so queue operations are far off the hot path
// compared to the forward passes they schedule.
//
// The pool is sized at capacity slots (Replicas, or Autoscale.Max when the
// autoscaler is on) but only spawns goroutines for the live ones: resize
// spawns into free slots and retires the highest live slot, so the control
// loop grows and shrinks the fleet without restarting it. A rollout adds a
// second net per replica (candNets) that candidate-version batches execute
// against. Replica clones own their weights and layer caches but share their
// master's packed inference weights (see master), so the pool holds one
// packed copy per model version however many replicas run.
type pool struct {
	s        *Server
	capacity int
	base     *nn.Net // master baseline weights; each spawn clones it
	cand     *nn.Net // master candidate weights (nil before any Deploy)
	nets     []*nn.Net
	candNets []*nn.Net
	ins      []*tensor.Tensor // per replica: the MaxBatch x InDim input buffer execute reslices

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][]*batch
	inflight []int // 0 or 1 per replica, counted in the load metric
	live     []bool
	running  []bool // goroutine alive (lags live while a retiree drains)
	dead     []bool // killed by the fault plan; the slot is never reused
	retiring []bool // told to exit; cleared when the goroutine is gone
	nLive    int
	pending  int // formed-but-unstarted batches across all queues
	closed   bool

	// health-scoring state (see health.go; active only when cfg.Health is)
	ewma     []float64 // per-replica service-time EWMA, seconds
	nObs     []int     // batches served per replica
	ejected  []bool
	nEjected int
	places   int // placement counter driving the probe cadence

	kills        int64
	requeued     int64
	steals       int64
	ejections    int64
	readmissions int64

	wg sync.WaitGroup
}

func newPool(s *Server, net *nn.Net) *pool {
	capacity := s.cfg.Replicas
	if s.cfg.Autoscale != nil && s.cfg.Autoscale.Max > capacity {
		capacity = s.cfg.Autoscale.Max
	}
	p := &pool{
		s:        s,
		capacity: capacity,
		nets:     make([]*nn.Net, capacity),
		candNets: make([]*nn.Net, capacity),
		ins:      make([]*tensor.Tensor, capacity),
		queues:   make([][]*batch, capacity),
		inflight: make([]int, capacity),
		live:     make([]bool, capacity),
		running:  make([]bool, capacity),
		dead:     make([]bool, capacity),
		retiring: make([]bool, capacity),
		ewma:     make([]float64, capacity),
		nObs:     make([]int, capacity),
		ejected:  make([]bool, capacity),
	}
	p.cond = sync.NewCond(&p.mu)
	p.base = p.master(net)
	start := s.cfg.Replicas
	if s.cfg.Autoscale != nil {
		if start < s.cfg.Autoscale.Min {
			start = s.cfg.Autoscale.Min
		}
		if start > s.cfg.Autoscale.Max {
			start = s.cfg.Autoscale.Max
		}
	}
	p.mu.Lock()
	for r := 0; r < start; r++ {
		p.spawnLocked(r)
	}
	p.mu.Unlock()
	return p
}

// master returns the pool's own copy of a model version. One inference batch
// through it makes its layers pack their weights (nn.Dense keeps the packed
// copy and Clone shares it), so the pack happens here, off the request path,
// once per version. A MaxBatch of 1 builds none: 1-row batches never read it.
func (p *pool) master(net *nn.Net) *nn.Net {
	m := net.Clone()
	m.Forward(tensor.New(min(2, p.s.cfg.MaxBatch), p.s.cfg.InDim), false)
	return m
}

// spawnLocked brings slot r to life: fresh clones of the master weights,
// reset health state, and a new replica goroutine. Caller holds p.mu.
func (p *pool) spawnLocked(r int) {
	p.live[r] = true
	p.running[r] = true
	p.retiring[r] = false
	p.nLive++
	p.nets[r] = p.base.Clone()
	if p.cand != nil {
		p.candNets[r] = p.cand.Clone()
	}
	if p.ins[r] == nil {
		p.ins[r] = tensor.New(p.s.cfg.MaxBatch, p.s.cfg.InDim)
	}
	p.ewma[r] = 0
	p.nObs[r] = 0
	if p.ejected[r] {
		p.ejected[r] = false
		p.nEjected--
	}
	p.wg.Add(1)
	go func() {
		defer func() {
			p.mu.Lock()
			p.running[r] = false
			p.retiring[r] = false
			p.cond.Broadcast()
			p.mu.Unlock()
			p.wg.Done()
		}()
		p.replica(r)
	}()
}

// retireLocked tells the highest-numbered live slot to exit after its current
// batch and re-homes its queued backlog onto the survivors. Caller holds p.mu
// and guarantees at least one replica stays live.
func (p *pool) retireLocked(r int) {
	p.retiring[r] = true
	p.live[r] = false
	p.nLive--
	if p.ejected[r] {
		p.ejected[r] = false
		p.nEjected--
	}
	backlog := p.queues[r]
	p.queues[r] = nil
	p.pending -= len(backlog) // enqueueLocked below re-counts them
	for _, b := range backlog {
		p.enqueueLocked(b)
	}
}

// resize moves the live-replica count toward target (clamped to [1,
// capacity]), spawning into free slots and retiring from the top. A slot
// whose retired goroutine has not yet exited is skipped this round — the
// next control tick retries. Returns the applied delta.
func (p *pool) resize(target int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0
	}
	if target < 1 {
		target = 1
	}
	if target > p.capacity {
		target = p.capacity
	}
	delta := 0
	for p.nLive < target {
		slot := -1
		for r := 0; r < p.capacity; r++ {
			if !p.live[r] && !p.dead[r] && !p.running[r] && !p.retiring[r] {
				slot = r
				break
			}
		}
		if slot < 0 {
			break // every free slot is dead or still draining; retry next tick
		}
		p.spawnLocked(slot)
		delta++
	}
	for p.nLive > target && p.nLive > 1 {
		slot := -1
		for r := p.capacity - 1; r >= 0; r-- {
			if p.live[r] {
				slot = r
				break
			}
		}
		if slot < 0 {
			break
		}
		p.retireLocked(slot)
		delta--
	}
	if delta != 0 {
		p.cond.Broadcast()
		if p.s.obs.Enabled() {
			p.s.obs.SetGauge("serve.live_replicas", float64(p.nLive))
		}
	}
	return delta
}

// installCandidate stages candidate weights for a rollout: cand (from
// master) for replicas spawned later, and one clone of it per live replica.
func (p *pool) installCandidate(cand *nn.Net) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cand = cand
	for r := range p.candNets {
		if p.live[r] {
			p.candNets[r] = p.cand.Clone()
		}
	}
}

// netFor returns the net replica r must run for a batch of version ver.
func (p *pool) netFor(r, ver int) *nn.Net {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ver == VersionCandidate && p.candNets[r] != nil {
		return p.candNets[r]
	}
	return p.nets[r]
}

// loadSnapshot is the control loop's one-lock observation of the pool.
func (p *pool) loadSnapshot() (pending, busy, live, healthy int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending, p.inflightTotalLocked(), p.nLive, p.healthyLocked()
}

// push hands one batch to the least loaded live replica, blocking while the
// pool backlog is at MaxPendingBatches. That block is the backpressure
// chain's middle link: the batcher stalls here, the admission queue fills
// behind the batcher, and Submit starts shedding.
func (p *pool) push(b *batch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending >= p.s.cfg.MaxPendingBatches && !p.closed {
		p.cond.Wait()
	}
	if p.nLive == 0 || p.closed {
		// done channels are buffered, so failing under the lock is safe.
		for _, r := range b.reqs {
			p.s.fail(r, ErrClosed)
		}
		return
	}
	p.enqueueLocked(b)
	p.cond.Broadcast()
}

// enqueueLocked appends b to the chosen replica's queue: the least loaded
// live replica (load = queued batches + in-flight batch; ties go to the
// lowest id), filtered and probed by health scoring when it is enabled
// (pickReplicaLocked in health.go).
func (p *pool) enqueueLocked(b *batch) {
	best := p.pickReplicaLocked()
	p.queues[best] = append(p.queues[best], b)
	p.pending++
	if p.s.obs.Enabled() {
		p.s.obs.SetGauge("serve.pool_backlog", float64(p.pending))
	}
}

// takeLocked returns work for replica r: the front of its own queue, or —
// when idle — a batch stolen from the back of the longest other live queue.
func (p *pool) takeLocked(r int) (b *batch, stolen bool) {
	if q := p.queues[r]; len(q) > 0 {
		b = q[0]
		p.queues[r] = q[1:]
	} else if p.ejected[r] {
		// An ejected replica serves only what the prober routes to it;
		// letting it steal would route traffic around its own ejection.
	} else if v := p.victimLocked(r); v >= 0 {
		q := p.queues[v]
		b = q[len(q)-1]
		p.queues[v] = q[:len(q)-1]
		stolen = true
	}
	if b != nil {
		p.pending--
		p.inflight[r] = 1
	}
	return b, stolen
}

// victimLocked picks the steal victim: the live replica (other than r) with
// the longest stealable queue, lowest id on ties. Returns -1 if none. A
// single batch queued at an idle owner is not stealable — the owner is about
// to take it anyway, so stealing it would be pure churn; stealing pays off
// only when the owner is busy executing or backlogged.
func (p *pool) victimLocked(r int) int {
	best, bestLen := -1, 0
	for v := range p.queues {
		if v == r || !p.live[v] || len(p.queues[v]) == 0 {
			continue
		}
		if len(p.queues[v]) == 1 && p.inflight[v] == 0 {
			continue
		}
		if len(p.queues[v]) > bestLen {
			best, bestLen = v, len(p.queues[v])
		}
	}
	return best
}

// replica is one model replica's serving loop.
func (p *pool) replica(r int) {
	idx := 0 // per-replica batch index, the fault plan's "step"
	for {
		p.mu.Lock()
		var b *batch
		var stolen bool
		for {
			if p.retiring[r] {
				// Scaled down: exit without taking new work (retireLocked
				// already re-homed the queue; the spawn wrapper's defer
				// marks the slot reusable).
				p.mu.Unlock()
				return
			}
			b, stolen = p.takeLocked(r)
			if b != nil {
				break
			}
			if p.closed && p.pending == 0 && p.inflightTotalLocked() == 0 {
				// Drain complete. The in-flight check matters: a replica
				// still executing could die and requeue its batch, so
				// waiters may not exit while any batch is in flight.
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		if stolen {
			p.steals++
			p.s.obs.Count("serve.steals", 1)
		}
		p.cond.Broadcast() // a backlog slot freed; wake a blocked push
		p.mu.Unlock()

		if p.s.cfg.Faults.KillAt(r, idx) {
			p.die(r, b)
			return
		}
		start := p.s.clock.Now()
		if d := p.s.cfg.Faults.HangAt(r, idx); d > 0 {
			// Straggler injection: late but correct (clock-driven, so a
			// VirtualClock test controls exactly how late).
			<-p.s.clock.After(d)
		}
		if f := p.s.cfg.Faults.DegradeFactor(r); f > 1 {
			// Gray straggler: alive, correct, persistently slow. The stall
			// is clock-driven and inside the measured service window, so
			// health scoring sees exactly the injected slowdown.
			<-p.s.clock.After(time.Duration(float64(p.s.cfg.DegradeUnit) * (f - 1)))
		}
		idx++

		p.execute(r, b)

		if p.s.cfg.Health.enabled() {
			p.noteLatency(r, p.s.clock.Now().Sub(start))
		}

		p.mu.Lock()
		p.inflight[r] = 0
		// Wake drain waiters and anything observing pool state on the cond
		// (the gray chaos tests wait on served-batch counts this way instead
		// of sleeping).
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// inflightTotalLocked counts replicas currently executing a batch.
func (p *pool) inflightTotalLocked() int {
	total := 0
	for _, f := range p.inflight {
		total += f
	}
	return total
}

// die implements replica-kill tolerance, mirroring the elastic trainer's
// re-shard: the dying replica hands its in-flight batch and queued backlog
// to the surviving replicas, so an admitted request is never lost to a kill.
func (p *pool) die(r int, inflight *batch) {
	p.mu.Lock()
	p.live[r] = false
	p.dead[r] = true // killed slots are never reused by resize
	p.nLive--
	p.inflight[r] = 0
	p.kills++
	backlog := p.queues[r]
	p.queues[r] = nil
	p.pending -= len(backlog) // re-enqueue below re-counts them
	toMove := append([]*batch{inflight}, backlog...)
	var orphaned []*request
	requeued := 0
	for _, b := range toMove {
		if p.nLive == 0 {
			orphaned = append(orphaned, b.reqs...)
			continue
		}
		p.enqueueLocked(b)
		p.requeued++
		requeued++
	}
	if p.s.obs.Enabled() {
		p.s.obs.Count("serve.replica_killed", 1)
		p.s.obs.Count("serve.requeued", int64(requeued))
		p.s.obs.SetGauge("serve.live_replicas", float64(p.nLive))
		p.s.obs.RecordFlight("replica_killed", obs.Ctx{},
			fmt.Sprintf("replica=%d requeued=%d live=%d", r, requeued, p.nLive))
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, req := range orphaned {
		p.s.fail(req, ErrClosed)
	}
}

// execute runs one batch through replica r's model and answers each request
// with its output row. Requests whose deadline passed while the batch sat in
// the pool queue are failed without paying for their forward pass.
func (p *pool) execute(r int, b *batch) {
	now := p.s.clock.Now()
	alive := b.reqs[:0]
	for _, req := range b.reqs {
		if req.expired(now) {
			p.s.fail(req, ErrDeadline)
			continue
		}
		if req.settled.Load() {
			// The other hedge copy already answered: cancel this one before
			// it pays for a forward pass.
			p.s.nHedgeCancelled.Add(1)
			p.s.obs.Count("serve.hedge_cancelled", 1)
			continue
		}
		alive = append(alive, req)
	}
	if len(alive) == 0 {
		return
	}
	// One exec span per batch on the replica's own track (tid 2000+r keeps
	// the single-goroutine-per-tid discipline: replica r is one goroutine).
	// The first request's trace id links the span to a concrete trace.
	sp := p.s.obs.Span(replicaTIDBase+r, "serve.exec")
	sp.SetArg("batch", len(alive))
	if alive[0].trace.Valid() {
		sp.SetArg("trace", alive[0].trace.String())
	}
	in := p.ins[r].SliceRows(0, len(alive))
	for i, req := range alive {
		copy(in.Data[i*p.s.cfg.InDim:], req.x)
	}
	out := p.netFor(r, b.ver).Forward(in, false)
	sp.End()
	for i, req := range alive {
		row := append([]float64(nil), out.Row(i).Data...)
		p.s.complete(req, row, len(alive))
	}
}

// close wakes every replica for the drain-and-exit path and waits for them.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// counters snapshots the pool's fault/steal accounting.
func (p *pool) counters() (kills, requeued, steals int64, liveReplicas int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills, p.requeued, p.steals, p.nLive
}
