// Package serve is the inference-serving subsystem: a production-shaped
// request path over a trained nn.Net built from a dynamic micro-batcher, a
// pool of model replicas with work stealing, and explicit admission control.
//
// The paper's driver problems do not end at training — a drug-response or
// surveillance model must answer single-sample queries under heavy open-loop
// traffic, and single-sample forward passes waste the GEMM kernels' blocking.
// The batcher therefore coalesces requests into tensor batches under a
// max-batch-size / max-linger policy; the replica pool runs N independent
// model clones on goroutines; and a bounded admission queue sheds load with
// typed errors (ErrOverloaded, ErrDeadline) instead of collapsing.
//
// Every time-dependent decision flows through an injected Clock, so the
// whole pipeline — linger flushes, deadline expiry, latency accounting — is
// testable on a VirtualClock with zero sleeps. Replica failures are scripted
// through a fault.Plan exactly like the elastic trainer's worker kills: a
// dying replica redistributes its backlog over the survivors, so no admitted
// request is ever lost to a kill.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Typed serving errors. Callers distinguish shed load (retry later, the
// queue was full) from missed deadlines (the answer stopped mattering) from
// shutdown.
var (
	// ErrOverloaded reports that the bounded admission queue was full at
	// submit time; the request was shed without queuing.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDeadline reports that the request's deadline expired before a
	// replica started executing its batch.
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadInput reports a feature vector of the wrong dimensionality.
	ErrBadInput = errors.New("serve: input has wrong dimension")
	// ErrBadModel reports a net New or Deploy refused: its layers do not
	// chain from Config.InDim, or a candidate's output width differs from
	// the baseline's.
	ErrBadModel = errors.New("serve: model does not fit the server")
)

// modelOutDim walks net's layers from inDim and returns the output width.
// Layer.OutDim panics on a width it cannot take; here that is ErrBadModel,
// found before a replica goroutine can hit it on its first batch.
func modelOutDim(net *nn.Net, inDim int) (out int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrBadModel, r)
		}
	}()
	out = inDim
	for _, l := range net.Layers {
		out = l.OutDim(out)
	}
	return out, nil
}

// Config parameterises a Server. The zero value of every optional field is
// replaced by the documented default.
type Config struct {
	// Replicas is the number of independent model clones serving batches
	// (default 1). Each replica is one goroutine with its own nn.Net, so
	// forward passes never share layer caches.
	Replicas int
	// MaxBatch is the batch-size bound: a forming batch is dispatched as
	// soon as it holds this many requests (default 8).
	MaxBatch int
	// MaxLinger is the latency bound of batching: a forming batch is
	// dispatched once its oldest request has waited this long, full or not
	// (default 2ms).
	MaxLinger time.Duration
	// QueueCap bounds the admission queue. Submit sheds (ErrOverloaded)
	// when it is full; Infer blocks, which is the backpressure closed-loop
	// clients feel (default 64). A negative value makes the queue
	// unbuffered: a blocking submit then returns only at the rendezvous
	// with the batcher, which is what the deterministic virtual-clock
	// tests rely on.
	QueueCap int
	// MaxPendingBatches bounds the formed-but-unexecuted backlog across
	// the replica pool; when it is full the batcher itself stalls and the
	// admission queue fills behind it (default 2*Replicas).
	MaxPendingBatches int
	// InDim is the required feature dimensionality of every request.
	InDim int
	// Clock injects the time source (default the wall clock). Tests use a
	// VirtualClock so linger and deadline behaviour is deterministic.
	Clock Clock
	// Obs, if enabled, records queue depth, batch-size and latency
	// histograms, and shed/kill counters.
	Obs *obs.Session
	// Faults scripts replica kills and stalls: step n is the n-th batch
	// the replica starts (the same Plan type the elastic trainer uses).
	// A killed replica's backlog is redistributed over the survivors.
	// Plan.Degrade entries make a replica a gray straggler: every batch it
	// runs stalls (factor-1)*DegradeUnit before executing.
	Faults *fault.Plan
	// DegradeUnit is the per-batch time unit a DegradedWorker's slowdown
	// factor multiplies (default 1ms): a factor-10 replica stalls 9ms per
	// batch. On a VirtualClock the stall is virtual, so gray-straggler tests
	// stay sleep-free.
	DegradeUnit time.Duration
	// Hedge enables hedged execution (zero value: disabled). See HedgeConfig.
	Hedge HedgeConfig
	// Health enables replica health scoring with ejection and re-admission
	// (zero value: disabled). See HealthConfig.
	Health HealthConfig
	// Autoscale, when non-nil, runs the replica autoscaler on the control
	// loop: the pool grows toward Autoscale.Max and shrinks toward
	// Autoscale.Min around the configured Replicas starting point.
	Autoscale *AutoscaleConfig
	// Cache, when non-nil, puts an inference result cache in front of the
	// batcher (see ResultCacheConfig).
	Cache *ResultCacheConfig
	// CtrlEvery is the control-loop cadence for rollout and autoscaler
	// evaluation (default 250ms).
	CtrlEvery time.Duration
	// RouteSeed seeds the submit-time canary/shadow routing stream (default
	// 1) so versioned traffic splits are reproducible under a VirtualClock.
	RouteSeed uint64
}

func (c *Config) withDefaults() error {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = 2 * time.Millisecond
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0 // unbuffered: see the QueueCap doc
	}
	if c.MaxPendingBatches <= 0 {
		c.MaxPendingBatches = 2 * c.Replicas
	}
	if c.InDim <= 0 {
		return fmt.Errorf("serve: config needs InDim > 0, got %d", c.InDim)
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	if c.Faults.NumKills() >= c.Replicas {
		return fmt.Errorf("serve: plan kills %d of %d replicas — no survivors",
			c.Faults.NumKills(), c.Replicas)
	}
	if c.DegradeUnit <= 0 {
		c.DegradeUnit = time.Millisecond
	}
	if c.Hedge.After < 0 {
		return fmt.Errorf("serve: negative hedge budget %v", c.Hedge.After)
	}
	if c.Autoscale != nil {
		if err := c.Autoscale.withDefaults(); err != nil {
			return err
		}
	}
	if c.Cache != nil {
		c.Cache.withDefaults()
	}
	if c.CtrlEvery <= 0 {
		c.CtrlEvery = 250 * time.Millisecond
	}
	if c.RouteSeed == 0 {
		c.RouteSeed = 1
	}
	c.Health.withDefaults()
	if c.Health.enabled() && c.Health.EjectFactor <= 1 {
		return fmt.Errorf("serve: health EjectFactor must exceed 1, got %g", c.Health.EjectFactor)
	}
	return nil
}

// Result is one request's outcome.
type Result struct {
	// Y is the model output row (nil when Err is set).
	Y []float64
	// Err is nil on success, else one of the typed serving errors.
	Err error
	// BatchSize is the size of the tensor batch this request rode in.
	BatchSize int
	// Latency is submit-to-completion time on the server's clock.
	Latency time.Duration
}

// request is one in-flight inference.
type request struct {
	x        []float64
	deadline time.Time // zero = none
	arrived  time.Time
	done     chan Result

	// trace is the request's trace context, minted at admission (or carried
	// in from the caller via SubmitCtx so retry attempts share one trace).
	// It rides the request through the batcher, replica, and hedge copies,
	// ending up as the exemplar on the latency-histogram bucket it lands in.
	trace obs.Ctx

	// Hedged execution can put the same request in two batches on two
	// replicas. settled arbitrates: the first fail/complete wins the CAS and
	// answers the caller; the loser is dropped (and counted). settledCh is
	// non-nil only when a hedge watcher is armed — settling closes it so the
	// watcher can stand down without a timer tick. hedged marks that a
	// duplicate was actually launched (the flow-event stitch point).
	settled   atomic.Bool
	settledCh chan struct{}
	hedged    atomic.Bool

	// Versioned rollout: which model version serves this request, and
	// whether it is a shadow duplicate (answer discarded, outcome recorded
	// against the candidate's SLO only). The server assigns version and
	// wantShadow at submit time (routeRequest), before the request enters any
	// concurrent path, so the hedge watcher and completing replica read them
	// race-free; the simulator assigns version at its own admission event.
	// Immutable after assignment.
	version    int
	shadow     bool
	wantShadow bool

	// ckey is the result-cache key (0 = no cache; cacheKey never returns 0).
	// Set at admission when the result cache is enabled so the winning
	// completion can populate the cache.
	ckey uint64

	// simDone is the load simulator's single-threaded "finally resolved"
	// flag (the event loop's analogue of settled + drop accounting).
	simDone bool
}

func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

// settle claims the exclusive right to answer this request. Exactly one
// caller ever wins.
func (r *request) settle() bool {
	if !r.settled.CompareAndSwap(false, true) {
		return false
	}
	if r.settledCh != nil {
		close(r.settledCh)
	}
	return true
}

// Server is the serving pipeline: admission queue -> micro-batcher ->
// replica pool. Construct with New, stop with Close.
type Server struct {
	cfg   Config
	clock Clock
	obs   *obs.Session

	in     chan *request
	pool   *pool
	outDim int // the baseline's output width; a candidate must match it

	mu     sync.RWMutex // guards closed against concurrent sends on in
	closed bool

	batcherWG sync.WaitGroup
	hedgeWG   sync.WaitGroup

	// control plane (see control.go)
	start           time.Time
	rollout         atomic.Pointer[Rollout]
	scaler          *Autoscaler // touched only by the control goroutine
	ctrlOn          bool        // guarded by mu
	ctrlStop        chan struct{}
	ctrlWG          sync.WaitGroup
	routeMu         sync.Mutex // guards route against concurrent submitters
	route           *rng.Stream
	nCanaryInflight atomic.Int64
	nCanaryServed   atomic.Int64
	nShadowServed   atomic.Int64
	nScaleUps       atomic.Int64
	nScaleDowns     atomic.Int64

	// recent-latency ring feeding the autoscaler's p99 input
	latMu    sync.Mutex
	latRing  []float64
	latCount int

	// result cache (nil when cfg.Cache is nil)
	cache        *resultCache
	nCacheHits   atomic.Int64
	nCacheMisses atomic.Int64

	// counters (atomic; see Stats)
	nSubmitted      atomic.Int64
	nShed           atomic.Int64
	nExpired        atomic.Int64
	nCompleted      atomic.Int64
	nBatches        atomic.Int64
	nSamples        atomic.Int64
	nHedged         atomic.Int64
	nHedgeCancelled atomic.Int64
	nHedgeWasted    atomic.Int64
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Submitted counts requests accepted into the admission queue.
	Submitted int64
	// Shed counts requests rejected with ErrOverloaded.
	Shed int64
	// Expired counts requests failed with ErrDeadline.
	Expired int64
	// Completed counts requests answered successfully.
	Completed int64
	// Batches counts dispatched tensor batches; MeanBatch is the mean
	// number of requests per batch.
	Batches   int64
	MeanBatch float64
	// ReplicaKills counts replicas lost to the fault plan; Requeued counts
	// batches a dying replica handed to survivors; Steals counts batches a
	// replica took from another replica's queue.
	ReplicaKills int64
	Requeued     int64
	Steals       int64
	// LiveReplicas is the surviving replica count.
	LiveReplicas int
	// Hedged counts requests duplicated to a second replica after outliving
	// the hedge budget. HedgeCancelled counts duplicate copies a replica
	// discarded before the forward pass because the other copy had already
	// answered; HedgeWasted counts copies whose forward pass completed only
	// to lose the settle race (work truly burned twice).
	Hedged         int64
	HedgeCancelled int64
	HedgeWasted    int64
	// Ejections counts replicas ejected by health scoring, Readmissions how
	// many probes brought one back, HealthyReplicas the live non-ejected
	// count right now.
	Ejections       int64
	Readmissions    int64
	HealthyReplicas int
	// CanaryServed counts requests routed to a rollout candidate (including
	// shadow copies); ShadowServed the shadow copies among them.
	CanaryServed int64
	ShadowServed int64
	// CacheHits/CacheMisses count result-cache lookups (zero with no cache).
	CacheHits   int64
	CacheMisses int64
	// ScaleUps/ScaleDowns count autoscaler decisions applied to the pool.
	ScaleUps   int
	ScaleDowns int
}

// New builds a Server over net. The net is cloned once per replica; the
// caller's net is not used after New returns, so it can keep training.
func New(net *nn.Net, cfg Config) (*Server, error) {
	if net == nil {
		return nil, fmt.Errorf("serve: nil net")
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	outDim, err := modelOutDim(net, cfg.InDim)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		outDim:   outDim,
		clock:    cfg.Clock,
		obs:      cfg.Obs,
		in:       make(chan *request, cfg.QueueCap),
		start:    cfg.Clock.Now(),
		ctrlStop: make(chan struct{}),
		route:    rng.New(cfg.RouteSeed).Split("serve-route"),
	}
	if cfg.Autoscale != nil {
		as, err := NewAutoscaler(*cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		s.scaler = as
		s.latRing = make([]float64, 256)
	}
	if cfg.Cache != nil {
		s.cache = newResultCache(*cfg.Cache)
	}
	// Pre-register every counter the pipeline can touch so a metrics dump
	// (OpenMetrics, SLO rules bound to counters) sees explicit zeros instead
	// of absent series on paths that never fired this run.
	if s.obs.Enabled() {
		for _, name := range []string{
			"serve.submitted", "serve.completed", "serve.shed",
			"serve.deadline_missed", "serve.batches", "serve.steals",
			"serve.requeued", "serve.replica_killed", "serve.hedged",
			"serve.hedge_cancelled", "serve.hedge_wasted",
			"serve.replica_ejected", "serve.replica_readmitted",
		} {
			s.obs.Count(name, 0)
		}
		s.obs.Flight.TriggerOn("replica_killed", "replica_ejected")
	}
	s.pool = newPool(s, net)
	s.batcherWG.Add(1)
	go func() {
		defer s.batcherWG.Done()
		s.batchLoop()
	}()
	if s.scaler != nil {
		s.mu.Lock()
		s.startCtrlLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// Submit is the open-loop entry point: it never blocks. The returned channel
// (capacity 1) delivers the Result; a full admission queue delivers
// ErrOverloaded immediately.
func (s *Server) Submit(x []float64, deadline time.Time) <-chan Result {
	return s.SubmitCtx(x, deadline, obs.Ctx{})
}

// SubmitCtx is Submit with a caller-provided trace context: a Retrier
// passes the same context on every attempt so the whole retry chain shares
// one trace id. The zero Ctx mints a fresh trace at admission.
func (s *Server) SubmitCtx(x []float64, deadline time.Time, c obs.Ctx) <-chan Result {
	req := s.newRequest(x, deadline, c)
	done := req.done
	if len(x) != s.cfg.InDim {
		done <- Result{Err: ErrBadInput}
		return done
	}
	if s.cacheLookup(req) {
		return done
	}
	s.routeRequest(req)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		done <- Result{Err: ErrClosed}
		return done
	}
	select {
	case s.in <- req:
		s.mu.RUnlock()
		s.nSubmitted.Add(1)
		s.obs.Count("serve.submitted", 1)
		s.armHedge(req)
		s.observeQueueDepth()
	default:
		s.mu.RUnlock()
		s.nShed.Add(1)
		s.obs.Count("serve.shed", 1)
		s.obs.RecordFlight("shed", req.trace, "admission queue full")
		done <- Result{Err: ErrOverloaded}
	}
	return done
}

// Infer is the closed-loop entry point: it blocks for admission (the
// backpressure path — a full queue delays the caller instead of shedding)
// and then for the result.
func (s *Server) Infer(x []float64) ([]float64, error) {
	res := <-s.submitBlocking(x, time.Time{})
	return res.Y, res.Err
}

// InferDeadline is Infer with a completion deadline on the server's clock.
func (s *Server) InferDeadline(x []float64, deadline time.Time) Result {
	return <-s.submitBlocking(x, deadline)
}

func (s *Server) submitBlocking(x []float64, deadline time.Time) <-chan Result {
	req := s.newRequest(x, deadline, obs.Ctx{})
	done := req.done
	if len(x) != s.cfg.InDim {
		done <- Result{Err: ErrBadInput}
		return done
	}
	if s.cacheLookup(req) {
		return done
	}
	s.routeRequest(req)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		done <- Result{Err: ErrClosed}
		return done
	}
	s.in <- req // blocks under load: admission backpressure
	s.mu.RUnlock()
	s.nSubmitted.Add(1)
	s.obs.Count("serve.submitted", 1)
	s.armHedge(req)
	s.observeQueueDepth()
	return done
}

// newRequest builds one request; when hedging is enabled it carries a
// settledCh so the hedge watcher can be cancelled by the first answer. An
// invalid (zero) trace context mints a fresh trace.
func (s *Server) newRequest(x []float64, deadline time.Time, c obs.Ctx) *request {
	if !c.Valid() {
		c = s.obs.NewTrace()
	}
	req := &request{x: x, deadline: deadline, arrived: s.clock.Now(),
		done: make(chan Result, 1), trace: c}
	if s.cfg.Hedge.enabled() {
		req.settledCh = make(chan struct{})
	}
	return req
}

// Close stops admission, drains every queued request through the pipeline,
// and waits for the replicas to exit. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ctrlOn := s.ctrlOn
	close(s.in)
	s.mu.Unlock()
	// Stop the control loop first so no resize or rollout transition races
	// the drain below.
	if ctrlOn {
		close(s.ctrlStop)
		s.ctrlWG.Wait()
	}
	s.batcherWG.Wait()
	s.pool.close()
	// Every admitted request has now settled, so every hedge watcher has
	// either stood down via settledCh or had its late push refused by the
	// closed pool — the wait below cannot hang and leaves no goroutine behind.
	s.hedgeWG.Wait()
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Submitted: s.nSubmitted.Load(),
		Shed:      s.nShed.Load(),
		Expired:   s.nExpired.Load(),
		Completed: s.nCompleted.Load(),
		Batches:   s.nBatches.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.nSamples.Load()) / float64(st.Batches)
	}
	st.Hedged = s.nHedged.Load()
	st.HedgeCancelled = s.nHedgeCancelled.Load()
	st.HedgeWasted = s.nHedgeWasted.Load()
	st.ReplicaKills, st.Requeued, st.Steals, st.LiveReplicas = s.pool.counters()
	st.Ejections, st.Readmissions, st.HealthyReplicas = s.pool.healthCounters()
	st.CanaryServed = s.nCanaryServed.Load()
	st.ShadowServed = s.nShadowServed.Load()
	st.CacheHits = s.nCacheHits.Load()
	st.CacheMisses = s.nCacheMisses.Load()
	st.ScaleUps = int(s.nScaleUps.Load())
	st.ScaleDowns = int(s.nScaleDowns.Load())
	return st
}

func (s *Server) observeQueueDepth() {
	if s.obs.Enabled() {
		s.obs.SetGauge("serve.queue_depth", float64(len(s.in)))
	}
}

// fail completes a request with an error, accounting it. With hedging, two
// copies of one request can both reach a failure path; only the settle
// winner answers (and is counted).
func (s *Server) fail(req *request, err error) {
	if !req.settle() {
		return
	}
	if req.version == VersionCandidate {
		s.nCanaryInflight.Add(-1)
	}
	if ro := s.rollout.Load(); ro != nil {
		ro.RecordServed(req.version, false, -1)
	}
	if req.shadow {
		// Shadow copies never answer callers; their failure was recorded
		// against the candidate's SLO above and that is their whole job.
		s.nShadowServed.Add(1)
		return
	}
	if err == ErrDeadline {
		s.nExpired.Add(1)
		s.obs.Count("serve.deadline_missed", 1)
		s.obs.RecordFlight("deadline_missed", req.trace, "")
	}
	req.done <- Result{Err: err}
}

// complete answers one request with its output row. A hedge copy that loses
// the settle race after paying for its forward pass is counted as wasted
// duplicated work and dropped — the caller already has the answer.
func (s *Server) complete(req *request, y []float64, batchSize int) {
	if !req.settle() {
		s.nHedgeWasted.Add(1)
		s.obs.Count("serve.hedge_wasted", 1)
		return
	}
	lat := s.clock.Now().Sub(req.arrived)
	if req.version == VersionCandidate {
		s.nCanaryInflight.Add(-1)
	}
	if ro := s.rollout.Load(); ro != nil {
		ro.RecordServed(req.version, true, lat.Seconds())
	}
	if req.shadow {
		s.nShadowServed.Add(1)
		return
	}
	s.noteLatencySample(lat)
	if s.cache != nil && req.ckey != 0 {
		s.cache.put(req.ckey, y, s.clock.Now())
	}
	s.nCompleted.Add(1)
	if s.obs.Enabled() {
		s.obs.Count("serve.completed", 1)
		s.obs.Observe("serve.latency", lat)
		s.obs.ObserveLatencyTrace("serve.latency.hist", lat, req.trace)
		if req.hedged.Load() {
			// Terminate the flow arrow the hedge watcher started: the
			// winning copy's completion is the stitch point.
			s.obs.FlowEnd(req.trace.Trace, hedgeTID, "hedge")
		}
	}
	req.done <- Result{Y: y, BatchSize: batchSize, Latency: lat}
}
