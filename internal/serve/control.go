package serve

// Server-side control plane: the concurrent counterpart of the simulator's
// evCtrl tick. A single control goroutine (started lazily — at New when an
// autoscaler is configured, at Deploy when a rollout begins) wakes every
// CtrlEvery on the injected Clock and
//
//   - drives the Rollout state machine (drain detection, burn evaluation,
//     stage promotion), and
//   - feeds the Autoscaler one observation (admission depth + pool backlog,
//     recent p99, busy replicas) and applies its target via pool.resize.
//
// Everything time-dependent flows through the Clock, so the whole loop runs
// on a VirtualClock in tests: Advance past CtrlEvery, and exactly one
// control step executes.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
)

// routeRequest assigns the request's model version at submit time: a coin
// flip on the shared routing stream against the rollout's current canary
// fraction, plus the shadow-duplication flip for baseline traffic. Routing
// happens before the request enters the admission queue, so every later
// reader (batcher, replicas, hedge watcher) sees an immutable version.
func (s *Server) routeRequest(req *request) {
	ro := s.rollout.Load()
	if ro == nil {
		return
	}
	s.routeMu.Lock()
	if s.route.Bernoulli(ro.CanaryFraction()) {
		req.version = VersionCandidate
	} else if sf := ro.ShadowFraction(); sf > 0 && s.route.Bernoulli(sf) {
		req.wantShadow = true
	}
	s.routeMu.Unlock()
}

// ResultCacheConfig parameterises the inference result cache that sits in
// front of the batcher: a byte-budgeted data.Cache keyed by the hash of the
// request's feature vector, with TTL staleness on the server's clock and
// (optionally) doorkeeper admission so one-off queries cannot churn out the
// recurring ones.
type ResultCacheConfig struct {
	// Capacity is the cache budget in bytes (default 1 MiB). Each entry
	// costs 16 + 8*len(output) bytes.
	Capacity int64
	// TTL is how long a cached result stays servable (default 1s) — model
	// outputs go stale the moment a new version could answer differently.
	TTL time.Duration
	// Doorkeeper, when positive, enables doorkeeper-LRU admission tracking
	// this many first-sightings; 0 = plain LRU.
	Doorkeeper int
}

func (c *ResultCacheConfig) withDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 1 << 20
	}
	if c.TTL <= 0 {
		c.TTL = time.Second
	}
}

// resultCache wraps the single-threaded data.Cache in a mutex for use from
// concurrent submitters and replicas.
type resultCache struct {
	mu  sync.Mutex
	c   *data.Cache
	ttl time.Duration
}

func newResultCache(cfg ResultCacheConfig) *resultCache {
	pol := data.NewLRU()
	if cfg.Doorkeeper > 0 {
		pol = data.NewDoorkeeperLRU(cfg.Doorkeeper)
	}
	return &resultCache{c: data.NewCache("serve.results", cfg.Capacity, pol), ttl: cfg.TTL}
}

// cacheKey hashes a feature vector to the request's cache key (FNV-1a over
// the raw float bits). The +1 keeps 0 as the "uncacheable" sentinel.
func cacheKey(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	k := h.Sum64()
	if k == 0 {
		k = 1
	}
	return k
}

// get returns the cached output row for key if a fresh entry exists.
func (rc *resultCache) get(key uint64, now time.Time) ([]float64, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	val, ok := rc.c.Get(cacheKeyString(key))
	if !ok {
		return nil, false
	}
	exp := int64(binary.LittleEndian.Uint64(val[:8]))
	if now.After(time.Unix(0, exp)) {
		rc.c.Drop(cacheKeyString(key))
		return nil, false
	}
	y := make([]float64, (len(val)-8)/8)
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(val[8+8*i:]))
	}
	return y, true
}

// put stores one computed output row with its TTL horizon; the eviction
// policy decides admission.
func (rc *resultCache) put(key uint64, y []float64, now time.Time) {
	val := make([]byte, 8+8*len(y))
	binary.LittleEndian.PutUint64(val[:8], uint64(now.Add(rc.ttl).UnixNano()))
	for i, v := range y {
		binary.LittleEndian.PutUint64(val[8+8*i:], math.Float64bits(v))
	}
	rc.mu.Lock()
	rc.c.Put(cacheKeyString(key), val, int64(16+8*len(y)))
	rc.mu.Unlock()
}

// cacheLookup consults the result cache when one is configured. On a hit it
// settles and answers req directly, bypassing batcher and pool entirely; a
// miss tags the request with its key so the winning completion can populate
// the cache.
func (s *Server) cacheLookup(req *request) bool {
	if s.cache == nil {
		return false
	}
	req.ckey = cacheKey(req.x)
	y, ok := s.cache.get(req.ckey, s.clock.Now())
	if !ok {
		s.nCacheMisses.Add(1)
		s.obs.Count("serve.cache_misses", 1)
		return false
	}
	s.nCacheHits.Add(1)
	s.obs.Count("serve.cache_hits", 1)
	req.settle()
	req.done <- Result{Y: y, Latency: s.clock.Now().Sub(req.arrived)}
	return true
}

func cacheKeyString(k uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k)
	return string(b[:])
}

// Deploy starts a versioned rollout of cand behind the configured canary
// stages. The candidate is cloned once per replica slot; traffic routing is
// the batcher's per-request coin flip against the rollout's current canary
// fraction, so the split takes effect on the very next request. Only one
// rollout can be in flight; a terminal one (promoted or rolled back) can be
// replaced. On promotion the candidate keeps serving as "version 1" — the
// routing fraction, not a net swap, is what makes it the new baseline.
func (s *Server) Deploy(cand *nn.Net, cfg RolloutConfig) (*Rollout, error) {
	if cand == nil {
		return nil, fmt.Errorf("serve: nil candidate net")
	}
	ro, err := NewRollout(cfg)
	if err != nil {
		return nil, err
	}
	out, err := modelOutDim(cand, s.cfg.InDim)
	if err != nil {
		return nil, err
	}
	if out != s.outDim {
		return nil, fmt.Errorf("%w: candidate output width %d, baseline %d", ErrBadModel, out, s.outDim)
	}
	master := s.pool.master(cand) // clone and pack before taking the locks
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if cur := s.rollout.Load(); cur != nil && !cur.State().Terminal() {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: rollout already in flight (%s)", cur.State())
	}
	s.pool.installCandidate(master)
	ro.Deploy(s.sinceStart())
	s.rollout.Store(ro)
	s.startCtrlLocked()
	s.mu.Unlock()
	if s.obs.Enabled() {
		s.obs.Count("serve.deploys", 1)
	}
	return ro, nil
}

// Rollout returns the current rollout controller (nil before any Deploy).
func (s *Server) Rollout() *Rollout { return s.rollout.Load() }

// sinceStart is the control plane's time base: seconds on the server's
// clock since New.
func (s *Server) sinceStart() float64 {
	return s.clock.Now().Sub(s.start).Seconds()
}

// startCtrlLocked launches the control goroutine once (caller holds s.mu).
func (s *Server) startCtrlLocked() {
	if s.ctrlOn || s.closed {
		return
	}
	s.ctrlOn = true
	s.ctrlWG.Add(1)
	go s.ctrlLoop()
}

// ctrlLoop is the control goroutine: one control step per CtrlEvery tick.
func (s *Server) ctrlLoop() {
	defer s.ctrlWG.Done()
	for {
		select {
		case <-s.ctrlStop:
			return
		case <-s.clock.After(s.cfg.CtrlEvery):
			s.controlStep()
		}
	}
}

// controlStep runs one rollout + autoscaler evaluation.
func (s *Server) controlStep() {
	t := s.sinceStart()
	if ro := s.rollout.Load(); ro != nil {
		if s.nCanaryInflight.Load() == 0 {
			ro.Drained(t)
		}
		before := ro.State()
		after := ro.Tick(t)
		if after != before && s.obs.Enabled() {
			s.obs.RecordFlight("rollout", obs.Ctx{},
				fmt.Sprintf("state=%s stage=%d", after, ro.Stage()))
		}
	}
	if s.scaler == nil {
		return
	}
	pending, busy, live, healthy := s.pool.loadSnapshot()
	target := s.scaler.Evaluate(t, AutoscaleInput{
		Queue:    len(s.in) + pending,
		P99:      s.recentP99(),
		Busy:     busy,
		Replicas: live,
		Healthy:  healthy,
	})
	if target != live {
		if d := s.pool.resize(target); d > 0 {
			s.nScaleUps.Add(1)
			if s.obs.Enabled() {
				s.obs.Count("serve.scale_ups", 1)
			}
		} else if d < 0 {
			s.nScaleDowns.Add(1)
			if s.obs.Enabled() {
				s.obs.Count("serve.scale_downs", 1)
			}
		}
	}
}

// recentP99 computes the p99 over the bounded ring of recent completion
// latencies (see noteLatencySample).
func (s *Server) recentP99() time.Duration {
	s.latMu.Lock()
	n := s.latCount
	if n > len(s.latRing) {
		n = len(s.latRing)
	}
	recent := append([]float64(nil), s.latRing[:n]...)
	s.latMu.Unlock()
	if len(recent) == 0 {
		return 0
	}
	insertionSort(recent)
	return time.Duration(percentile(recent, 0.99) * float64(time.Second))
}

// noteLatencySample records one completion latency into the autoscaler's
// bounded ring (no-op unless autoscaling is on).
func (s *Server) noteLatencySample(lat time.Duration) {
	if s.scaler == nil {
		return
	}
	s.latMu.Lock()
	s.latRing[s.latCount%len(s.latRing)] = lat.Seconds()
	s.latCount++
	s.latMu.Unlock()
}
