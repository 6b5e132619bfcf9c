package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TenantConfig is one campaign submitted to a shared fleet. The tenant's
// workload — durations, failure schedule, retry/quarantine/poison policy —
// comes from its embedded CampaignConfig; the fleet ignores the campaign's
// own Nodes/Scheduler/GroupSize fields and schedules the work itself.
type TenantConfig struct {
	// Name labels the tenant in results and observability output.
	Name string
	// Weight is the tenant's fair-share weight (0 means 1): shard managers
	// dequeue the backlogged tenant with the smallest served-node-seconds /
	// Weight ratio among the highest waiting priority.
	Weight float64
	// Priority orders tenants for dispatch and (when FleetConfig.Preemption
	// is on) lets a higher-priority evaluation preempt a running lower-
	// priority one. Preempted evaluations requeue with their attempt history
	// intact and relaunch with the tenant's RestartOverhead.
	Priority int
	// SubmitAt is the simulated time the tenant's campaign arrives.
	SubmitAt float64
	// Campaign carries the workload and per-tenant fault policy.
	Campaign CampaignConfig
}

// FleetConfig describes a sharded multi-tenant fleet: several concurrent
// campaigns submit to a shared set of modelled node shards, each shard a
// group of nodes behind one shard manager.
type FleetConfig struct {
	// Shards is the number of node shards (each with its own manager).
	Shards int
	// NodesPerShard is the node count per shard.
	NodesPerShard int
	// DispatchOverhead is each shard manager's per-assignment latency,
	// exactly like CampaignConfig.DispatchOverhead for the dynamic queue.
	DispatchOverhead float64
	// Preemption lets a waiting higher-priority evaluation evict a running
	// lower-priority one on a full shard.
	Preemption bool
	// WorkStealing lets an idle shard steal queued evaluations from the
	// back of the longest saturated (or dead) shard's queue. When enabled,
	// managers hold work back in the stealable queue instead of pre-staging
	// it onto nodes; when disabled, dispatch pipelines eagerly and a
	// single-shard fleet reproduces the dynamic-queue campaign exactly.
	WorkStealing bool
	// StealBatch caps evaluations moved per steal (0 = NodesPerShard/4,
	// minimum 1).
	StealBatch int
	// Tenants are the concurrent campaigns.
	Tenants []TenantConfig
	// Faults, if non-nil, scripts shard-level kills, gray slowdowns, and
	// repairs on top of the per-tenant node-fault schedules.
	Faults *fault.ShardPlan
	// Obs, if enabled, records fleet counters and per-tenant served gauges.
	Obs *obs.Session
	// TrackService records a per-evaluation service log (tenant, start,
	// seconds actually served) for fair-share analysis in tests. Off by
	// default: the log grows with the evaluation count.
	TrackService bool
}

// ServiceEvent is one delivered slice of node time (TrackService only).
type ServiceEvent struct {
	Tenant  int
	Start   float64
	Seconds float64
}

// TenantResult reports one tenant's campaign as scheduled by the fleet.
// The fault-model counters (Failures, Retries, quarantine/poison/backoff)
// are by construction identical to what RunCampaign reports for the same
// seeded CampaignConfig — the fleet changes placement, never outcomes.
type TenantResult struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	Priority  int     `json:"priority"`
	Configs   int     `json:"configs"`
	Completed int     `json:"completed"`
	// Dropped counts configurations that ended quarantined or abandoned.
	Dropped int `json:"dropped"`
	// TotalWork is the sum of nominal evaluation durations (as in
	// CampaignResult.TotalWork).
	TotalWork float64 `json:"total_work_s"`
	// Makespan is the virtual time of this tenant's last finished
	// evaluation, measured from fleet start (not from SubmitAt).
	Makespan float64 `json:"makespan_s"`
	// ServedNodeSeconds is node time actually delivered to the tenant,
	// including restart overheads, crashed segments, and slowdown inflation.
	ServedNodeSeconds  float64 `json:"served_node_seconds"`
	Failures           int     `json:"failures"`
	Retries            int     `json:"retries"`
	AbandonedConfigs   int     `json:"abandoned_configs"`
	QuarantinedConfigs int     `json:"quarantined_configs"`
	PoisonConfigs      int     `json:"poison_configs"`
	LostEvalSeconds    float64 `json:"lost_eval_seconds"`
	BackoffSeconds     float64 `json:"backoff_seconds"`
	// Preemptions counts this tenant's evaluations evicted by priority.
	Preemptions int `json:"preemptions"`
	// Interrupted counts this tenant's evaluations cut down mid-run by
	// shard kills (each requeued with attempt history intact).
	Interrupted int `json:"interrupted"`
}

// ShardStats reports one shard's traffic.
type ShardStats struct {
	// Evals counts evaluations that finished their final segment here.
	Evals int `json:"evals"`
	// Attempts counts run segments completed here (including segments that
	// end in a modelled node crash).
	Attempts    int     `json:"attempts"`
	Dispatches  int     `json:"dispatches"`
	StealsIn    int     `json:"steals_in"`
	StealsOut   int     `json:"steals_out"`
	StolenEvals int     `json:"stolen_evals"`
	Preemptions int     `json:"preemptions"`
	Interrupted int     `json:"interrupted"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// FleetResult reports a sharded multi-tenant fleet run. It marshals to
// stable JSON, which the determinism tests byte-compare across reruns.
type FleetResult struct {
	Shards        int     `json:"shards"`
	NodesPerShard int     `json:"nodes_per_shard"`
	Makespan      float64 `json:"makespan_s"`
	TotalWork     float64 `json:"total_work_s"`
	// Utilization is delivered busy node time (including overheads and
	// lost work) over Makespan x total nodes.
	Utilization float64 `json:"utilization"`
	Dispatches  int     `json:"dispatches"`
	// Steals counts steal operations; StolenEvals the evaluations moved.
	Steals      int `json:"steals"`
	StolenEvals int `json:"stolen_evals"`
	Preemptions int `json:"preemptions"`
	// PreemptedSeconds is node time discarded by preemption evictions.
	PreemptedSeconds float64 `json:"preempted_seconds"`
	Interrupted      int     `json:"interrupted"`
	// InterruptedSeconds is node time discarded by shard kills.
	InterruptedSeconds float64        `json:"interrupted_seconds"`
	Tenants            []TenantResult `json:"tenants"`
	ShardStats         []ShardStats   `json:"shard_stats"`
	// ServiceLog is populated only with FleetConfig.TrackService.
	ServiceLog []ServiceEvent `json:"-"`
}

// fleetTask is one evaluation moving through the fleet. segs/boffs are the
// remaining pre-sampled attempt segments and backoffs; retry marks that the
// next launch pays the tenant's RestartOverhead (set after a modelled crash,
// a preemption, or a shard kill — the attempt history itself is only
// consumed by modelled crashes, so interruptions lose work but never skip
// or duplicate an attempt).
type fleetTask struct {
	tenant int
	idx    int
	segs   []float64
	boffs  []float64
	retry  bool
}

// runSlot is one evaluation occupying a node. Deactivating the slot is how
// preemption and shard kills cancel the already-scheduled completion event.
type runSlot struct {
	task   *fleetTask
	start  float64
	dur    float64
	active bool
}

type fleetShard struct {
	id int
	// queue is the manager backlog — the only place work stealing looks.
	queue []*fleetTask
	// nodeWait holds dispatched tasks waiting for a free node.
	nodeWait    []*fleetTask
	free        int
	mgrBusy     bool
	mgrGen      int // bumped on shard kill to void the in-flight dispatch
	dispatching *fleetTask
	down        bool
	restoreAt   float64
	slow        float64
	running     []*runSlot
	stats       ShardStats
}

type fleetRun struct {
	cfg     *FleetConfig
	eng     *sim.Engine
	shards  []*fleetShard
	preps   []*preparedCampaign
	charged []float64 // fair-share accumulator: nominal node-seconds charged at dispatch
	served  []float64 // node-seconds actually delivered per tenant
	weight  []float64
	prio    []int
	restart []float64 // per-tenant RestartOverhead
	done    []int     // finished configs per tenant
	okDone  []int     // completed (cfgOK) configs per tenant
	tEnd    []float64 // per-tenant last retirement time
	lastEnd float64   // last finished segment — the fleet makespan
	res     *FleetResult
}

// RunFleet simulates the sharded multi-tenant scheduler: every tenant's
// workload is prepared exactly as RunCampaign prepares it (same seeded
// durations, failure schedule, and retry/quarantine decisions), then placed
// across shards with fair-share weighting, optional priority preemption,
// optional work stealing, and the scripted shard fault plan.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Shards <= 0 || cfg.NodesPerShard <= 0 {
		return FleetResult{}, fmt.Errorf("core: fleet needs shards and nodes per shard")
	}
	if len(cfg.Tenants) == 0 {
		return FleetResult{}, fmt.Errorf("core: fleet needs at least one tenant")
	}
	if cfg.DispatchOverhead < 0 {
		return FleetResult{}, fmt.Errorf("core: negative dispatch overhead")
	}
	if err := cfg.Faults.Validate(cfg.Shards); err != nil {
		return FleetResult{}, err
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = cfg.NodesPerShard / 4
		if cfg.StealBatch < 1 {
			cfg.StealBatch = 1
		}
	}

	nT := len(cfg.Tenants)
	r := &fleetRun{
		cfg: &cfg, eng: sim.NewEngine(),
		preps:   make([]*preparedCampaign, nT),
		charged: make([]float64, nT),
		served:  make([]float64, nT), weight: make([]float64, nT),
		prio: make([]int, nT), restart: make([]float64, nT),
		done: make([]int, nT), okDone: make([]int, nT), tEnd: make([]float64, nT),
		res: &FleetResult{
			Shards: cfg.Shards, NodesPerShard: cfg.NodesPerShard,
			Tenants:    make([]TenantResult, nT),
			ShardStats: make([]ShardStats, cfg.Shards),
		},
	}
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		if t.Weight < 0 {
			return FleetResult{}, fmt.Errorf("core: tenant %d has negative weight", i)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.SubmitAt < 0 {
			return FleetResult{}, fmt.Errorf("core: tenant %d submits at negative time", i)
		}
		if t.Name == "" {
			t.Name = fmt.Sprintf("tenant%d", i)
		}
		camp := t.Campaign
		prep, err := prepareCampaign(&camp)
		if err != nil {
			return FleetResult{}, fmt.Errorf("core: tenant %q: %w", t.Name, err)
		}
		r.preps[i] = prep
		r.weight[i] = t.Weight
		r.prio[i] = t.Priority
		r.restart[i] = t.Campaign.RestartOverhead
		r.res.TotalWork += prep.total
		r.res.Tenants[i] = TenantResult{
			Name: t.Name, Weight: t.Weight, Priority: t.Priority,
			Configs: t.Campaign.Configs, TotalWork: prep.total,
			Failures: prep.failures, Retries: prep.retries,
			AbandonedConfigs:   prep.abandonedConfigs,
			QuarantinedConfigs: prep.quarantinedConfigs,
			PoisonConfigs:      prep.poisonCfg,
			LostEvalSeconds:    prep.lostEvalSeconds,
			BackoffSeconds:     prep.backoffSeconds,
		}
	}

	r.shards = make([]*fleetShard, cfg.Shards)
	for s := range r.shards {
		r.shards[s] = &fleetShard{id: s, free: cfg.NodesPerShard, slow: 1}
	}

	// Tenant arrivals: configs scatter round-robin across shards in index
	// order, so a single-shard fleet sees them in exactly the order the
	// dynamic-queue campaign enqueues them.
	for ti := range cfg.Tenants {
		ti := ti
		r.eng.At(cfg.Tenants[ti].SubmitAt, func() { r.submit(ti) })
	}
	// Scripted shard faults replay in (time, shard, kind) order.
	for _, ev := range cfg.Faults.Sorted() {
		ev := ev
		r.eng.At(ev.Time, func() { r.shardEvent(ev) })
	}

	r.eng.Run()

	res := r.res
	res.Makespan = r.lastEnd
	for ti := range res.Tenants {
		tr := &res.Tenants[ti]
		tr.Completed = r.okDone[ti]
		tr.Dropped = r.done[ti] - r.okDone[ti]
		tr.Makespan = r.tEnd[ti]
		tr.ServedNodeSeconds = r.served[ti]
		if r.done[ti] != cfg.Tenants[ti].Campaign.Configs {
			return FleetResult{}, fmt.Errorf("core: tenant %q finished %d of %d evals",
				tr.Name, r.done[ti], cfg.Tenants[ti].Campaign.Configs)
		}
	}
	totalNodes := float64(cfg.Shards * cfg.NodesPerShard)
	var busy float64
	for s := range r.shards {
		st := r.shards[s].stats
		if res.Makespan > 0 {
			st.Utilization = st.BusySeconds / (res.Makespan * float64(cfg.NodesPerShard))
		}
		res.ShardStats[s] = st
		busy += st.BusySeconds
	}
	if res.Makespan > 0 {
		res.Utilization = busy / (res.Makespan * totalNodes)
	}
	if o := cfg.Obs; o.Enabled() {
		o.Count("fleet.dispatches", int64(res.Dispatches))
		o.Count("fleet.steals", int64(res.Steals))
		o.Count("fleet.preemptions", int64(res.Preemptions))
		o.Count("fleet.interrupted", int64(res.Interrupted))
		o.OnEval("fleet.utilization", res.Utilization)
		for _, tr := range res.Tenants {
			o.SetGauge("fleet.tenant."+tr.Name+".served_node_seconds", tr.ServedNodeSeconds)
		}
	}
	return *res, nil
}

// submit enqueues tenant ti's whole campaign, round-robin across shards.
func (r *fleetRun) submit(ti int) {
	prep := r.preps[ti]
	n := len(r.shards)
	for i, d := range prep.durations {
		task := &fleetTask{tenant: ti, idx: i}
		if prep.attempts[i] != nil {
			task.segs = prep.attempts[i]
			task.boffs = prep.backoffs[i]
		} else {
			task.segs = []float64{d}
		}
		s := r.shards[i%n]
		s.queue = append(s.queue, task)
	}
	for _, s := range r.shards {
		r.pump(s)
	}
}

// pickNext returns the queue index to dispatch next: the earliest task of
// the best tenant by (priority desc, served/weight asc, tenant index asc).
func (r *fleetRun) pickNext(s *fleetShard) int {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		a, b := s.queue[i].tenant, s.queue[best].tenant
		if a == b {
			continue
		}
		if r.prio[a] != r.prio[b] {
			if r.prio[a] > r.prio[b] {
				best = i
			}
			continue
		}
		if r.charged[a]/r.weight[a] < r.charged[b]/r.weight[b] {
			best = i
		}
	}
	return best
}

// pump drives shard s's manager: steal if idle, then dispatch the next
// fair-share pick, paying DispatchOverhead before the task joins the node
// wait queue — the same pipeline as the dynamic-queue campaign manager.
func (r *fleetRun) pump(s *fleetShard) {
	if s.down || s.mgrBusy {
		return
	}
	if len(s.queue) == 0 && r.cfg.WorkStealing && s.free > 0 {
		r.steal(s)
	}
	if len(s.queue) == 0 {
		return
	}
	// With stealing on, hold backlog in the stealable queue: pre-stage at
	// most one task beyond the free nodes. Without stealing, pipeline
	// eagerly like the dynamic queue (this is what makes the single-shard
	// fleet reproduce RunCampaign's timing exactly).
	if r.cfg.WorkStealing && len(s.nodeWait) > s.free {
		return
	}
	i := r.pickNext(s)
	task := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	// Charge fair share at dispatch: service decisions must see work the
	// manager has already committed to, not just work that reached a node.
	est := task.segs[0]
	if task.retry {
		est += r.restart[task.tenant]
	}
	r.charged[task.tenant] += est
	s.mgrBusy = true
	s.dispatching = task
	gen := s.mgrGen
	s.stats.Dispatches++
	r.res.Dispatches++
	r.eng.Schedule(r.cfg.DispatchOverhead, func() {
		if gen != s.mgrGen {
			return // shard was killed mid-dispatch; task already requeued
		}
		s.mgrBusy = false
		s.dispatching = nil
		s.nodeWait = append(s.nodeWait, task)
		r.assign(s)
		r.pump(s)
	})
}

// steal moves up to StealBatch tasks from the back of the longest eligible
// donor queue (a saturated or dead shard) into s's queue.
func (r *fleetRun) steal(s *fleetShard) {
	var donor *fleetShard
	for _, d := range r.shards {
		if d == s || len(d.queue) == 0 || (!d.down && d.free > 0) {
			continue
		}
		if donor == nil || len(d.queue) > len(donor.queue) {
			donor = d
		}
	}
	if donor == nil {
		return
	}
	k := r.cfg.StealBatch
	if k > len(donor.queue) {
		k = len(donor.queue)
	}
	moved := donor.queue[len(donor.queue)-k:]
	donor.queue = donor.queue[:len(donor.queue)-k]
	s.queue = append(s.queue, moved...)
	s.stats.StealsIn++
	s.stats.StolenEvals += k
	donor.stats.StealsOut++
	donor.stats.StolenEvals += k
	r.res.Steals++
	r.res.StolenEvals += k
}

// pickWaiting returns the node-wait index to place next: highest priority,
// then FIFO — so a high-priority dispatch is never stuck behind a
// lower-priority task that cannot get a node.
func (r *fleetRun) pickWaiting(s *fleetShard) int {
	best := 0
	for i := 1; i < len(s.nodeWait); i++ {
		if r.prio[s.nodeWait[i].tenant] > r.prio[s.nodeWait[best].tenant] {
			best = i
		}
	}
	return best
}

// assign places waiting tasks onto free nodes, evicting lower-priority
// running work when preemption is enabled and the shard is full.
func (r *fleetRun) assign(s *fleetShard) {
	for len(s.nodeWait) > 0 {
		ci := r.pickWaiting(s)
		if s.free == 0 {
			if !r.cfg.Preemption || !r.preemptFor(s, s.nodeWait[ci]) {
				return
			}
		}
		task := s.nodeWait[ci]
		s.nodeWait = append(s.nodeWait[:ci], s.nodeWait[ci+1:]...)
		r.launch(s, task)
	}
}

// preemptFor evicts the weakest running slot strictly below cand's
// priority: lowest priority first, then the most recently launched (least
// work lost). The victim requeues on this shard with attempt history
// intact and pays its restart overhead on relaunch.
func (r *fleetRun) preemptFor(s *fleetShard, cand *fleetTask) bool {
	var victim *runSlot
	for _, slot := range s.running {
		if !slot.active || r.prio[slot.task.tenant] >= r.prio[cand.tenant] {
			continue
		}
		if victim == nil ||
			r.prio[slot.task.tenant] < r.prio[victim.task.tenant] ||
			(r.prio[slot.task.tenant] == r.prio[victim.task.tenant] && slot.start >= victim.start) {
			victim = slot
		}
	}
	if victim == nil {
		return false
	}
	now := r.eng.Now()
	elapsed := now - victim.start
	victim.active = false
	r.unslot(s, victim)
	s.free++
	s.stats.BusySeconds += elapsed
	r.served[victim.task.tenant] += elapsed
	r.logService(victim.task.tenant, victim.start, elapsed)
	victim.task.retry = true
	s.queue = append(s.queue, victim.task)
	ti := victim.task.tenant
	r.res.Tenants[ti].Preemptions++
	s.stats.Preemptions++
	r.res.Preemptions++
	r.res.PreemptedSeconds += elapsed
	return true
}

// launch starts task on a free node of s. Service is charged to the tenant
// at launch and refunded on eviction, so fair-share decisions account for
// in-flight work.
func (r *fleetRun) launch(s *fleetShard, task *fleetTask) {
	dur := task.segs[0]
	if task.retry {
		dur += r.restart[task.tenant]
	}
	if s.slow > 1 {
		dur *= s.slow
	}
	slot := &runSlot{task: task, start: r.eng.Now(), dur: dur, active: true}
	s.running = append(s.running, slot)
	s.free--
	r.eng.Schedule(dur, func() { r.complete(s, slot) })
}

// complete finishes a run segment: a crash segment requeues the task
// through the manager (waiting out its backoff off-node), the final
// segment retires the evaluation.
func (r *fleetRun) complete(s *fleetShard, slot *runSlot) {
	if !slot.active {
		return // evicted by preemption or a shard kill before finishing
	}
	slot.active = false
	r.unslot(s, slot)
	s.free++
	s.stats.BusySeconds += slot.dur
	s.stats.Attempts++
	r.served[slot.task.tenant] += slot.dur
	now := r.eng.Now()
	if now > r.lastEnd {
		r.lastEnd = now
	}
	r.logService(slot.task.tenant, slot.start, slot.dur)
	task := slot.task
	if len(task.segs) > 1 {
		task.segs = task.segs[1:]
		task.retry = true
		var boff float64
		if len(task.boffs) > 0 {
			boff = task.boffs[0]
			task.boffs = task.boffs[1:]
		}
		if boff > 0 {
			r.eng.Schedule(boff, func() { r.enqueue(s, task) })
		} else {
			r.enqueue(s, task)
		}
	} else {
		s.stats.Evals++
		r.done[task.tenant]++
		if now > r.tEnd[task.tenant] {
			r.tEnd[task.tenant] = now
		}
		if r.preps[task.tenant].cfgOK[task.idx] {
			r.okDone[task.tenant]++
		}
	}
	r.assign(s)
	r.pump(s)
}

// enqueue returns a task to s's manager queue (it crashed or was evicted
// there) and wakes the fleet: s dispatches if it can, and idle peers get a
// chance to steal — the path that drains a dead shard's backlog.
func (r *fleetRun) enqueue(s *fleetShard, task *fleetTask) {
	s.queue = append(s.queue, task)
	r.pump(s)
	r.wakeIdle(s)
}

// wakeIdle pumps every other shard that has free nodes and an empty queue,
// letting it steal newly queued or stranded work.
func (r *fleetRun) wakeIdle(except *fleetShard) {
	if !r.cfg.WorkStealing {
		return
	}
	for _, z := range r.shards {
		if z != except && !z.down && !z.mgrBusy && z.free > 0 && len(z.queue) == 0 {
			r.pump(z)
		}
	}
}

// shardEvent applies one scripted shard fault.
func (r *fleetRun) shardEvent(ev fault.ShardEvent) {
	s := r.shards[ev.Shard]
	now := r.eng.Now()
	switch ev.Kind {
	case fault.ShardKill:
		s.down = true
		if t := now + ev.Down; t > s.restoreAt {
			s.restoreAt = t
		}
		// Interrupt running work (in launch order): requeue with attempt
		// history intact, then flush staged and in-flight dispatches back
		// to the queue where peers can steal them.
		for _, slot := range s.running {
			if !slot.active {
				continue
			}
			slot.active = false
			elapsed := now - slot.start
			s.stats.BusySeconds += elapsed
			r.served[slot.task.tenant] += elapsed
			r.logService(slot.task.tenant, slot.start, elapsed)
			slot.task.retry = true
			s.queue = append(s.queue, slot.task)
			r.res.Tenants[slot.task.tenant].Interrupted++
			s.stats.Interrupted++
			r.res.Interrupted++
			r.res.InterruptedSeconds += elapsed
		}
		s.running = s.running[:0]
		s.free = r.cfg.NodesPerShard
		s.queue = append(s.queue, s.nodeWait...)
		s.nodeWait = s.nodeWait[:0]
		if s.dispatching != nil {
			s.queue = append(s.queue, s.dispatching)
			s.dispatching = nil
		}
		s.mgrBusy = false
		s.mgrGen++
		at := s.restoreAt
		r.eng.At(at, func() {
			if s.down && r.eng.Now() >= s.restoreAt {
				s.down = false
				r.pump(s)
			}
		})
		r.wakeIdle(s)
	case fault.ShardDegrade:
		s.slow = ev.Factor
	case fault.ShardRepair:
		s.slow = 1
	}
}

// unslot removes slot from s.running, preserving launch order.
func (r *fleetRun) unslot(s *fleetShard, slot *runSlot) {
	for i, sl := range s.running {
		if sl == slot {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

func (r *fleetRun) logService(tenant int, start, seconds float64) {
	if r.cfg.TrackService {
		r.res.ServiceLog = append(r.res.ServiceLog,
			ServiceEvent{Tenant: tenant, Start: start, Seconds: seconds})
	}
}
