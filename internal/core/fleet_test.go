package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/rng"
)

// fleetTenant builds a tenant whose campaign carries the standard fault
// policy: node crashes, capped retries with backoff, quarantine, poison.
func fleetTenant(name string, seed uint64, configs int) TenantConfig {
	return TenantConfig{
		Name: name,
		Campaign: CampaignConfig{
			Configs: configs, Nodes: 1, // Nodes ignored by the fleet
			MeanEvalTime: 100, EvalTimeSigma: 0.8,
			DispatchOverhead: 0.05, RestartOverhead: 2,
			Faults:     &fault.Process{Nodes: 16, MTBF: 400, Horizon: 1e9},
			MaxRetries: 6, QuarantineAfter: 4,
			RetryBackoffBase: 1, RetryBackoffJitter: 0.3,
			PoisonFraction: 0.02,
			RNG:            rng.New(seed),
		},
	}
}

// Differential acceptance test: a single tenant through a single-shard
// fleet (no stealing, no preemption) must reproduce the dynamic-queue
// campaign bit for bit — same makespan, same dispatches, same retry/
// quarantine/poison decisions.
func TestFleetDifferentialSingleTenant(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			tn := fleetTenant("solo", 42, 300)
			if !faulty {
				tn.Campaign.Faults = nil
				tn.Campaign.PoisonFraction = 0
			}
			camp := tn.Campaign
			camp.Nodes = 16
			camp.Scheduler = DynamicQueue
			want, err := RunCampaign(camp)
			if err != nil {
				t.Fatal(err)
			}

			tn2 := fleetTenant("solo", 42, 300)
			if !faulty {
				tn2.Campaign.Faults = nil
				tn2.Campaign.PoisonFraction = 0
			}
			got, err := RunFleet(FleetConfig{
				Shards: 1, NodesPerShard: 16,
				DispatchOverhead: tn2.Campaign.DispatchOverhead,
				Tenants:          []TenantConfig{tn2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("makespan: fleet %v != campaign %v (diff %g)",
					got.Makespan, want.Makespan, got.Makespan-want.Makespan)
			}
			if got.Dispatches != want.Dispatches {
				t.Fatalf("dispatches: fleet %d != campaign %d", got.Dispatches, want.Dispatches)
			}
			tr := got.Tenants[0]
			if tr.Failures != want.Failures || tr.Retries != want.Retries ||
				tr.AbandonedConfigs != want.AbandonedConfigs ||
				tr.QuarantinedConfigs != want.QuarantinedConfigs ||
				tr.PoisonConfigs != want.PoisonConfigs ||
				tr.LostEvalSeconds != want.LostEvalSeconds ||
				tr.BackoffSeconds != want.BackoffSeconds ||
				tr.TotalWork != want.TotalWork {
				t.Fatalf("fault accounting diverged:\nfleet    %+v\ncampaign %+v", tr, want)
			}
			if tr.Completed+tr.Dropped != 300 {
				t.Fatalf("eval conservation: %d+%d != 300", tr.Completed, tr.Dropped)
			}
		})
	}
}

// The fleet changes placement, never outcomes: whatever the topology,
// stealing, or preemption setting, a tenant's fault-model counters equal
// the single-tenant campaign's for the same seed.
func TestFleetCountersTopologyInvariant(t *testing.T) {
	camp := fleetTenant("x", 9, 240).Campaign
	camp.Nodes = 12
	camp.Scheduler = DynamicQueue
	want, err := RunCampaign(camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		got, err := RunFleet(FleetConfig{
			Shards: shards, NodesPerShard: 4, DispatchOverhead: 0.05,
			WorkStealing: true, Preemption: true,
			Tenants: []TenantConfig{fleetTenant("x", 9, 240)},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := got.Tenants[0]
		if tr.Failures != want.Failures || tr.Retries != want.Retries ||
			tr.QuarantinedConfigs != want.QuarantinedConfigs ||
			tr.AbandonedConfigs != want.AbandonedConfigs ||
			tr.PoisonConfigs != want.PoisonConfigs {
			t.Fatalf("shards=%d: fault counters diverged from campaign:\n%+v\nwant %+v",
				shards, tr, want)
		}
	}
}

// servedBy integrates a tenant's delivered node time over [0, cut] from the
// service log.
func servedBy(log []ServiceEvent, tenant int, cut float64) float64 {
	total := 0.0
	for _, ev := range log {
		if ev.Tenant != tenant || ev.Start >= cut {
			continue
		}
		s := ev.Seconds
		if ev.Start+s > cut {
			s = cut - ev.Start
		}
		total += s
	}
	return total
}

// Fair-share property: two tenants with identical workloads and weights
// w:1 receive node time in ratio w:1 (within a quantization slack of a few
// evaluation lengths) while both are backlogged.
func TestFleetFairShareBounds(t *testing.T) {
	for _, w := range []float64{1, 2, 4} {
		a := fleetTenant("heavy", 5, 120)
		b := fleetTenant("light", 5, 120) // same seed: identical workload
		a.Weight = w
		a.Campaign.Faults, b.Campaign.Faults = nil, nil
		a.Campaign.PoisonFraction, b.Campaign.PoisonFraction = 0, 0
		a.Campaign.EvalTimeSigma, b.Campaign.EvalTimeSigma = 0, 0
		res, err := RunFleet(FleetConfig{
			Shards: 1, NodesPerShard: 8, DispatchOverhead: 0.01,
			Tenants:      []TenantConfig{a, b},
			TrackService: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// While both tenants are backlogged: up to the earlier makespan.
		cut := res.Tenants[0].Makespan
		if m := res.Tenants[1].Makespan; m < cut {
			cut = m
		}
		cut *= 0.9 // stay clear of the drain-out tail
		sa, sb := servedBy(res.ServiceLog, 0, cut), servedBy(res.ServiceLog, 1, cut)
		if sb == 0 {
			t.Fatalf("w=%v: light tenant starved before %v", w, cut)
		}
		ratio := sa / sb
		// Quantization slack: each of the 8 nodes can be mid-evaluation
		// (~100 s) at the cut, so allow the ratio a generous band.
		if ratio < w*0.75 || ratio > w*1.35 {
			t.Fatalf("w=%v: served ratio %.2f outside fair-share band", w, ratio)
		}
	}
}

// Priority preemption: a high-priority tenant arriving mid-run evicts
// running low-priority evaluations, finishes far faster than it would
// waiting its turn, and nothing is lost — every evaluation of both tenants
// still retires exactly once.
func TestFleetPriorityPreemption(t *testing.T) {
	build := func(preempt bool) FleetConfig {
		low := fleetTenant("batch", 3, 64)
		low.Campaign.Faults = nil
		low.Campaign.PoisonFraction = 0
		low.Campaign.MeanEvalTime = 500
		low.Campaign.EvalTimeSigma = 0
		hi := fleetTenant("urgent", 4, 16)
		hi.Campaign.Faults = nil
		hi.Campaign.PoisonFraction = 0
		hi.Campaign.MeanEvalTime = 50
		hi.Campaign.EvalTimeSigma = 0
		hi.Priority = 10
		hi.SubmitAt = 600
		return FleetConfig{
			Shards: 2, NodesPerShard: 4, DispatchOverhead: 0.01,
			Preemption: preempt,
			Tenants:    []TenantConfig{low, hi},
		}
	}
	with, err := RunFleet(build(true))
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunFleet(build(false))
	if err != nil {
		t.Fatal(err)
	}
	if with.Preemptions == 0 {
		t.Fatal("saturated fleet with priority arrival produced no preemptions")
	}
	if without.Preemptions != 0 {
		t.Fatal("preemptions counted with preemption disabled")
	}
	urgentWith := with.Tenants[1].Makespan - 600
	urgentWithout := without.Tenants[1].Makespan - 600
	if urgentWith >= urgentWithout {
		t.Fatalf("preemption did not speed up the urgent tenant: %v >= %v",
			urgentWith, urgentWithout)
	}
	for _, res := range []FleetResult{with, without} {
		for i, tr := range res.Tenants {
			if tr.Completed+tr.Dropped != tr.Configs {
				t.Fatalf("tenant %d lost evals: %d+%d != %d", i, tr.Completed, tr.Dropped, tr.Configs)
			}
		}
	}
	if with.Tenants[0].Preemptions != with.Preemptions {
		t.Fatal("preemptions not attributed to the low-priority tenant")
	}
}

// Work stealing conservation: killing a shard mid-run strands its backlog,
// stealing drains it through the surviving shards, and the multiset of
// retired evaluations is exactly the submitted set either way.
func TestFleetWorkStealingConservation(t *testing.T) {
	build := func(steal bool) FleetConfig {
		tn := fleetTenant("only", 8, 200)
		tn.Campaign.Faults = nil
		tn.Campaign.PoisonFraction = 0
		return FleetConfig{
			Shards: 4, NodesPerShard: 4, DispatchOverhead: 0.02,
			WorkStealing: steal,
			Faults:       fault.NewShardPlan().Kill(0, 50, 1e6).Kill(1, 120, 1e6),
			Tenants:      []TenantConfig{tn},
		}
	}
	with, err := RunFleet(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if with.Steals == 0 || with.StolenEvals == 0 {
		t.Fatal("dead shards with backlog produced no steals")
	}
	tr := with.Tenants[0]
	if tr.Completed+tr.Dropped != 200 {
		t.Fatalf("evals lost under kills+stealing: %d+%d != 200", tr.Completed, tr.Dropped)
	}
	if with.Interrupted == 0 {
		t.Fatal("kills under running work recorded no interruptions")
	}
	evals := 0
	for _, st := range with.ShardStats {
		evals += st.Evals
	}
	if evals != 200 {
		t.Fatalf("per-shard eval sum %d != 200", evals)
	}
	// Shards 0 and 1 stay dead past the horizon: with stealing off the run
	// can never finish their stranded backlog before the kill, so RunFleet's
	// own conservation check must reject... unless the backlog happened to
	// drain first. Instead compare makespans with a short outage.
	short := build(true)
	short.Faults = fault.NewShardPlan().Kill(0, 50, 5000)
	noSteal := build(false)
	noSteal.Faults = fault.NewShardPlan().Kill(0, 50, 5000)
	a, err := RunFleet(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(noSteal)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan >= b.Makespan {
		t.Fatalf("stealing did not beat no-stealing around an outage: %v >= %v", a.Makespan, b.Makespan)
	}
}

// chaosFleet is the full stack: three tenants with node faults, poison,
// backoff; scripted shard kills and a gray slowdown; stealing + preemption.
func chaosFleet() FleetConfig {
	a := fleetTenant("cancer", 21, 150)
	b := fleetTenant("infect", 22, 120)
	c := fleetTenant("urgent", 23, 40)
	b.Weight = 2
	c.Priority = 5
	c.SubmitAt = 800
	plan, err := fault.RandomShardPlan(rng.New(99), 4, 20000, 6000, 800, 0.5)
	if err != nil {
		panic(err)
	}
	return FleetConfig{
		Shards: 4, NodesPerShard: 8, DispatchOverhead: 0.05,
		WorkStealing: true, Preemption: true,
		Faults:  plan,
		Tenants: []TenantConfig{a, b, c},
	}
}

// Chaos acceptance test: scripted kills + gray faults during a multi-tenant
// run lose no evaluations (multiset invariant over retirements and attempt
// segments), and the run is byte-identical across reruns at a fixed seed.
// Runs under -race in `make chaos` with leakcheck.
func TestFleetChaosMultisetInvariant(t *testing.T) {
	defer leakcheck.Check(t)()
	res, err := RunFleet(chaosFleet())
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted == 0 && res.Steals == 0 {
		t.Fatal("chaos plan exercised neither kills nor stealing")
	}
	totalAttempts := 0
	for i, tr := range res.Tenants {
		if tr.Completed+tr.Dropped != tr.Configs {
			t.Fatalf("tenant %d multiset violated: completed %d + dropped %d != %d",
				i, tr.Completed, tr.Dropped, tr.Configs)
		}
		if tr.Dropped != tr.QuarantinedConfigs+tr.AbandonedConfigs {
			t.Fatalf("tenant %d drop accounting: %d != %d+%d",
				i, tr.Dropped, tr.QuarantinedConfigs, tr.AbandonedConfigs)
		}
		// Every config contributes exactly retries+1 completed segments,
		// however often it was preempted, interrupted, or stolen.
		totalAttempts += tr.Configs + tr.Retries
	}
	gotAttempts, gotEvals := 0, 0
	for _, st := range res.ShardStats {
		gotAttempts += st.Attempts
		gotEvals += st.Evals
	}
	if gotAttempts != totalAttempts {
		t.Fatalf("attempt segments duplicated or lost: %d != %d", gotAttempts, totalAttempts)
	}
	if wantEvals := 150 + 120 + 40; gotEvals != wantEvals {
		t.Fatalf("retired evals %d != submitted %d", gotEvals, wantEvals)
	}
}

// Byte-identity: the full chaos run marshals to identical JSON across
// reruns — the fleet has no hidden nondeterminism (map iteration, wall
// clock, goroutine interleaving).
func TestFleetChaosByteIdentical(t *testing.T) {
	defer leakcheck.Check(t)()
	a, err := RunFleet(chaosFleet())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(chaosFleet())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("rerun diverged:\n%s\n%s", ja, jb)
	}
}

// Gray degradation slows the fleet without any error surfacing: same
// counters, strictly larger makespan.
func TestFleetGrayDegrade(t *testing.T) {
	build := func(plan *fault.ShardPlan) FleetConfig {
		tn := fleetTenant("g", 13, 100)
		tn.Campaign.Faults = nil
		tn.Campaign.PoisonFraction = 0
		return FleetConfig{
			Shards: 2, NodesPerShard: 4, DispatchOverhead: 0.02,
			Faults: plan, Tenants: []TenantConfig{tn},
		}
	}
	clean, err := RunFleet(build(nil))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunFleet(build(fault.NewShardPlan().Degrade(0, 0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= clean.Makespan {
		t.Fatalf("3x gray slowdown did not cost time: %v <= %v", slow.Makespan, clean.Makespan)
	}
	if slow.Tenants[0].Completed != clean.Tenants[0].Completed {
		t.Fatal("gray slowdown changed outcomes")
	}
	repaired, err := RunFleet(build(fault.NewShardPlan().Degrade(0, 0, 3).Repair(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Makespan >= slow.Makespan {
		t.Fatalf("repair did not help: %v >= %v", repaired.Makespan, slow.Makespan)
	}
}

// Property: for random seeds, shard counts, and outages, the multiset
// invariant and the per-shard accounting identities hold. quick.Check is
// explicitly seeded so -count=100 replays the same cases.
func TestQuickFleetConservation(t *testing.T) {
	f := func(seed uint64, shardBits, killBits uint8) bool {
		shards := 1 + int(shardBits%4)
		tn := fleetTenant("q", seed, 60)
		plan := fault.NewShardPlan()
		for k := 0; k < int(killBits%3); k++ {
			plan.Kill(k%shards, float64(100+300*k), 700)
		}
		res, err := RunFleet(FleetConfig{
			Shards: shards, NodesPerShard: 3, DispatchOverhead: 0.05,
			WorkStealing: true, Faults: plan,
			Tenants: []TenantConfig{tn},
		})
		if err != nil {
			return false
		}
		tr := res.Tenants[0]
		if tr.Completed+tr.Dropped != 60 {
			return false
		}
		attempts, evals := 0, 0
		for _, st := range res.ShardStats {
			attempts += st.Attempts
			evals += st.Evals
		}
		return evals == 60 && attempts == 60+tr.Retries
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Validation surface.
func TestFleetValidation(t *testing.T) {
	ok := fleetTenant("v", 1, 10)
	cases := []FleetConfig{
		{Shards: 0, NodesPerShard: 1, Tenants: []TenantConfig{ok}},
		{Shards: 1, NodesPerShard: 0, Tenants: []TenantConfig{ok}},
		{Shards: 1, NodesPerShard: 1},
		{Shards: 1, NodesPerShard: 1, DispatchOverhead: -1, Tenants: []TenantConfig{ok}},
		{Shards: 1, NodesPerShard: 1, Tenants: []TenantConfig{{Weight: -2, Campaign: ok.Campaign}}},
		{Shards: 1, NodesPerShard: 1, Tenants: []TenantConfig{{SubmitAt: -1, Campaign: ok.Campaign}}},
		{Shards: 1, NodesPerShard: 1, Tenants: []TenantConfig{{}}},
		{Shards: 1, NodesPerShard: 1, Tenants: []TenantConfig{ok},
			Faults: fault.NewShardPlan().Kill(3, 1, 1)},
	}
	for i, cfg := range cases {
		if _, err := RunFleet(cfg); err == nil {
			t.Fatalf("case %d: invalid fleet accepted", i)
		}
	}
}
