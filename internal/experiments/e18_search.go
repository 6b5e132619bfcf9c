package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hpo"
	"repro/internal/rng"
	"repro/internal/trace"
)

// E18 measures search quality against modelled machine size with the fault
// layer on. For each node count the sharded multi-tenant fleet runs a
// campaign-shaped workload (a high-priority search tenant plus a background
// tenant, shard kills, gray degradation, work stealing, preemption) to find
// out how many full-training evaluations the machine actually delivers per
// hour once faults and scheduling overheads take their cut. That delivered
// throughput, over a fixed wall-clock deadline, becomes the eval budget
// handed to each searcher — random as the naive baseline, the REINFORCE
// controller and population-based training as the learning strategies —
// over the architecture DSL space. Every number is virtual-clock or
// analytic output of a seeded run, so BENCH_search.json can live in the
// repository behind a byte-compare test.
//
// Search quality is scored on the noiseless true loss of each searcher's
// chosen configuration, not the observed (noisy) validation loss: with
// thousands of evaluations a naive searcher's observed best is mostly a
// lucky noise draw, and scoring the pick's true quality is what exposes
// that.

// e18Nodes are the modelled machine sizes of the committed profile.
var e18Nodes = []int{1000, 10000, 100000}

// e18QuickNodes shrink the sweep for the test suite's quick pass. The
// smallest scale stays at 1000 nodes: below that the delivered eval budget
// is too small for a policy-gradient searcher to learn anything.
var e18QuickNodes = []int{1000, 3000}

// e18NodesPerShard fixes the shard granularity across scales.
const e18NodesPerShard = 100

// e18DeadlineHours is the wall-clock slice of delivered throughput each
// searcher gets as its evaluation budget.
const e18DeadlineHours = 0.1

// e18MeanEval is the mean full-training evaluation time in seconds.
const e18MeanEval = 1800

// SearchStrategyResult is one searcher's outcome at one machine size.
type SearchStrategyResult struct {
	Strategy     string  `json:"strategy"`
	Budget       float64 `json:"budget"`
	CostUsed     float64 `json:"cost_used"`
	Trials       int     `json:"trials"`
	ObservedBest float64 `json:"observed_best"`
	TrueBest     float64 `json:"true_best"`
	BestArch     string  `json:"best_arch"`
}

// SearchScaleRow is one machine size: the fleet's delivered throughput
// under faults and the searchers run at the budget it implies.
type SearchScaleRow struct {
	Nodes       int `json:"nodes"`
	Shards      int `json:"shards"`
	Configs     int `json:"configs"`
	ShardKills  int `json:"shard_kills"`
	Interrupted int `json:"interrupted"`
	Steals      int `json:"steals"`
	Preemptions int `json:"preemptions"`
	Retries     int `json:"retries"`
	Quarantined int `json:"quarantined"`

	MakespanS    float64 `json:"makespan_s"`
	Utilization  float64 `json:"utilization"`
	EvalsPerHour float64 `json:"evals_per_hour"`
	EvalBudget   float64 `json:"eval_budget"`

	Strategies []SearchStrategyResult `json:"strategies"`
}

// SearchBenchReport is the committed BENCH_search.json document.
type SearchBenchReport struct {
	Seed          uint64           `json:"seed"`
	DeadlineHours float64          `json:"deadline_hours"`
	MeanEvalS     float64          `json:"mean_eval_s"`
	Rows          []SearchScaleRow `json:"rows"`
}

// WriteJSON writes the report as indented JSON (stable field order).
func (r *SearchBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// e18TrueLoss is the noiseless search landscape over the architecture DSL:
// a capacity sweet spot near 160 total units, two layers, gelu activations,
// light dropout, and a log-quadratic bowl in learning rate and decay.
func e18TrueLoss(cfg hpo.Config) float64 {
	a, err := hpo.ArchFromConfig(cfg)
	if err != nil {
		return math.Inf(1)
	}
	loss := 0.30
	units := 0
	for _, l := range a.Layers {
		units += l.Units
	}
	loss += 0.06 * math.Abs(math.Log2(float64(units))-math.Log2(160))
	loss += 0.05 * math.Abs(float64(len(a.Layers))-2)
	for _, l := range a.Layers {
		switch l.Act {
		case "relu":
			loss += 0.010
		case "tanh":
			loss += 0.025
		}
		loss += 0.04 * math.Abs(l.Dropout-0.1)
	}
	lrErr := math.Log10(cfg.Float("lr")) - math.Log10(3e-3)
	loss += 0.09 * lrErr * lrErr
	dcErr := math.Log10(cfg.Float("decay")) - math.Log10(1e-4)
	loss += 0.02 * dcErr * dcErr
	return loss
}

// e18Objective is the evaluation the searchers see: the true loss plus a
// partial-training penalty and seeded validation noise that shrinks with
// training budget.
func e18Objective(cfg hpo.Config, budget float64, seed uint64) float64 {
	t := e18TrueLoss(cfg)
	if math.IsInf(t, 1) {
		return t
	}
	noise := (rng.New(seed).Float64()*2 - 1) * 0.12 / math.Sqrt(budget+0.25)
	return t + 0.25*(1-math.Min(budget, 1)) + noise
}

// e18Fleet builds the fleet workload at one machine size: a high-priority
// search tenant sized at two evaluations per node plus a half-weight
// background tenant, with scripted shard kills and gray degradation.
func e18Fleet(seed uint64, nodes int) (core.FleetConfig, error) {
	shards := nodes / e18NodesPerShard
	tenant := func(name string, seed uint64, configs int, weight float64, prio int) core.TenantConfig {
		return core.TenantConfig{
			Name: name, Weight: weight, Priority: prio,
			Campaign: core.CampaignConfig{
				Configs: configs, Nodes: 1,
				MeanEvalTime: e18MeanEval, EvalTimeSigma: 0.6,
				// Campaigns bound training by a max epoch count; without
				// this the makespan is one capped 10x straggler, not the
				// machine's sustained throughput.
				MaxEvalTime:      3 * e18MeanEval,
				DispatchOverhead: 0.05, RestartOverhead: 30,
				Faults:     &fault.Process{Nodes: 64, MTBF: 1.5e5, Horizon: 1e12},
				MaxRetries: 5, QuarantineAfter: 3,
				RetryBackoffBase: 5, RetryBackoffJitter: 0.3,
				PoisonFraction: 0.01,
				RNG:            rng.New(seed),
			},
		}
	}
	plan, err := fault.RandomShardPlan(rng.New(seed).Split("e18-shards"),
		shards, 7200, 3600, 600, 0.5)
	if err != nil {
		return core.FleetConfig{}, err
	}
	return core.FleetConfig{
		Shards: shards, NodesPerShard: e18NodesPerShard,
		DispatchOverhead: 0.05,
		Preemption:       true, WorkStealing: true,
		Tenants: []core.TenantConfig{
			tenant("search", seed, 2*nodes, 3, 1),
			tenant("background", seed+1, nodes/2, 1, 0),
		},
		Faults: plan,
	}, nil
}

// e18Searchers are the strategies compared at equal eval budget. The RL
// batch is pinned below the smallest scale's budget so the policy actually
// updates there; PBT's population likewise.
func e18Searchers() []hpo.Strategy {
	return []hpo.Strategy{hpo.RandomSearch{}, hpo.RLController{Batch: 8}, hpo.PBT{PopSize: 16}}
}

// e18Row runs one machine size end to end.
func e18Row(seed uint64, nodes int) (SearchScaleRow, error) {
	fc, err := e18Fleet(seed, nodes)
	if err != nil {
		return SearchScaleRow{}, fmt.Errorf("e18: fault plan at %d nodes: %w", nodes, err)
	}
	fr, err := core.RunFleet(fc)
	if err != nil {
		return SearchScaleRow{}, fmt.Errorf("e18: fleet at %d nodes: %w", nodes, err)
	}
	search := fr.Tenants[0]
	evalsPerHour := float64(search.Completed) / (fr.Makespan / 3600)
	budget := math.Floor(evalsPerHour * e18DeadlineHours)

	row := SearchScaleRow{
		Nodes: nodes, Shards: fc.Shards, Configs: search.Configs,
		ShardKills:  fc.Faults.NumKills(),
		Interrupted: fr.Interrupted, Steals: fr.Steals,
		Preemptions: fr.Preemptions, Retries: search.Retries,
		Quarantined:  search.QuarantinedConfigs,
		MakespanS:    fr.Makespan,
		Utilization:  fr.Utilization,
		EvalsPerHour: evalsPerHour,
		EvalBudget:   budget,
	}
	space := hpo.ArchSpace()
	for _, strat := range e18Searchers() {
		res, err := strat.Search(e18Objective, hpo.Options{
			Space: space, TotalBudget: budget, Parallelism: 64,
			RNG: rng.New(seed).Split(fmt.Sprintf("e18-%d-%s", nodes, strat.Name())),
		})
		if err != nil {
			return SearchScaleRow{}, fmt.Errorf("e18: %s at %d nodes: %w", strat.Name(), nodes, err)
		}
		arch, aerr := hpo.ArchFromConfig(res.Best.Config)
		if aerr != nil {
			return SearchScaleRow{}, fmt.Errorf("e18: %s best config does not decode: %w", strat.Name(), aerr)
		}
		row.Strategies = append(row.Strategies, SearchStrategyResult{
			Strategy: strat.Name(), Budget: budget,
			CostUsed: res.CostUsed, Trials: len(res.Trials),
			ObservedBest: res.Best.Loss,
			TrueBest:     e18TrueLoss(res.Best.Config),
			BestArch: fmt.Sprintf("%s lr=%.3g decay=%.3g", arch,
				res.Best.Config.Float("lr"), res.Best.Config.Float("decay")),
		})
	}
	return row, nil
}

// e18Sweep runs the row set.
func e18Sweep(seed uint64, nodeCounts []int) (*SearchBenchReport, error) {
	rep := &SearchBenchReport{
		Seed: seed, DeadlineHours: e18DeadlineHours, MeanEvalS: e18MeanEval,
	}
	for _, nodes := range nodeCounts {
		row, err := e18Row(seed, nodes)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// e18StrategyRow finds one strategy's result in a row.
func e18StrategyRow(row SearchScaleRow, name string) (SearchStrategyResult, error) {
	for _, s := range row.Strategies {
		if s.Strategy == name {
			return s, nil
		}
	}
	return SearchStrategyResult{}, fmt.Errorf("e18: row at %d nodes has no %s result", row.Nodes, name)
}

// SearchBench runs the committed profile and verifies its headline
// invariants, so a regression in the fleet scheduler, the fault layer, or
// either learning searcher can never silently regenerate a flat artifact:
//
//   - every scale ran with the fault layer genuinely on: shard kills,
//     mid-evaluation interruptions, work steals, preemptions and retries
//     all non-zero, with the eval multiset conserved per tenant;
//   - delivered throughput and the implied eval budget grow strictly with
//     machine size;
//   - at every scale, both learning searchers (the RL controller and PBT)
//     beat random search on true best-found loss at equal eval budget,
//     with no searcher overspending its budget.
func SearchBench(seed uint64, nodeCounts []int) (*SearchBenchReport, error) {
	if nodeCounts == nil {
		nodeCounts = e18Nodes
	}
	rep, err := e18Sweep(seed, nodeCounts)
	if err != nil {
		return nil, err
	}
	prevEPH, prevBudget := 0.0, 0.0
	for _, row := range rep.Rows {
		if row.ShardKills == 0 || row.Interrupted == 0 || row.Steals == 0 ||
			row.Preemptions == 0 || row.Retries == 0 {
			return nil, fmt.Errorf("e18: fault layer idle at %d nodes: kills=%d interrupted=%d steals=%d preempt=%d retries=%d",
				row.Nodes, row.ShardKills, row.Interrupted, row.Steals, row.Preemptions, row.Retries)
		}
		if row.Utilization <= 0 || row.Utilization > 1.001 {
			return nil, fmt.Errorf("e18: utilization %v at %d nodes", row.Utilization, row.Nodes)
		}
		if row.EvalsPerHour <= prevEPH || row.EvalBudget <= prevBudget {
			return nil, fmt.Errorf("e18: throughput not growing with machine size at %d nodes (%.0f evals/h budget %.0f)",
				row.Nodes, row.EvalsPerHour, row.EvalBudget)
		}
		prevEPH, prevBudget = row.EvalsPerHour, row.EvalBudget
		random, err := e18StrategyRow(row, "random")
		if err != nil {
			return nil, err
		}
		for _, s := range row.Strategies {
			if s.CostUsed > s.Budget+1e-9 {
				return nil, fmt.Errorf("e18: %s overspent at %d nodes: %.2f of %.0f",
					s.Strategy, row.Nodes, s.CostUsed, s.Budget)
			}
		}
		for _, name := range []string{"rl", "pbt"} {
			s, err := e18StrategyRow(row, name)
			if err != nil {
				return nil, err
			}
			if s.TrueBest >= random.TrueBest {
				return nil, fmt.Errorf("e18: %s true best %.4f not below random %.4f at %d nodes",
					name, s.TrueBest, random.TrueBest, row.Nodes)
			}
		}
	}
	return rep, nil
}

// E18SearchScale runs the sweep for the suite table.
func E18SearchScale(cfg Config) *trace.Table {
	t := trace.NewTable("E18 search quality vs machine size under faults",
		"nodes", "strategy", "budget", "trials", "observed-best", "true-best",
		"evals/h", "util", "kills", "steals", "preempt", "interrupted")
	nodeCounts := e18Nodes
	if cfg.Quick {
		nodeCounts = e18QuickNodes
	}
	rep, err := SearchBench(cfg.Seed, nodeCounts)
	if err != nil {
		t.AddRow(0, "error", 0, 0, 0, 0, 0, 0, 0, 0, 0, err.Error())
		return t
	}
	for _, row := range rep.Rows {
		for _, s := range row.Strategies {
			t.AddRow(row.Nodes, s.Strategy, s.Budget, s.Trials,
				s.ObservedBest, s.TrueBest,
				row.EvalsPerHour, row.Utilization,
				row.ShardKills, row.Steals, row.Preemptions, row.Interrupted)
		}
	}
	return t
}
