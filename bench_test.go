package repro

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/lowp"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchExperiment regenerates one experiment table per iteration. The table
// itself is the artifact (candlebench prints it); the benchmark exists so
// `go test -bench` re-runs every reproduction and times it.
func benchExperiment(b *testing.B, id string) {
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("experiment %s missing", id)
	}
	for i := 0; i < b.N; i++ {
		t := e.Run(experiments.Config{Quick: true, Seed: 1})
		if t.NumRows() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per experiment — the paper has no numbered tables/figures
// (keynote abstract), so these are the regeneration targets for the nine
// claim-reproductions DESIGN.md enumerates.
func BenchmarkE1Precision(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Roofline(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Scaling(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4Hybrid(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5Memory(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Fabric(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7NVRAM(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Search(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Campaign(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10Checkpoint(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11Serving(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Resilience(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13Comm(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14SLO(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15Kernels(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16Data(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE17Rollout(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18SearchScale(b *testing.B) { benchExperiment(b, "E18") }

// benchAblation regenerates one design-choice ablation table per iteration.
func benchAblation(b *testing.B, id string) {
	for _, e := range experiments.Ablations() {
		if e.ID != id {
			continue
		}
		for i := 0; i < b.N; i++ {
			if t := e.Run(experiments.Config{Quick: true, Seed: 1}); t.NumRows() == 0 {
				b.Fatalf("%s produced no rows", id)
			}
		}
		return
	}
	b.Fatalf("ablation %s missing", id)
}

func BenchmarkA1Allreduce(b *testing.B)       { benchAblation(b, "A1") }
func BenchmarkA2GradCompression(b *testing.B) { benchAblation(b, "A2") }
func BenchmarkA3BatchLaw(b *testing.B)        { benchAblation(b, "A3") }
func BenchmarkA4SyncVsAsync(b *testing.B)     { benchAblation(b, "A4") }
func BenchmarkA5TimeToQuality(b *testing.B)   { benchAblation(b, "A5") }

// ---- supporting micro-benchmarks ------------------------------------------

// BenchmarkTrainStepMLP measures one real forward+backward+update on a
// CANDLE-scale MLP batch — the unit of work every experiment models.
func BenchmarkTrainStepMLP(b *testing.B) {
	r := rng.New(1)
	net := nn.MLP(256, []int{128, 64}, 4, nn.ReLU, r)
	x := tensor.New(32, 256)
	x.FillRandNorm(r, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 4
	}
	y := nn.OneHot(labels, 4)
	cfg := nn.TrainConfig{Loss: nn.SoftmaxCELoss{}, Optimizer: nn.NewAdam(0.001)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainStep(net, x, y, cfg, nil, nil)
	}
}

// BenchmarkTrainStepLowPrecision isolates the cost of precision emulation.
func BenchmarkTrainStepLowPrecision(b *testing.B) {
	for _, p := range []lowp.Precision{lowp.FP64, lowp.FP16} {
		b.Run(p.String(), func(b *testing.B) {
			r := rng.New(1)
			net := nn.MLP(256, []int{128}, 4, nn.ReLU, r)
			x := tensor.New(32, 256)
			x.FillRandNorm(r, 1)
			labels := make([]int, 32)
			y := nn.OneHot(labels, 4)
			cfg := nn.TrainConfig{Loss: nn.SoftmaxCELoss{},
				Optimizer: nn.NewAdam(0.001), Precision: p}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nn.TrainStep(net, x, y, cfg, nil, nil)
			}
		})
	}
}

// BenchmarkDataParallelStep measures a full synchronous data-parallel epoch
// across goroutine ranks, including the ring allreduce.
func BenchmarkDataParallelStep(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(benchName("ranks", p), func(b *testing.B) {
			r := rng.New(2)
			x := tensor.New(256, 64)
			x.FillRandNorm(r, 1)
			labels := make([]int, 256)
			y := nn.OneHot(labels, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := nn.MLP(64, []int{64}, 2, nn.ReLU, rng.New(3))
				_, err := parallel.TrainDataParallel(net, x, y, parallel.DataParallelConfig{
					Replicas: p, Algo: comm.ARRing,
					Loss:         nn.SoftmaxCELoss{},
					NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1) },
					GlobalBatch:  64, Epochs: 1, RNG: rng.New(4),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectiveModel prices the four allreduce algorithms on the
// machine model (no goroutines — pure cost-model evaluation rate).
func BenchmarkCollectiveModel(b *testing.B) {
	m := machine.GPU2017(1024)
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, algo := range []comm.AllReduceAlgorithm{
			comm.ARRing, comm.ARRecursiveDoubling, comm.ARTree, comm.ARRabenseifner} {
			sink += machine.CollectiveTime(m.InterFabric, algo, 256, 1e8)
		}
	}
	_ = sink
}

func benchName(prefix string, v int) string {
	return prefix + "-" + string(rune('0'+v/10)) + string(rune('0'+v%10))
}
