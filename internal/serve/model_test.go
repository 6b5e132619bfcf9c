package serve

// The model side of the server: which nets New and Deploy accept, that every
// replica computes the same bits from shared packed weights, that a deployed
// candidate serves the weights it had at Deploy, and that a batch's input
// tensor is the replica's own buffer, not an allocation.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestBadModelIsRefused(t *testing.T) {
	defer leakcheck.Check(t)()
	mlp := func(in, out int) *nn.Net { return nn.MLP(in, []int{4}, out, nn.ReLU, rng.New(31)) }
	for _, c := range []struct {
		name string
		net  *nn.Net
		ok   bool
	}{
		{"first layer wants InDim", mlp(3, 2), true},
		{"first layer wants another width", mlp(5, 2), false},
		{"inner layers do not chain", nn.NewNet(nn.NewDense(3, 4, rng.New(1)), nn.NewDense(5, 2, rng.New(2))), false},
	} {
		srv, err := New(c.net, Config{InDim: 3})
		if c.ok != (err == nil) || (!c.ok && !errors.Is(err, ErrBadModel)) {
			t.Errorf("New, %s: err = %v, want ok=%v (ErrBadModel otherwise)", c.name, err, c.ok)
		}
		if srv != nil {
			srv.Close()
		}
	}

	srv, err := New(mlp(3, 2), Config{InDim: 3, MaxBatch: 1, Clock: NewVirtualClock(time.Unix(0, 0).UTC())})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for _, c := range []struct {
		name string
		cand *nn.Net
	}{
		{"candidate wants another input width", mlp(4, 2)},
		{"candidate has another output width", mlp(3, 5)},
	} {
		if _, err := srv.Deploy(c.cand, RolloutConfig{}); !errors.Is(err, ErrBadModel) {
			t.Errorf("Deploy, %s: err = %v, want ErrBadModel", c.name, err)
		}
		if srv.Rollout() != nil {
			t.Fatalf("Deploy, %s: a refused candidate left a rollout behind", c.name)
		}
	}
	if _, err := srv.Infer([]float64{1, 2, 3}); err != nil {
		t.Fatalf("Infer after refused deploys: %v", err)
	}
	if _, err := srv.Deploy(mlp(3, 2), RolloutConfig{}); err != nil {
		t.Fatalf("Deploy of a fitting candidate: %v", err)
	}
}

// batchInputs is one full batch of distinct rows.
func batchInputs(rows, inDim int) [][]float64 {
	r := rng.New(41)
	xs := make([][]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, inDim)
		for j := range xs[i] {
			xs[i][j] = r.Norm()
		}
	}
	return xs
}

// freshForward is the reference: a net that has never served, cloned or
// packed anything, given weights' values, run on xs as one batch.
func freshForward(weights *nn.Net, inDim int, xs [][]float64) *tensor.Tensor {
	fresh := testNet(inDim)
	src := weights.Params()
	for i, p := range fresh.Params() {
		copy(p.Data, src[i].Data)
	}
	x := tensor.New(len(xs), inDim)
	for i, row := range xs {
		copy(x.Row(i).Data, row)
	}
	return fresh.Forward(x, false)
}

func expectRows(t *testing.T, label string, got [][]float64, want *tensor.Tensor) {
	t.Helper()
	for i, y := range got {
		for j, w := range want.Row(i).Data {
			if math.Float64bits(y[j]) != math.Float64bits(w) {
				t.Fatalf("%s: row %d output %d is %v, a fresh net gives %v", label, i, j, y[j], w)
			}
		}
	}
}

// TestEveryReplicaComputesTheSameBits runs the same full batch on each
// replica in turn (the replica goroutines are idle, so calling execute from
// here is the only use of each replica's net and buffer) and holds every
// reply to a fresh net's forward pass of that batch, bitwise. The batch has
// 4 rows, where the packed copy the replicas share selects the kernel.
func TestEveryReplicaComputesTheSameBits(t *testing.T) {
	const inDim, rows, replicas = 6, 4, 3
	net := testNet(inDim)
	srv, err := New(net, Config{InDim: inDim, Replicas: replicas, MaxBatch: rows})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	xs := batchInputs(rows, inDim)
	want := freshForward(net, inDim, xs)
	for r := 0; r < replicas; r++ {
		for round := 0; round < 2; round++ { // the second reuses the replica's input buffer
			b := &batch{}
			for _, x := range xs {
				b.reqs = append(b.reqs, srv.newRequest(x, time.Time{}, obs.Ctx{}))
			}
			reqs := append([]*request(nil), b.reqs...) // execute filters b.reqs in place
			srv.pool.execute(r, b)
			got := make([][]float64, rows)
			for i, req := range reqs {
				res := <-req.done
				if res.Err != nil || res.BatchSize != rows {
					t.Fatalf("replica %d: reply %+v", r, res)
				}
				got[i] = res.Y
			}
			expectRows(t, fmt.Sprintf("replica %d", r), got, want)
		}
	}
}

// TestDeployServesTheCandidateAsDeployed: a candidate that served inference
// (so it holds packed weights), was then trained on, and is deployed serves
// its new weights; training it further after Deploy changes nothing the
// server answers.
func TestDeployServesTheCandidateAsDeployed(t *testing.T) {
	defer leakcheck.Check(t)()
	const inDim, rows = 6, 4
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	srv, err := New(testNet(inDim), Config{InDim: inDim, MaxBatch: rows, MaxLinger: time.Hour,
		QueueCap: -1, Clock: vc, CtrlEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	xs := batchInputs(rows, inDim)
	cand := nn.MLP(inDim, []int{4}, 2, nn.ReLU, rng.New(23))
	cand.Forward(tensor.New(rows, inDim), false) // an earlier inference: cand now keeps packed weights
	perturb := func(by float64) {
		for _, p := range cand.Params() {
			for i := range p.Data {
				p.Data[i] += by
			}
		}
	}
	perturb(0.125)
	want := freshForward(cand, inDim, xs)

	ro, err := srv.Deploy(cand, RolloutConfig{
		Stages: []RolloutStage{{Fraction: 1, Hold: 100 * time.Millisecond}},
		Rules:  obs.ScaledBurnRules(time.Second),
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	perturb(1) // the caller keeps training its own net
	// Waiters: the control goroutine, plus the batcher's linger timer below.
	for i := 0; i < 50 && !ro.State().Terminal(); i++ {
		ctrlTick(vc, 100*time.Millisecond, 1)
	}
	if st := ro.State(); st != RolloutPromoted {
		t.Fatalf("candidate ended %s, want promoted", st)
	}

	var chans []<-chan Result
	for _, x := range xs {
		chans = append(chans, srv.submitBlocking(x, time.Time{}))
	}
	got := make([][]float64, rows)
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil || res.BatchSize != rows {
			t.Fatalf("reply %d: %+v", i, res)
		}
		got[i] = res.Y
	}
	if srv.Stats().CanaryServed != rows {
		t.Fatalf("CanaryServed = %d, want the whole batch of %d", srv.Stats().CanaryServed, rows)
	}
	expectRows(t, "promoted candidate", got, want)
}

// TestFullBatchDoesNotAllocateItsInput pins the per-replica input buffer: at
// MaxBatch 16 x InDim 2048 the batch tensor is 256 KiB, and everything a
// full batch does allocate (requests, reply rows, a 2-wide model's layer
// outputs) is a small fraction of that.
func TestFullBatchDoesNotAllocateItsInput(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race builds re-pack the weights on every batch to check the kept copy")
	}
	const inDim, rows = 2048, 16
	srv, err := New(testNet(inDim), Config{InDim: inDim, MaxBatch: rows, MaxLinger: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	xs := batchInputs(rows, inDim)
	chans := make([]<-chan Result, rows)
	fullBatch := func() {
		for i, x := range xs {
			chans[i] = srv.Submit(x, time.Time{})
		}
		for _, ch := range chans {
			if res := <-ch; res.Err != nil || res.BatchSize != rows {
				t.Fatalf("reply %+v", res)
			}
		}
	}
	fullBatch()
	const batches = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		fullBatch()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / batches
	if input := uint64(rows * inDim * 8); perBatch > input/4 {
		t.Errorf("a full batch allocates %d bytes; its input tensor alone would be %d", perBatch, input)
	}
}
