package serve

// Gray-failure chaos suite for the serving layer: degraded replicas that
// stay alive but slow, the health scorer that ejects and re-admits them,
// hedged execution that rescues requests stuck behind them, and the retry
// budget that keeps shed load from amplifying into a storm. The precise
// tests run on a VirtualClock (sleep-free, bit-deterministic); the fleet
// tests run on the real scheduler under -race. Every test asserts the
// goroutine-leak check: hedge watchers, ejected replicas, and retry loops
// all spawn goroutines whose exit paths these suites exist to exercise.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/leakcheck"
)

// waitServed blocks on the pool condition variable until replica r has
// served at least n batches and gone idle — the sleep-free way to order
// placement decisions against completions on a VirtualClock.
func waitServed(srv *Server, r, n int) {
	p := srv.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.nObs[r] < n || p.inflight[r] != 0 {
		p.cond.Wait()
	}
}

// TestGrayDegradedReplicaEjectedThenReadmitted walks the full health-scoring
// life cycle deterministically: a 10x-degraded replica serves MinSamples
// slow batches, gets ejected, traffic routes around it while it sits idle,
// a probe lands after the fault is repaired, and the replica rejoins the
// fleet. Every placement in the script is forced by the tie-break and load
// rules, so the test asserts exact counters, not tendencies.
func TestGrayDegradedReplicaEjectedThenReadmitted(t *testing.T) {
	defer leakcheck.Check(t)()
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	plan := fault.NewPlan().Degrade(0, 10) // 9ms stall per batch at DegradeUnit 1ms
	srv, err := New(testNet(3), Config{
		InDim:       3,
		Replicas:    2,
		MaxBatch:    1,
		Clock:       vc,
		Faults:      plan,
		DegradeUnit: time.Millisecond,
		Health: HealthConfig{
			EjectFactor: 3,
			MinSamples:  2,
			ProbeEvery:  4,
			MinLatency:  time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	x := []float64{1, 2, 3}

	// Placement 1: all idle, tie-break to the degraded replica 0. It stalls
	// 9ms on the virtual clock before executing.
	chA := srv.Submit(x, time.Time{})
	vc.BlockUntilWaiters(1)

	// Placements 2-3: replica 0 is busy, so both land on healthy replica 1
	// and finish instantly at the current virtual time (EWMA 0, 2 samples).
	if _, err := srv.Infer(x); err != nil {
		t.Fatalf("Infer B: %v", err)
	}
	waitServed(srv, 1, 1)
	if _, err := srv.Infer(x); err != nil {
		t.Fatalf("Infer C: %v", err)
	}
	waitServed(srv, 1, 2)

	// Release replica 0's first slow batch: one 9ms sample is not enough to
	// eject (MinSamples 2).
	vc.Advance(9 * time.Millisecond)
	if res := <-chA; res.Err != nil {
		t.Fatalf("request A: %v", res.Err)
	}
	waitServed(srv, 0, 1)
	if st := srv.Stats(); st.Ejections != 0 || st.HealthyReplicas != 2 {
		t.Fatalf("ejected on one sample: %+v", st)
	}

	// Placement 4: both idle again, tie-break back to replica 0. The second
	// slow sample crosses MinSamples with EWMA 9ms > 3 x median(0) and
	// > MinLatency: ejection.
	chD := srv.Submit(x, time.Time{})
	vc.BlockUntilWaiters(1)
	vc.Advance(9 * time.Millisecond)
	if res := <-chD; res.Err != nil {
		t.Fatalf("request D: %v", res.Err)
	}
	waitServed(srv, 0, 2)
	if st := srv.Stats(); st.Ejections != 1 || st.HealthyReplicas != 1 {
		t.Fatalf("after two slow samples: %+v, want ejection of replica 0", st)
	}

	// Placements 5-7: replica 0 is ejected, so despite being idle it gets
	// nothing — all three complete instantly on replica 1.
	for i := 0; i < 3; i++ {
		if _, err := srv.Infer(x); err != nil {
			t.Fatalf("Infer past ejected replica: %v", err)
		}
	}
	waitServed(srv, 1, 5)
	if got := srv.pool.nObs[0]; got != 2 {
		t.Fatalf("ejected replica served %d batches, want still 2 (no traffic)", got)
	}

	// Repair the gray fault, then placement 8 = the probe (ProbeEvery 4):
	// it lands on replica 0, comes back fast, and re-admits it.
	plan.Degrade(0, 1)
	if _, err := srv.Infer(x); err != nil {
		t.Fatalf("probe request: %v", err)
	}
	waitServed(srv, 0, 3)
	st := srv.Stats()
	if st.Readmissions != 1 || st.HealthyReplicas != 2 {
		t.Fatalf("after repaired probe: %+v, want re-admission", st)
	}
	if st.Completed != 8 || st.Ejections != 1 {
		t.Fatalf("final stats %+v, want 8 completed, 1 ejection", st)
	}
}

// TestGrayHedgeRescuesWedgedRequest scripts the hedging contract end to end
// on a VirtualClock: a request lands on a replica wedged for an hour, the
// hedge budget (5ms) expires, the duplicate runs on the healthy replica and
// answers at exactly t+5ms, and when the wedged replica finally wakes its
// copy is cancelled before the forward pass — first response wins, the
// loser is cancelled, nothing is double-delivered.
func TestGrayHedgeRescuesWedgedRequest(t *testing.T) {
	defer leakcheck.Check(t)()
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	srv, err := New(testNet(3), Config{
		InDim:    3,
		Replicas: 2,
		MaxBatch: 1,
		Clock:    vc,
		Faults:   fault.NewPlan().Hang(0, 0, time.Hour), // the gray wedge
		Hedge:    HedgeConfig{After: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Tie-break sends the request to wedged replica 0; two timers arm: the
	// hour-long hang and the 5ms hedge watcher.
	ch := srv.Submit([]float64{1, 2, 3}, time.Time{})
	vc.BlockUntilWaiters(2)

	// The hedge budget expires: the duplicate goes to idle replica 1 and
	// answers immediately, 5ms after admission.
	vc.Advance(5 * time.Millisecond)
	res := <-ch
	if res.Err != nil {
		t.Fatalf("hedged request failed: %v", res.Err)
	}
	if res.Latency != 5*time.Millisecond {
		t.Fatalf("latency = %v, want exactly the 5ms hedge budget", res.Latency)
	}

	// The wedged replica wakes an hour later: its copy must be cancelled
	// before paying for a forward pass.
	vc.Advance(time.Hour)
	srv.Close()

	st := srv.Stats()
	if st.Hedged != 1 || st.HedgeCancelled != 1 || st.HedgeWasted != 0 {
		t.Fatalf("hedge accounting %+v, want 1 hedged, 1 cancelled, 0 wasted", st)
	}
	if st.Completed != 1 || st.Expired != 0 {
		t.Fatalf("stats %+v, want exactly one completion", st)
	}
}

// TestChaosGrayFleetHedgesAroundDegradedReplica is the -race hedging fleet
// test: a 20x gray straggler inside a three-replica fleet, hedging past a
// 1ms budget, sixteen concurrent closed-loop clients. All requests must
// succeed, at least one must have been hedged, and the hedge ledger must
// balance. (Health scoring is off here on purpose: hedging rescues stuck
// clients so quickly that the straggler barely accumulates samples, so the
// two defenses are exercised in separate fleet tests.)
func TestChaosGrayFleetHedgesAroundDegradedReplica(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		clients   = 16
		perClient = 20
		total     = clients * perClient
	)
	srv, err := New(testNet(3), Config{
		InDim:       3,
		Replicas:    3,
		MaxBatch:    4,
		MaxLinger:   200 * time.Microsecond,
		QueueCap:    64,
		Faults:      fault.NewPlan().Degrade(0, 20),
		DegradeUnit: 100 * time.Microsecond, // 1.9ms stall per straggler batch
		Hedge:       HedgeConfig{After: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := srv.Infer([]float64{float64(c), float64(i), 1}); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close()
	close(errs)
	for err := range errs {
		t.Fatalf("Infer failed under gray chaos: %v", err)
	}

	st := srv.Stats()
	if st.Completed != total {
		t.Fatalf("completed = %d, want %d (hedging must never lose or double-count)", st.Completed, total)
	}
	if st.Hedged < 1 {
		t.Fatal("no request was hedged despite a 1.9ms straggler and a 1ms budget")
	}
	if st.HedgeCancelled+st.HedgeWasted > st.Hedged {
		t.Fatalf("hedge ledger unbalanced: %d cancelled + %d wasted > %d hedged",
			st.HedgeCancelled, st.HedgeWasted, st.Hedged)
	}
}

// TestChaosGrayFleetEjectsStraggler is the -race health-scoring fleet test:
// the same 20x straggler, no hedging, so closed-loop clients genuinely wait
// out its slow batches and the scorer sees sample after slow sample. The
// straggler must be ejected and the fleet must finish every request. The
// healthy replicas answer a batch in microseconds, so a fixed request count
// can be served before the straggler finishes the MinSamples batches that
// ejection needs (2 ms each): past their quota the clients keep going until
// the ejection shows, within a bound.
func TestChaosGrayFleetEjectsStraggler(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		clients   = 16
		perClient = 20
		patience  = 5 * time.Second
	)
	srv, err := New(testNet(3), Config{
		InDim:       3,
		Replicas:    3,
		MaxBatch:    4,
		MaxLinger:   200 * time.Microsecond,
		QueueCap:    64,
		Faults:      fault.NewPlan().Degrade(0, 20),
		DegradeUnit: 100 * time.Microsecond,
		Health: HealthConfig{
			EjectFactor: 3,
			MinSamples:  3,
			ProbeEvery:  1 << 20, // effectively no probes: ejection stays sticky
			MinLatency:  200 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var wg sync.WaitGroup
	var total atomic.Int64
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient || (srv.Stats().Ejections == 0 && time.Since(start) < patience); i++ {
				total.Add(1)
				if _, err := srv.Infer([]float64{float64(c), float64(i), 1}); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close()
	close(errs)
	for err := range errs {
		t.Fatalf("Infer failed under gray chaos: %v", err)
	}

	st := srv.Stats()
	if st.Completed != total.Load() {
		t.Fatalf("completed = %d, want %d", st.Completed, total.Load())
	}
	if st.Ejections < 1 {
		t.Fatalf("straggler never ejected: %+v", st)
	}
	if st.HealthyReplicas < 1 {
		t.Fatalf("health scoring ejected everyone: %+v", st)
	}
}

// TestChaosRetryBudgetBoundsAmplification wedges a single-replica server
// into a brownout (20ms per batch, one-deep queues) and slams it with
// concurrent budgeted retriers. The token bucket must enforce the
// amplification bound attempts <= N + burst + ratio*successes no matter the
// interleaving, and must start denying retries once the budget drains —
// bounded shed load instead of a retry storm.
func TestChaosRetryBudgetBoundsAmplification(t *testing.T) {
	defer leakcheck.Check(t)()
	srv, err := New(testNet(3), Config{
		InDim:             3,
		Replicas:          1,
		MaxBatch:          1,
		MaxLinger:         100 * time.Microsecond,
		QueueCap:          1,
		MaxPendingBatches: 1,
		Faults:            fault.NewPlan().Degrade(0, 21),
		DegradeUnit:       time.Millisecond, // 20ms per batch: a brownout
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pol := RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		BudgetRatio: 0.1,
		BudgetBurst: 3,
	}
	rt := NewRetrier(srv, pol, 99)

	const (
		goroutines = 32
		each       = 4
		total      = goroutines * each
	)
	results := make(chan Result, total)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				results <- rt.Do([]float64{float64(g), float64(i), 0}, time.Time{})
			}
		}(g)
	}
	wg.Wait()
	srv.Close()
	close(results)

	var ok, shed int64
	for res := range results {
		switch {
		case res.Err == nil:
			ok++
		case errors.Is(res.Err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", res.Err)
		}
	}
	if ok+shed != total {
		t.Fatalf("ok(%d)+shed(%d) != %d", ok, shed, total)
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("brownout not exercised: ok=%d shed=%d (need both outcomes)", ok, shed)
	}

	rs := rt.Stats()
	bound := float64(total) + pol.BudgetBurst + pol.BudgetRatio*float64(ok)
	if float64(rs.Attempts) > bound {
		t.Fatalf("retry amplification unbounded: %d attempts > %d requests + burst %g + ratio*ok %g",
			rs.Attempts, total, pol.BudgetBurst, pol.BudgetRatio*float64(ok))
	}
	if rs.Attempts != int64(total)+rs.Retries {
		t.Fatalf("attempt accounting broken: %d attempts, %d requests, %d retries",
			rs.Attempts, total, rs.Retries)
	}
	if float64(rs.Retries) > pol.BudgetBurst+pol.BudgetRatio*float64(ok) {
		t.Fatalf("retries %d exceed the token supply %g", rs.Retries,
			pol.BudgetBurst+pol.BudgetRatio*float64(ok))
	}
	if rs.Denied == 0 {
		t.Fatal("budget never denied a retry during a sustained brownout")
	}
}
