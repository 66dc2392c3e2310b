package tuned

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// TestWorkerLockstepObeysSuggestMax runs a lockstep worker that holds
// the whole global cap while a peer session starves. The server clamps
// the worker's next grant to the fair share and advertises it as
// SuggestMax; every lease request after that must ask for the fair
// share, not the configured batch.
func TestWorkerLockstepObeysSuggestMax(t *testing.T) {
	const cap, fair = 8, 4
	_, addr := startEngineServer(t, WithGlobalCap(cap), WithMaxBatch(cap))
	tap := &frameTap{t: t}
	c, err := Dial(addr, WithDialer(tap.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	w := &Worker{
		Client: c,
		Measure: func(algo int, cfg param.Config) float64 {
			if calls.Add(1) == 1 {
				close(started)
				<-release
			}
			return testMeasure(algo, cfg)
		},
		Batch:     cap,
		MaxTrials: 6 * fair,
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := w.Run(context.Background())
		done <- result{n, err}
	}()

	// The worker measures its first batch holding the whole cap, so the
	// peer's request starves.
	<-started
	plb, err := peer.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plb.Trials) != 0 {
		t.Fatalf("peer leased %d trials at the global cap, want a busy answer", len(plb.Trials))
	}
	close(release)
	res := <-done
	if res.err != nil || res.n != w.MaxTrials {
		t.Fatalf("Run = %d, %v; want %d, nil", res.n, res.err, w.MaxTrials)
	}

	// Requests: the full batch, the one the server clamped, then the
	// fair share for the rest of the run.
	sizes := tap.leaseSizes()
	if len(sizes) < 3 || sizes[0] != cap || sizes[1] != cap {
		t.Fatalf("lease requests %v, want two of %d before the clamp", sizes, cap)
	}
	for _, n := range sizes[2:] {
		if n != fair {
			t.Fatalf("lease requests %v: after SuggestMax=%d the worker asked for %d", sizes, fair, n)
		}
	}
}

// TestWorkerPipelineMaxTrials stops a pipelined worker, whose lease
// prefetch and asynchronous reports keep several batches in the air, at
// MaxTrials exactly: no trial leased beyond it, every one reported.
func TestWorkerPipelineMaxTrials(t *testing.T) {
	const max = 30 // not a multiple of the batch
	eng, addr := startEngineServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := &Worker{Client: c, Measure: testMeasure, Batch: 4, MaxTrials: max, Pipeline: true}
	n, err := w.Run(context.Background())
	if err != nil || n != max {
		t.Fatalf("Run = %d, %v; want %d, nil", n, err, max)
	}
	st := eng.Stats()
	if got := w.Stats().Reported; got != max || st.Completed != max {
		t.Fatalf("worker reported %d, engine completed %d; want %d each", got, st.Completed, max)
	}
	if st.Leased != max || st.InFlight != 0 {
		t.Fatalf("engine leased %d with %d in flight; want %d leased, none in flight", st.Leased, st.InFlight, max)
	}
}

// TestWorkerPipelineDone ends a pipelined worker on the server's Done
// answer: Run returns cleanly with every trial it leased reported.
func TestWorkerPipelineDone(t *testing.T) {
	const target = 40
	eng, addr := startEngineServer(t, WithTrialTarget(target))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := &Worker{Client: c, Measure: testMeasure, Batch: 4, Pipeline: true}
	n, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("Run = %v at Done", err)
	}
	st := eng.Stats()
	if eng.Iterations() < target {
		t.Fatalf("worker stopped at %d iterations, before the target %d", eng.Iterations(), target)
	}
	if uint64(n) != st.Completed || w.Stats().Reported != n || st.InFlight != 0 {
		t.Fatalf("Run = %d, worker reported %d, engine %+v; want all equal and none in flight", n, w.Stats().Reported, st)
	}
}

// TestWorkerPipelineAsyncReportFailure closes the server while a
// pipelined worker measures, so the batch's asynchronous report fails
// after the loop has moved on. With a Fallback, those measurements must
// be kept as degraded-mode observations and absorbed after reconnect:
// every measurement taken ends up reported or absorbed.
func TestWorkerPipelineAsyncReportFailure(t *testing.T) {
	eng, err := core.NewConcurrentTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1,
		core.WithLeaseTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const target = 120
	srv1 := NewServer(eng, WithTrialTarget(target))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln)

	c, err := Dial(addr,
		WithRetry(2, 2*time.Millisecond, 10*time.Millisecond),
		WithRequestTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var (
		calls  atomic.Int64
		kill   sync.Once
		killed = make(chan struct{})
	)
	w := &Worker{
		Client: c,
		Measure: func(algo int, cfg param.Config) float64 {
			if calls.Add(1) == 20 {
				// The last trial of the fifth batch: its report goes out
				// to a closed server.
				kill.Do(func() {
					srv1.Close()
					close(killed)
				})
			}
			// A measurement takes time, so the degraded phase stays
			// inside Fallback.MaxBuffer and no observation is dropped.
			time.Sleep(100 * time.Microsecond)
			return testMeasure(algo, cfg)
		},
		Batch:    4,
		Pipeline: true,
		Fallback: &Fallback{
			Selector:   func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
			Seed:       17,
			ProbeEvery: 10 * time.Millisecond,
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(context.Background())
		done <- err
	}()

	<-killed
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().DegradedTrials < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never degraded: stats %+v", w.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(eng, WithTrialTarget(target))
	go srv2.Serve(ln2)
	defer srv2.Close()

	if err := <-done; err != nil {
		t.Fatalf("worker Run = %v", err)
	}
	st := w.Stats()
	if st.Partitions == 0 || st.DroppedObs != 0 {
		t.Fatalf("worker entered degraded mode %d times dropping %d observations, want at least once dropping none: %+v",
			st.Partitions, st.DroppedObs, st)
	}
	if st.Absorbed <= st.DegradedTrials {
		t.Fatalf("absorbed %d observations, no more than the %d degraded trials: the failed report was lost (%+v)",
			st.Absorbed, st.DegradedTrials, st)
	}
	if got := calls.Load(); int64(st.Reported+st.Absorbed) != got {
		t.Fatalf("%d measurements, but %d reported + %d absorbed (%+v)", got, st.Reported, st.Absorbed, st)
	}
	if est := eng.Stats(); est.Absorbed != uint64(st.Absorbed) {
		t.Fatalf("engine absorbed %d, worker says %d", est.Absorbed, st.Absorbed)
	}
}
