package tuned

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/tenant"
)

// LoopbackThroughput measures wire-protocol trial throughput over
// loopback TCP. For each (workers, batch) cell a fresh server is
// started on 127.0.0.1, the given number of worker clients drive it
// until total trials are decided with the given LeaseN/CompleteN batch
// size, and the cell records completed trials per second. The
// measurement function costs nothing, so the numbers isolate the
// protocol round trips — exactly the overhead batching is meant to
// amortize. Cells are [len(workerCounts)][len(batchSizes)].
//
// The workers run lockstep, each over a client of its own: one request
// in flight per connection. LoopbackThroughputPipelined is the v3 hot
// path.
func LoopbackThroughput(workerCounts, batchSizes []int, total int) ([][]float64, error) {
	return loopbackSweep(workerCounts, batchSizes, total, false)
}

// LoopbackThroughputPipelined is LoopbackThroughput over the v3 hot
// path: every client multiplexes packed trial frames over one
// connection, and every worker overlaps its next lease with the current
// batch's measurement.
func LoopbackThroughputPipelined(workerCounts, batchSizes []int, total int) ([][]float64, error) {
	return loopbackSweep(workerCounts, batchSizes, total, true)
}

func loopbackSweep(workerCounts, batchSizes []int, total int, pipelined bool) ([][]float64, error) {
	out := make([][]float64, len(workerCounts))
	for wi, workers := range workerCounts {
		out[wi] = make([]float64, len(batchSizes))
		for bi, batch := range batchSizes {
			lps, err := loopbackCell(workers, batch, total, pipelined)
			if err != nil {
				return nil, fmt.Errorf("tuned: bench cell workers=%d batch=%d: %w", workers, batch, err)
			}
			out[wi][bi] = lps
		}
	}
	return out, nil
}

// benchAlgos mirrors the trial-engine benchmark's synthetic roster: a
// parameterless arm and a tunable one, so both the nominal and the
// numeric tuning paths run.
func benchAlgos() []core.Algorithm {
	return []core.Algorithm{
		{Name: "a"},
		{Name: "b", Space: param.NewSpace(param.NewRatio("x", 1, 2))},
	}
}

// TenantThroughput is the per-tenant outcome of one MultiTenantThroughput
// run.
type TenantThroughput struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	PerSec     float64 `json:"per_sec"`
}

// MultiTenantThroughput measures one multi-tenant server under tenants
// × workersPerTenant concurrent clients: each tenant's fleet drives its
// own engine to total trials with the given batch size, all over the
// same loopback listener. It returns the aggregate completed trials per
// second (wall clock of the whole run) and the per-tenant breakdown —
// the max/min of the per-tenant rates is the fairness ratio: 1.0 means
// the registry serves every tenant equally, large values mean one
// tenant starves another.
func MultiTenantThroughput(tenants, workersPerTenant, batch, total int) (float64, []TenantThroughput, error) {
	reg, err := tenant.NewRegistry(tenant.Config{
		Roster: func(string) ([]core.Algorithm, error) { return benchAlgos(), nil },
	})
	if err != nil {
		return 0, nil, err
	}
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%02d", i)
		spec := tenant.Spec{Name: names[i], Workload: "bench", Engine: core.EngineSpec{Seed: int64(i + 1)}}
		if err := reg.Register(spec); err != nil {
			return 0, nil, err
		}
	}
	srv := NewTenantServer(reg, WithTrialTarget(total))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	measure := func(algo int, cfg param.Config) float64 {
		if algo == 0 {
			return 2
		}
		return 1 + cfg[0]
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	perTenant := make([]time.Duration, tenants)
	for ti, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tStart := time.Now()
			var tw sync.WaitGroup
			for i := 0; i < workersPerTenant; i++ {
				tw.Add(1)
				go func() {
					defer tw.Done()
					c, err := Dial(addr, WithTenant(name))
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					defer c.Close()
					w := &Worker{Client: c, Measure: measure, Batch: batch}
					if _, err := w.Run(context.Background()); err != nil {
						errOnce.Do(func() { firstErr = err })
					}
				}()
			}
			tw.Wait()
			perTenant[ti] = time.Since(tStart)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, nil, firstErr
	}

	out := make([]TenantThroughput, tenants)
	aggregate := 0
	for ti, name := range names {
		eng, _, release, err := reg.Acquire(name)
		if err != nil {
			return 0, nil, err
		}
		iter := eng.Iterations()
		release()
		if iter < total {
			return 0, nil, fmt.Errorf("tenant %s finished at %d/%d trials", name, iter, total)
		}
		aggregate += iter
		out[ti] = TenantThroughput{Name: name, Iterations: iter, PerSec: float64(iter) / perTenant[ti].Seconds()}
	}
	return float64(aggregate) / elapsed.Seconds(), out, nil
}

// ContextualThroughput measures feature-routed wire throughput against
// the plain-engine baseline: the same worker count, batch size and
// trial budget run over loopback TCP — once against a bare
// ConcurrentTuner, once against a ctxtune.Engine with every lease
// carrying a feature vector (half the fleet in a cheap class, half in a
// dear class whose costs are 8× larger, so the partitioner actually
// splits mid-run). Returns both rates in trials per second plus the
// number of contexts the engine discovered; the ratio is the routing
// overhead the bench gates on. Each cell is the best of five
// interleaved runs: a single short loopback cell is scheduler-noise
// dominated (a ±20% swing run to run is normal on a loaded box), and
// the best-of estimates each path's capacity, which is what the
// overhead ratio compares — interleaving the pairs keeps slow drift in
// machine load from charging one path and not the other.
func ContextualThroughput(workers, batch, total int) (contextual, baseline float64, contexts int, err error) {
	const reps = 5
	for r := 0; r < reps; r++ {
		// The baseline runs the same windowed selector as the contextual
		// replicas: the ratio isolates the cost of routing, not of the
		// selector the contextual engine happens to need for warm starts.
		// Both cells drop per-iteration history — a throughput run has no
		// reader for it, and the contextual engine would pay the append
		// twice (replica and global fold), skewing the quotient with pure
		// bookkeeping.
		b, err := loopbackCellSel(workers, batch, total, false,
			&nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 64},
			core.WithoutHistory())
		if err != nil {
			return 0, 0, 0, fmt.Errorf("tuned: contextual bench baseline: %w", err)
		}
		baseline = math.Max(baseline, b)
		c, n, err := contextualCell(workers, batch, total)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("tuned: contextual bench: %w", err)
		}
		if c > contextual {
			contextual, contexts = c, n
		}
	}
	return contextual, baseline, contexts, nil
}

func contextualCell(workers, batch, total int) (float64, int, error) {
	eng, err := ctxtune.New(ctxtune.Config{
		Algos: benchAlgos(),
		Selector: func() nominal.Selector {
			return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 64}
		},
		Seed:        1,
		Partitioner: ctxtune.NewTree(1, 64, 1.5),
		Opts:        []core.Option{core.WithoutHistory()},
	})
	if err != nil {
		return 0, 0, err
	}
	srv := NewServer(eng, WithTrialTarget(total))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	start := time.Now()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	for i := 0; i < workers; i++ {
		feats, scale := []float64{1}, 1.0
		if i%2 == 1 {
			feats, scale = []float64{100}, 8.0
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, WithFeatures(feats))
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			defer c.Close()
			measure := func(algo int, cfg param.Config) float64 {
				if algo == 0 {
					return 2 * scale
				}
				return (1 + cfg[0]) * scale
			}
			w := &Worker{Client: c, Measure: measure, Batch: batch}
			if _, err := w.Run(context.Background()); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	if got := eng.Iterations(); got < total {
		return 0, 0, fmt.Errorf("finished at %d/%d trials", got, total)
	}
	return float64(eng.Iterations()) / elapsed.Seconds(), eng.ContextCount(), nil
}

func loopbackCell(workers, batch, total int, pipelined bool) (float64, error) {
	return loopbackCellSel(workers, batch, total, pipelined, nominal.NewEpsilonGreedy(0.10))
}

func loopbackCellSel(workers, batch, total int, pipelined bool, sel nominal.Selector, opts ...core.Option) (float64, error) {
	// The cell measures wire throughput; a full per-trial history would
	// make the engine the allocator hot spot instead.
	opts = append([]core.Option{core.WithoutHistory()}, opts...)
	eng, err := core.NewConcurrentTuner(benchAlgos(), sel, nil, 1, opts...)
	if err != nil {
		return 0, err
	}
	srv := NewServer(eng, WithTrialTarget(total))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	measure := func(algo int, cfg param.Config) float64 {
		if algo == 0 {
			return 2
		}
		return 1 + cfg[0]
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	// Pipelined workers share one connection — that is the point of the
	// windowed pipe: many in-flight requests interleave on a single
	// stream and both ends coalesce bursts into single syscalls.
	// Lockstep workers keep a connection each.
	var shared *Client
	if pipelined {
		c, err := Dial(addr)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		shared = c
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := shared
			if c == nil {
				cc, err := Dial(addr)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				defer cc.Close()
				c = cc
			}
			w := &Worker{Client: c, Measure: measure, Batch: batch, Pipeline: pipelined}
			if _, err := w.Run(context.Background()); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	if got := eng.Iterations(); got < total {
		return 0, fmt.Errorf("finished at %d/%d trials", got, total)
	}
	return float64(eng.Iterations()) / elapsed.Seconds(), nil
}
