// Command atune-bench measures the trial engine's lease throughput and
// writes the result as a small JSON document, the shape CI trend
// dashboards ingest.
//
// Usage:
//
//	atune-bench [-out file] [-trials N] [-sleep d] [-workers list]
//	atune-bench -wire [-pipeline] [-gate] [-out file] [-trials N] [-workers list] [-batches list]
//	atune-bench -shards [-out file] [-trials N] [-workers list] [-shard-counts list]
//	atune-bench -tenants N [-out file] [-trials N] [-tenant-workers M] [-batch B]
//	atune-bench -contextual [-out file] [-trials N] [-ctx-workers N] [-batch B]
//
// The default mode benchmarks the in-process engine: every trial costs
// a fixed -sleep of wall clock and nothing else, so the numbers isolate
// the engine's lease/complete overhead and its scaling across worker
// pools rather than any particular tuned operation.
//
// -wire benchmarks the distributed path instead: a tuning server on
// loopback TCP driven by remote worker clients, swept over worker
// counts and LeaseN/CompleteN batch sizes. Here the measurement is
// free, so leases/sec is purely protocol round-trip overhead — the
// batch-size columns show what wire batching buys. -pipeline (the
// default) runs the v3 hot path — pipelined workers multiplexing packed
// trial frames over one shared connection; -pipeline=false measures
// lockstep workers with a connection each for comparison. -gate reads
// the committed document at -out before overwriting it and fails the
// run when batch=16 throughput regressed more than 20% against it.
//
// -shards benchmarks sharded selection: the in-process engine swept
// over (workers × shards) with a free measurement, so leases/sec is
// pure decision overhead and the shard columns show what moving
// per-trial work off the global decision mutex buys.
//
// -tenants N benchmarks the multi-tenant server: N tenants × M workers
// each on one loopback server, all measurements free. The document
// records the aggregate leases/sec (how much tenancy itself costs over
// the single-tenant wire path at the same total worker count) and the
// max/min per-tenant throughput fairness ratio (1.0 = perfectly fair).
//
// -contextual benchmarks feature-routed leasing: the same loopback
// fleet runs once against a plain engine and once against a contextual
// engine with every lease carrying a feature vector (two workload
// classes, so the partitioner splits mid-run). The document records
// both rates and their ratio — the cost of per-context routing, which
// the bench gates at within 10% of the plain path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/tuned"
)

// runMeta records the environment a benchmark ran in, so the trend
// ingester can separate a regression from a toolchain or machine swap.
type runMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func meta() runMeta {
	return runMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

type result struct {
	Name         string    `json:"name"`
	Meta         runMeta   `json:"meta"`
	Workers      []int     `json:"workers"`
	LeasesPerSec []float64 `json:"leases_per_sec"`
	Speedup      []float64 `json:"speedup"`
	Trials       int       `json:"trials_per_run"`
	SleepMS      float64   `json:"sleep_ms_per_trial"`
	Timestamp    string    `json:"timestamp"`
}

// wireResult is the -wire document: one row per worker count, one
// leases/sec column per batch size, plus the headline ratio of the
// last batch column over the first, per row.
type wireResult struct {
	Name         string      `json:"name"`
	Meta         runMeta     `json:"meta"`
	Pipelined    bool        `json:"pipelined"`
	Workers      []int       `json:"workers"`
	Batches      []int       `json:"batch_sizes"`
	LeasesPerSec [][]float64 `json:"leases_per_sec"`
	BatchSpeedup []float64   `json:"batch_speedup"`
	Trials       int         `json:"trials_per_run"`
	Timestamp    string      `json:"timestamp"`
}

// tenantResult is the -tenants document: aggregate leases/sec over the
// whole multi-tenant run (comparable against the -wire document at the
// same total worker count) plus the per-tenant rates and their max/min
// fairness ratio.
type tenantResult struct {
	Name             string                   `json:"name"`
	Meta             runMeta                  `json:"meta"`
	Tenants          int                      `json:"tenants"`
	WorkersPerTenant int                      `json:"workers_per_tenant"`
	Batch            int                      `json:"batch_size"`
	LeasesPerSec     float64                  `json:"leases_per_sec"`
	PerTenant        []tuned.TenantThroughput `json:"per_tenant"`
	FairnessRatio    float64                  `json:"fairness_ratio"`
	Trials           int                      `json:"trials_per_tenant"`
	Timestamp        string                   `json:"timestamp"`
}

// contextResult is the -contextual document: feature-routed leases/sec
// against the plain-engine baseline at the same fleet size, their
// ratio, and how many contexts the partitioner discovered during the
// run.
type contextResult struct {
	Name         string  `json:"name"`
	Meta         runMeta `json:"meta"`
	Workers      int     `json:"workers"`
	Batch        int     `json:"batch_size"`
	LeasesPerSec float64 `json:"leases_per_sec"`
	BaselinePS   float64 `json:"baseline_leases_per_sec"`
	Overhead     float64 `json:"overhead_ratio"`
	Contexts     int     `json:"contexts_discovered"`
	Trials       int     `json:"trials_per_run"`
	Timestamp    string  `json:"timestamp"`
}

// shardResult is the -shards document: one row per worker count, one
// leases/sec column per shard count, plus the headline ratio of the
// last shard column over the first, per row.
type shardResult struct {
	Name         string      `json:"name"`
	Meta         runMeta     `json:"meta"`
	Workers      []int       `json:"workers"`
	Shards       []int       `json:"shard_counts"`
	LeasesPerSec [][]float64 `json:"leases_per_sec"`
	ShardSpeedup []float64   `json:"shard_speedup"`
	Trials       int         `json:"trials_per_run"`
	Timestamp    string      `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("atune-bench: ")
	var (
		out      = flag.String("out", "", "output file (- for stdout; default depends on mode)")
		trials   = flag.Int("trials", 0, "trials completed per run (default depends on mode)")
		sleep    = flag.Duration("sleep", 2*time.Millisecond, "fixed wall-clock cost per trial")
		workers  = flag.String("workers", "1,4,16", "comma-separated worker counts")
		wire     = flag.Bool("wire", false, "benchmark the loopback TCP wire path instead of the in-process engine")
		pipeline = flag.Bool("pipeline", true, "use the v3 hot path: pipelined workers sharing one connection (with -wire)")
		gate     = flag.Bool("gate", false, "fail if batch=16 throughput regresses >20% vs the committed -out document")
		batches  = flag.String("batches", "1,16", "comma-separated LeaseN batch sizes (with -wire)")
		shards   = flag.Bool("shards", false, "benchmark sharded selection across shard counts")
		shardCs  = flag.String("shard-counts", "1,4,8", "comma-separated shard counts (with -shards)")
		tenants  = flag.Int("tenants", 0, "benchmark a multi-tenant server with this many tenants")
		tWorkers = flag.Int("tenant-workers", 4, "workers per tenant (with -tenants)")
		batch    = flag.Int("batch", 16, "LeaseN batch size (with -tenants or -contextual)")
		ctx      = flag.Bool("contextual", false, "benchmark feature-routed leasing against the plain wire path")
		ctxW     = flag.Int("ctx-workers", 16, "worker count (with -contextual)")
	)
	flag.Parse()

	if *shards && *workers == "1,4,16" {
		*workers = "1,4,16,64"
	}
	counts := parseInts("-workers", *workers)

	if *tenants > 0 {
		if *out == "" {
			*out = "BENCH_tenant.json"
		}
		if *trials <= 0 {
			*trials = 2000
		}
		if *tWorkers <= 0 || *batch <= 0 {
			log.Fatal("-tenant-workers and -batch must be positive")
		}
		runTenants(*out, *tenants, *tWorkers, *batch, *trials)
		return
	}
	if *ctx {
		if *out == "" {
			*out = "BENCH_context.json"
		}
		if *trials <= 0 {
			// Larger cells than the other wire modes: the overhead ratio
			// divides two independently-measured rates, so each cell must
			// run long enough (~150ms) that startup and convergence noise
			// don't dominate the quotient.
			*trials = 20000
		}
		if *ctxW <= 0 || *batch <= 0 {
			log.Fatal("-ctx-workers and -batch must be positive")
		}
		runContextual(*out, *ctxW, *batch, *trials)
		return
	}
	if *shards {
		if *out == "" {
			*out = "BENCH_shard.json"
		}
		if *trials <= 0 {
			// The free-measurement cells run past a million leases/sec;
			// anything much smaller measures scheduler noise.
			*trials = 100000
		}
		runShards(*out, *trials, counts, parseInts("-shard-counts", *shardCs))
		return
	}
	if *wire {
		if *out == "" {
			*out = "BENCH_wire.json"
		}
		if *trials <= 0 {
			*trials = 2000
		}
		runWire(*out, *trials, counts, parseInts("-batches", *batches), *pipeline, *gate)
		return
	}
	if *out == "" {
		*out = "BENCH_trial_engine.json"
	}
	if *trials <= 0 {
		*trials = 96
	}

	lps := exp.TrialEngineThroughput(counts, *trials, *sleep)
	res := result{
		Name:    "trial_engine_throughput",
		Meta:    meta(),
		Workers: counts,
		Trials:  *trials,
		SleepMS: float64(sleep.Nanoseconds()) / 1e6,
		// RFC 3339 so the trend ingester sorts runs lexically.
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for i, v := range lps {
		res.LeasesPerSec = append(res.LeasesPerSec, v)
		res.Speedup = append(res.Speedup, v/lps[0])
		fmt.Printf("workers=%-3d  %8.0f leases/sec  (%.1fx)\n", counts[i], v, v/lps[0])
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	writeDoc(*out, append(buf, '\n'))
}

// runWire sweeps the loopback wire benchmark and writes BENCH_wire.json,
// optionally gating against the previously committed document.
func runWire(out string, trials int, counts, batches []int, pipelined, gate bool) {
	baseline := readWireBaseline(out, gate)
	sweep := tuned.LoopbackThroughput
	if pipelined {
		sweep = tuned.LoopbackThroughputPipelined
	}
	lps, err := sweep(counts, batches, trials)
	if err != nil {
		log.Fatal(err)
	}
	res := wireResult{
		Name:         "wire_loopback_throughput",
		Meta:         meta(),
		Pipelined:    pipelined,
		Workers:      counts,
		Batches:      batches,
		LeasesPerSec: lps,
		Trials:       trials,
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
	}
	for wi, w := range counts {
		speedup := lps[wi][len(batches)-1] / lps[wi][0]
		res.BatchSpeedup = append(res.BatchSpeedup, speedup)
		for bi, b := range batches {
			fmt.Printf("workers=%-3d batch=%-3d  %9.0f leases/sec\n", w, b, lps[wi][bi])
		}
		fmt.Printf("workers=%-3d batch=%d/%d speedup %.1fx\n", w, batches[len(batches)-1], batches[0], speedup)
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	writeDoc(out, append(buf, '\n'))
	gateWire(baseline, &res)
}

// gateBatch is the batch-size column the regression gate compares, and
// gateHeadroom the fraction of the committed baseline the new run must
// reach.
const (
	gateBatch    = 16
	gateHeadroom = 0.80
)

// readWireBaseline loads the committed document the gate compares
// against; missing or unreadable baselines disable the gate (a fresh
// checkout has nothing to regress from).
func readWireBaseline(path string, gate bool) *wireResult {
	if !gate || path == "-" {
		return nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		log.Printf("gate: no committed baseline at %s, skipping (%v)", path, err)
		return nil
	}
	var res wireResult
	if err := json.Unmarshal(buf, &res); err != nil {
		log.Printf("gate: unreadable baseline at %s, skipping (%v)", path, err)
		return nil
	}
	return &res
}

// bestAtBatch returns the best leases/sec a document records in the
// given batch-size column (0 when the column is absent).
func bestAtBatch(res *wireResult, batch int) float64 {
	best := 0.0
	for bi, b := range res.Batches {
		if b != batch {
			continue
		}
		for _, row := range res.LeasesPerSec {
			if bi < len(row) {
				best = math.Max(best, row[bi])
			}
		}
	}
	return best
}

// gateWire fails the run when the fresh sweep's batch=16 throughput
// fell below gateHeadroom of the committed baseline. The new document
// is already on disk at this point, so a failing run still leaves its
// evidence for the trend dashboard.
func gateWire(baseline, fresh *wireResult) {
	if baseline == nil {
		return
	}
	was, now := bestAtBatch(baseline, gateBatch), bestAtBatch(fresh, gateBatch)
	if was <= 0 || now <= 0 {
		log.Printf("gate: no batch=%d column on both sides, skipping", gateBatch)
		return
	}
	if now < gateHeadroom*was {
		log.Fatalf("gate: batch=%d throughput regressed %.0f%%: %.0f → %.0f leases/sec (floor %.0f)",
			gateBatch, 100*(1-now/was), was, now, gateHeadroom*was)
	}
	fmt.Printf("gate: batch=%d throughput %.0f vs committed %.0f leases/sec (%.2fx) — ok\n",
		gateBatch, now, was, now/was)
}

// runShards sweeps the sharded engine over (workers × shards) and
// writes BENCH_shard.json. The measurement is free, so the columns
// isolate decision-path overhead: 1 shard is the unsharded engine
// (every trial under the global mutex), N shards fold only every
// mergeEvery completions.
func runShards(out string, trials int, counts, shardCounts []int) {
	lps := exp.ShardedThroughput(counts, shardCounts, trials, 0)
	res := shardResult{
		Name:         "sharded_selection_throughput",
		Meta:         meta(),
		Workers:      counts,
		Shards:       shardCounts,
		LeasesPerSec: lps,
		Trials:       trials,
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
	}
	for wi, w := range counts {
		speedup := lps[wi][len(shardCounts)-1] / lps[wi][0]
		res.ShardSpeedup = append(res.ShardSpeedup, speedup)
		for si, s := range shardCounts {
			fmt.Printf("workers=%-3d shards=%-2d  %9.0f leases/sec\n", w, s, lps[wi][si])
		}
		fmt.Printf("workers=%-3d shards=%d/%d speedup %.1fx\n", w, shardCounts[len(shardCounts)-1], shardCounts[0], speedup)
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	writeDoc(out, append(buf, '\n'))
}

// runTenants drives tenants × workersPerTenant clients against one
// multi-tenant server and writes BENCH_tenant.json. Aggregate
// leases/sec compares against BENCH_wire.json at the same total worker
// count; the fairness ratio is max/min of the per-tenant rates.
func runTenants(out string, tenants, workersPerTenant, batch, trials int) {
	aggregate, perTenant, err := tuned.MultiTenantThroughput(tenants, workersPerTenant, batch, trials)
	if err != nil {
		log.Fatal(err)
	}
	minRate, maxRate := perTenant[0].PerSec, perTenant[0].PerSec
	for _, tt := range perTenant[1:] {
		minRate = math.Min(minRate, tt.PerSec)
		maxRate = math.Max(maxRate, tt.PerSec)
	}
	res := tenantResult{
		Name:             "tenant_loopback_throughput",
		Meta:             meta(),
		Tenants:          tenants,
		WorkersPerTenant: workersPerTenant,
		Batch:            batch,
		LeasesPerSec:     aggregate,
		PerTenant:        perTenant,
		FairnessRatio:    maxRate / minRate,
		Trials:           trials,
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
	}
	for _, tt := range perTenant {
		fmt.Printf("tenant=%s  %9.0f leases/sec  (%d trials)\n", tt.Name, tt.PerSec, tt.Iterations)
	}
	fmt.Printf("tenants=%d workers/tenant=%d batch=%d  aggregate %9.0f leases/sec  fairness %.2fx\n",
		tenants, workersPerTenant, batch, aggregate, res.FairnessRatio)
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	writeDoc(out, append(buf, '\n'))
}

// runContextual compares feature-routed leasing against the plain wire
// path at the same fleet size and writes BENCH_context.json. The
// overhead ratio is contextual/baseline leases per second.
func runContextual(out string, workers, batch, trials int) {
	contextual, baseline, contexts, err := tuned.ContextualThroughput(workers, batch, trials)
	if err != nil {
		log.Fatal(err)
	}
	res := contextResult{
		Name:         "contextual_loopback_throughput",
		Meta:         meta(),
		Workers:      workers,
		Batch:        batch,
		LeasesPerSec: contextual,
		BaselinePS:   baseline,
		Overhead:     contextual / baseline,
		Contexts:     contexts,
		Trials:       trials,
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("workers=%-3d batch=%-3d  plain      %9.0f leases/sec\n", workers, batch, baseline)
	fmt.Printf("workers=%-3d batch=%-3d  contextual %9.0f leases/sec  (%.2fx, %d contexts)\n",
		workers, batch, contextual, res.Overhead, contexts)
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	writeDoc(out, append(buf, '\n'))
}

func parseInts(flagName, list string) []int {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("bad %s entry %q", flagName, f)
		}
		out = append(out, n)
	}
	return out
}

func writeDoc(out string, buf []byte) {
	if out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
