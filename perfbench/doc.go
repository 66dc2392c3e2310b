// Command perfbench is the repository benchmark: one program that runs
// a traffic mix against the distributed tuning service in a single
// process (server, engines and clients over loopback TCP), checks that
// the tuner's outputs are correct, and prints every metric by name with
// its unit. The last line of output is a JSON object with the keys
// correct, attempted, failed and metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics and the bound by
// which each end-to-end metric may worsen.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package with the local toolchain into
// $CARGO_TARGET_DIR (default .bench_build), where the run also keeps its
// tenant journals and span files. Tests of the benchmark's own checks:
// cd perfbench && go test .
//
// # What a run does
//
// A run repeats rounds until --seconds have passed (at least three).
// A round builds the service from scratch (the timed set-up), drives a
// closed loop — every caller waits for each reply before its next
// request — until a fixed budget of completed trials is reached, checks
// the tuner's state, and tears everything down. The budget, not the
// duration, is fixed, so heap and allocation figures compare across
// runs: live heap grows with every trial, because engines keep per-trial
// history as atune-serve's do. Every figure, latency percentiles
// included, is taken per round and reported as the median over rounds.
//
// Engines and servers are built the way atune-serve builds them: the
// same constructors, ε-greedy at 10%, 30 s lease TTL, history on,
// server options at their defaults. Where a closed loop holds more
// leases than the default -max-inflight of 64, the cap is raised to
// callers × batch (× shards), so no caller is refused for capacity and
// lease_fill measures the server, not the setting.
//
// The seed generates every input: each roster's algorithm names, the
// arms' costs, the tunable arms' optima and the feature vectors. The
// shape is fixed — six arms, two of them tunable, the winner tunable
// under the "cheap" class and fixed under the "dear" class, every other
// arm at least 1.3 times the winner — so each seed does the same kind
// of work and the winner checks can only fail if the tuner does.
//
// GOMAXPROCS is at most the CPU count, and no workload opens more than
// two connections, so the load stays within the machine.
//
// # Workloads
//
// pipelined-b16 is the v3 hot path. One tuned.Client with WithPipeline
// multiplexes 16 callers over one connection, each leasing and
// completing 16 trials per request against one plain engine without a
// journal. Client pipe, packed codec, socket, server dispatch and the
// core engine mutex do nearly all the work; the journal does none.
//
// durable-tenants is the only workload where checkpoint and tenant do
// work. A tenant server over a tenant.Registry with two tenants serves
// one pipelined connection per tenant, 8 callers each, batch 16. Each
// tenant is durable, with two selector shards and a snapshot every
// 1000 trials (atune-serve -tenants @specs.json -checkpoint dir, with
// shards 2, merge_every 32768 and snapshot_every 1000 in the specs).
// Before the first round an untimed pre-phase runs each tenant for 1900
// trials, folds them into the journal and stops without a final
// checkpoint. Every round starts from a copy of that directory, so its
// timed set-up is a warm restart: the registry rediscovers the tenants,
// each engine loads its snapshot, replays a journal tail of 900
// records and writes a fresh snapshot. The loop then runs the sharded
// lease path; its trials are journaled when the round's checks fold
// the shards, after the loop's timing ends.
//
// legacy-ctx-b1 uses the same layers differently: smallest frames, the
// JSON codec, the lockstep and pre-v3 paths, and contextual routing. A
// ctxtune engine built as atune-serve -contextual builds it serves two
// connections, one request in flight each, batch 1. The first is a
// lockstep tuned.Client (packed frames, feature class "cheap"). The
// second is a pre-v3 worker that sends Hello{Proto: 2} and JSON
// LeaseN/CompleteN/FailN frames through wire.WriteMsgV and ReadFrame,
// with feature class "dear": costs ×8, another winning arm, and 1 trial
// in 20 reported through FailN. Batching does not help here.
//
// # End-to-end metrics (--trace 0)
//
//	trials_per_s      1/s    trials completed or failed per second of a round's loop (set-up excluded)
//	lease_us_p50/p90  us     LeaseN call latency as the calling worker sees it
//	complete_us_p50/p90 us   CompleteN (or FailN) call latency as the worker sees it
//	cpu_us_per_trial  us     process user+sys CPU time (getrusage) of the loop, per trial
//	allocs_per_trial  count  heap allocations of the whole process during the loop, per trial
//	heap_live_mb      MB     live heap after a forced GC at the end of the loop, service still up
//	setup_s           s      from server construction until every client holds its first lease
//	                         batch; on durable-tenants this includes rediscovery and journal replay
//
// The tail is p90, not p99: on a shared 2-core VM p99 varied up to 2×
// from run to run. Request errors are not an end-to-end metric, because
// a healthy run has none and a metric that reads 0 has no relative
// bound: every refused, failed or dropped request is counted in the
// result's failed field and fails the run, and the traced run reports
// error_ratio.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates untraced and traced rounds. Traced rounds
// measure each layer from outside, by timing calls into its public
// surface: a tuned.Engine wrapper around the engine handed to
// tuned.NewServer, net.Conn wrappers on both sides (tuned.WithDialer for
// clients, a net.Listener passed to Server.Serve for the server), and
// spans kept in memory and written to <work>/spans-<workload>.jsonl at
// the end. The engine wrapper exposes exactly the optional methods of
// the engine it wraps (LeaseNFor/ContextCount on ctxtune,
// Shards/LeaseNOn on sharded), so the server takes the same path under
// trace; a traced round also checks that the clients still write the
// protocol versions (and on v3, the packed frames) they write untraced,
// and runs every correctness check. The wire, nominal and checkpoint
// rows come from micro-runs after the rounds, which call the layer's
// public functions on the frames, selectors and journal records the
// workload produced. A layer a workload does not exercise reports 0.
//
//	Layer        Metrics                                         Should move                   On
//	tuned client tuned.client.lease_fill (granted/asked),        trials_per_s                  pipelined-b16
//	             tuned.client.requests_per_trial
//	tuned server tuned.server.turnaround_us_p50/_p90 (read       lease_us_p50, complete_us_p50 legacy-ctx-b1
//	             return to write start on a lockstep conn)
//	socket       socket.{client,server}.{reads,writes}_per_trial, cpu_us_per_trial,           pipelined-b16,
//	             socket.bytes_{in,out}_per_trial (client view),   trials_per_s                 legacy-ctx-b1
//	             socket.{client,server}.write_us_per_trial
//	wire         wire.packed.{lease_encode,trials_encode,         cpu_us_per_trial              packed: pipelined-b16;
//	             trials_decode,complete_encode,complete_decode}_ns,                             JSON: legacy-ctx-b1
//	             wire.frame_read_ns, wire.packed.allocs_per_frame,
//	             wire.json.{trials_decode,complete_decode}_ns,
//	             wire.json.allocs_per_frame
//	core         core.{lease,complete}_us_p50/_p99,                trials_per_s, allocs_per_trial pipelined-b16
//	             core.us_per_trial, core.busy_share (Σ engine
//	             call time / wall; above 1 when calls overlap),
//	             core.dropped
//	nominal      nominal.select_ns, nominal.report_ns              core.us_per_trial →           pipelined-b16
//	                                                               trials_per_s
//	checkpoint   checkpoint.journal_bytes_per_trial,               setup_s (journal replay and    durable-tenants
//	             checkpoint.snapshots_per_ktrial,                  the resume snapshot)
//	             checkpoint.append_us, checkpoint.append_buffered_us,
//	             checkpoint.resume_ms (core.EngineSpec.Resume on a
//	             copy of the round's tenant directory)
//	ctxtune      ctxtune.contexts, ctxtune.lease_for_us_p50,       lease_us_p50                  legacy-ctx-b1
//	             ctxtune.complete_us_p50
//	tenant       tenant.fairness (max/min per-tenant rate),        trials_per_s, setup_s         durable-tenants
//	             tenant.restarts
//	runtime      runtime.alloc_bytes_per_trial,                    cpu_us_per_trial,             all
//	             runtime.gc_per_mtrial (from the untraced rounds)  heap_live_mb
//
// trace.overhead is the traced rounds' median trials_per_s over the
// untraced rounds'; error_ratio is failed over attempted requests.
//
// # Correctness checks
//
// A run fails, printing correct=false and exiting 1, when a round:
//   - picks another arm than the cost model's best — the best
//     observation and the most-selected arm on pipelined-b16 and per
//     tenant, the best observation per feature class on legacy-ctx-b1;
//   - leaves engine accounting unbalanced (Leased differs from
//     Completed, Failed, Expired and InFlight summed) or completes less
//     than its budget;
//   - discovers fewer than 2 contexts on legacy-ctx-b1;
//   - resumes fewer tenants than it has on durable-tenants;
//   - sees any request fail, be refused or have reported trials dropped.
//
// # Where the journal lives
//
// The tenants' journals live under the work directory inside the
// checkout, not on tmpfs, because the benchmark reads and writes
// nothing outside its checkout; the run's metadata line names that
// directory's filesystem. On a shared 2-core VM's ext4 disk an fsync
// takes 70 µs to several ms, varying with the host's load.
// atune-serve's defaults — one shard, a snapshot every 100 trials — pay
// an fsync per trial, which made run-to-run throughput spread 0.8
// (quartile distance over median); folding every 256 trials still left
// it at 0.7 when the host was busy. So the timed loop does no fsync: journal writes are timed
// by the checkpoint micro-runs instead (append_us, append_buffered_us,
// resume_ms), and set-up, which resumes and snapshots, still touches
// the disk. Compare its figures only between runs on the same
// filesystem.
//
// # GOMAXPROCS
//
// pipelined-b16 and durable-tenants run at GOMAXPROCS = CPU count:
// their pipelined callers and server goroutines keep both Ps busy.
// legacy-ctx-b1 runs at GOMAXPROCS=1, where its lockstep connections
// measured both cheaper and steadier. The metadata line reports the
// value.
package main
