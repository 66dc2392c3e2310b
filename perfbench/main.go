package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric names a reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the service sees, reported by
// untraced runs.
var endToEnd = []metric{
	{"trials_per_s", "1/s"},
	{"lease_us_p50", "us"},
	{"lease_us_p90", "us"},
	{"complete_us_p50", "us"},
	{"complete_us_p90", "us"},
	{"cpu_us_per_trial", "us"},
	{"allocs_per_trial", "count"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures. A layer a workload does not
// exercise reports 0.
var perLayer = []metric{
	{"tuned.client.lease_fill", "ratio"},
	{"tuned.client.requests_per_trial", "count"},
	{"tuned.server.turnaround_us_p50", "us"},
	{"tuned.server.turnaround_us_p90", "us"},
	{"socket.client.reads_per_trial", "count"},
	{"socket.client.writes_per_trial", "count"},
	{"socket.server.reads_per_trial", "count"},
	{"socket.server.writes_per_trial", "count"},
	{"socket.bytes_in_per_trial", "B"},
	{"socket.bytes_out_per_trial", "B"},
	{"socket.client.write_us_per_trial", "us"},
	{"socket.server.write_us_per_trial", "us"},
	{"wire.packed.lease_encode_ns", "ns"},
	{"wire.packed.trials_encode_ns", "ns"},
	{"wire.packed.trials_decode_ns", "ns"},
	{"wire.packed.complete_encode_ns", "ns"},
	{"wire.packed.complete_decode_ns", "ns"},
	{"wire.frame_read_ns", "ns"},
	{"wire.packed.allocs_per_frame", "count"},
	{"wire.json.trials_decode_ns", "ns"},
	{"wire.json.complete_decode_ns", "ns"},
	{"wire.json.allocs_per_frame", "count"},
	{"core.lease_us_p50", "us"},
	{"core.lease_us_p99", "us"},
	{"core.complete_us_p50", "us"},
	{"core.complete_us_p99", "us"},
	{"core.us_per_trial", "us"},
	{"core.busy_share", "ratio"},
	{"core.dropped", "count"},
	{"nominal.select_ns", "ns"},
	{"nominal.report_ns", "ns"},
	{"checkpoint.journal_bytes_per_trial", "B"},
	{"checkpoint.snapshots_per_ktrial", "count"},
	{"checkpoint.append_us", "us"},
	{"checkpoint.append_buffered_us", "us"},
	{"checkpoint.resume_ms", "ms"},
	{"ctxtune.contexts", "count"},
	{"ctxtune.lease_for_us_p50", "us"},
	{"ctxtune.complete_us_p50", "us"},
	{"tenant.fairness", "ratio"},
	{"tenant.restarts", "count"},
	{"runtime.alloc_bytes_per_trial", "B"},
	{"runtime.gc_per_mtrial", "count"},
	{"trace.overhead", "ratio"},
	{"error_ratio", "ratio"},
}

// metrics holds named figures.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// minRounds is the fewest rounds of each kind a run makes, however
// short --seconds is: medians need several.
const minRounds = 3

// spanCapacity bounds the spans one traced round keeps in memory; it
// exceeds what the largest round records.
const spanCapacity = 1 << 17

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "pipelined-b16, durable-tenants or legacy-ctx-b1")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: rosters, costs and feature classes derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measure for this many seconds (at least 3 rounds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for journals and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) error {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.work)
	if err != nil {
		return err
	}
	defer w.cleanup()
	// Load stays within the machine: never more threads running Go code
	// than CPUs.
	runtime.GOMAXPROCS(min(w.procs(), runtime.NumCPU()))
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"journal_fs": fsType(cfg.work),
	}
	mj, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mj)
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	var plain, traced []*roundResult
	var last *tracer
	start := time.Now()
	for len(plain) < minRounds || (cfg.trace && len(traced) < minRounds) || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		r, err := runRound(w, nil)
		if r != nil {
			plain = append(plain, r)
		}
		if err != nil {
			return fail(plain, traced, err)
		}
		if !cfg.trace {
			continue
		}
		last = newTracer(spanCapacity)
		r, err = runRound(w, last)
		if r != nil {
			traced = append(traced, r)
		}
		if err != nil {
			return fail(plain, traced, fmt.Errorf("traced round: %w", err))
		}
	}

	out := metrics{}
	var list []metric
	if cfg.trace {
		list = perLayer
		layerMetrics(plain, traced, out)
		if err := w.micro(last, out); err != nil {
			return fail(plain, traced, fmt.Errorf("micro-runs: %w", err))
		}
		if err := last.writeSpans(filepath.Join(cfg.work, "spans-"+cfg.workload+".jsonl")); err != nil {
			return err
		}
	} else {
		list = endToEnd
		endToEndMetrics(plain, out)
	}
	res := result{Correct: true, Metrics: map[string]metricJSON{}}
	res.Attempted, res.Failed = requests(plain, traced)
	for _, m := range list {
		res.Metrics[m.name] = metricJSON{out[m.name], m.unit}
		fmt.Printf("metric %-36s %14.6g %s\n", m.name, out[m.name], m.unit)
	}
	fmt.Printf("rounds untraced=%d traced=%d; per round: trials=%d lease samples=%d complete samples=%d\n",
		len(plain), len(traced), plain[0].trials, plain[0].leaseN, plain[0].completeN)
	return printResult(res)
}

// fail prints a result marked incorrect, then returns err.
func fail(plain, traced []*roundResult, err error) error {
	res := result{Correct: false, Metrics: map[string]metricJSON{}}
	res.Attempted, res.Failed = requests(plain, traced)
	res.Attempted = max(res.Attempted, 1)
	printResult(res)
	return err
}

func printResult(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// roundResult is one round's measurement: set-up, then the closed loop
// over a fixed trial budget.
type roundResult struct {
	setup, wall         time.Duration
	trials              int     // completed + failed
	latency             metrics // per-round latency percentiles, us
	leaseN, completeN   int     // their sample counts
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcs                 uint32
	heapLive            int64 // bytes
	attempted, failed   int
	asked, granted      int
	layers              metrics // traced rounds only
}

// runRound measures one round. Its result carries the request counts
// even when it fails.
func runRound(w workload, tr *tracer) (*roundResult, error) {
	if err := w.stage(); err != nil {
		return nil, fmt.Errorf("stage: %w", err)
	}
	runtime.GC()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	t0 := time.Now()
	e, err := w.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	r := &roundResult{setup: time.Since(t0)}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, f := range e.fleets {
		wg.Add(1)
		go func(f *fleet) {
			defer wg.Done()
			f.run(start)
		}(f)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	// Two collections, here and before set-up: the first moves
	// sync.Pool contents to the victim cache, the second frees them, so
	// only state the service holds on to counts as live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	r.mallocs, r.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	r.gcs = ms1.NumGC - ms0.NumGC
	// Measured against the heap before set-up, so what the benchmark
	// keeps from earlier rounds does not count.
	r.heapLive = int64(ms2.HeapAlloc) - int64(base.HeapAlloc)
	var loopErr error
	var lease, complete []time.Duration
	for _, f := range e.fleets {
		t := f.totals()
		r.trials += t.completed + t.failedT
		lease = append(lease, t.lease...)
		complete = append(complete, t.complete...)
		r.attempted += t.attempted
		r.failed += t.failed
		r.asked += t.asked
		r.granted += t.granted
		if loopErr == nil {
			loopErr = t.err
		}
	}
	// Rounds keep their percentiles, not their samples: samples kept
	// across rounds would grow the live heap, and with it the GC pace,
	// as a run goes on.
	r.leaseN, r.completeN = len(lease), len(complete)
	r.latency = metrics{
		"lease_us_p50": us(quantile(lease, 0.5)), "lease_us_p90": us(quantile(lease, 0.9)),
		"complete_us_p50": us(quantile(complete, 0.5)), "complete_us_p90": us(quantile(complete, 0.9)),
	}
	if loopErr != nil {
		return r, loopErr
	}
	if r.failed > 0 {
		return r, fmt.Errorf("%d of %d requests failed or were refused", r.failed, r.attempted)
	}
	if err := e.check(); err != nil {
		return r, fmt.Errorf("check: %w", err)
	}
	if tr != nil {
		r.layers = traceLayers(r, tr)
		if e.layers != nil {
			if err := e.layers(r.layers); err != nil {
				return r, fmt.Errorf("layers: %w", err)
			}
		}
		if n := tr.dropped.Load(); n > 0 {
			return r, fmt.Errorf("span buffer overflowed by %d spans", n)
		}
	}
	return r, nil
}

func (r *roundResult) tps() float64 { return float64(r.trials) / r.wall.Seconds() }

// perRound returns the median over rounds of a per-round figure.
func perRound(rs []*roundResult, f func(*roundResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return medianF(v)
}

func endToEndMetrics(rs []*roundResult, out metrics) {
	// Latency percentiles are taken per round, then the median over
	// rounds, like every other figure: a burst of host interference
	// slows whole rounds, and the median keeps it out.
	for _, k := range []string{"lease_us_p50", "lease_us_p90", "complete_us_p50", "complete_us_p90"} {
		out.set(k, perRound(rs, func(r *roundResult) float64 { return r.latency[k] }))
	}
	out.set("trials_per_s", perRound(rs, (*roundResult).tps))
	out.set("cpu_us_per_trial", perRound(rs, func(r *roundResult) float64 { return us(r.cpu) / float64(r.trials) }))
	out.set("allocs_per_trial", perRound(rs, func(r *roundResult) float64 { return float64(r.mallocs) / float64(r.trials) }))
	out.set("heap_live_mb", perRound(rs, func(r *roundResult) float64 { return float64(r.heapLive) / (1 << 20) }))
	out.set("setup_s", perRound(rs, func(r *roundResult) float64 { return r.setup.Seconds() }))
}

// layerMetrics derives the per-layer figures: each traced round's
// counters and spans give one value per metric, reported as the median
// over traced rounds; runtime figures come from the untraced rounds.
func layerMetrics(plain, traced []*roundResult, out metrics) {
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		out.set(k, medianF(v))
	}
	out.set("runtime.alloc_bytes_per_trial", perRound(plain, func(r *roundResult) float64 { return float64(r.allocBytes) / float64(r.trials) }))
	out.set("runtime.gc_per_mtrial", perRound(plain, func(r *roundResult) float64 { return float64(r.gcs) * 1e6 / float64(r.trials) }))
	out.set("trace.overhead", perRound(traced, (*roundResult).tps)/perRound(plain, (*roundResult).tps))
	attempted, failed := requests(plain, traced)
	out.set("error_ratio", float64(failed)/float64(attempted))
}

// traceLayers reads one traced round's counters and spans.
func traceLayers(r *roundResult, t *tracer) metrics {
	n := float64(r.trials)
	m := metrics{}
	m.set("tuned.client.lease_fill", float64(r.granted)/float64(r.asked))
	m.set("tuned.client.requests_per_trial", float64(t.client.frames.Load()-t.client.hellos.Load())/n)
	if turn := t.durations(spTurnaround); len(turn) > 0 {
		m.set("tuned.server.turnaround_us_p50", us(quantile(turn, 0.5)))
		m.set("tuned.server.turnaround_us_p90", us(quantile(turn, 0.9)))
	}
	m.set("socket.client.reads_per_trial", float64(t.client.reads.Load())/n)
	m.set("socket.client.writes_per_trial", float64(t.client.writes.Load())/n)
	m.set("socket.server.reads_per_trial", float64(t.server.reads.Load())/n)
	m.set("socket.server.writes_per_trial", float64(t.server.writes.Load())/n)
	m.set("socket.bytes_in_per_trial", float64(t.client.bytesIn.Load())/n)
	m.set("socket.bytes_out_per_trial", float64(t.client.bytesOut.Load())/n)
	m.set("socket.client.write_us_per_trial", float64(t.client.writeNs.Load())/1e3/n)
	m.set("socket.server.write_us_per_trial", float64(t.server.writeNs.Load())/1e3/n)
	if lease := t.durations(spEngineLease); len(lease) > 0 {
		complete := t.durations(spEngineComplete)
		busy := t.sum(spEngineLease, spEngineComplete, spEngineFail)
		m.set("core.lease_us_p50", us(quantile(lease, 0.5)))
		m.set("core.lease_us_p99", us(quantile(lease, 0.99)))
		m.set("core.complete_us_p50", us(quantile(complete, 0.5)))
		m.set("core.complete_us_p99", us(quantile(complete, 0.99)))
		m.set("core.us_per_trial", us(busy)/n)
		m.set("core.busy_share", busy.Seconds()/r.wall.Seconds())
		m.set("core.dropped", float64(t.engineDropped.Load()))
		if lf := t.durations(spEngineLeaseFor); len(lf) > 0 {
			m.set("ctxtune.lease_for_us_p50", us(quantile(lf, 0.5)))
			m.set("ctxtune.complete_us_p50", us(quantile(complete, 0.5)))
		}
	}
	return m
}

// requests totals the requests attempted and failed over all rounds.
func requests(rs ...[]*roundResult) (attempted, failed int) {
	for _, set := range rs {
		for _, r := range set {
			attempted += r.attempted
			failed += r.failed
		}
	}
	return attempted, failed
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)) + 0.5)
	return s[min(max(i-1, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir, where the tenants' journals
// live: fsync cost, and with it durable-tenants, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
