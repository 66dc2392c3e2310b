package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/tenant"
	"repro/internal/tuned"
)

// Settings atune-serve applies by default and the workloads keep.
const (
	leaseTTL      = 30 * time.Second // -lease-timeout
	epsilonPct    = 10.0             // -epsilon
	snapshotEvery = 100              // -every
	defaultMaxInF = 64               // -max-inflight
)

// Per-workload shapes and trial budgets. A budget counts completed
// trials per round and is the same on every run, so heap and
// allocation figures compare across runs.
const (
	pipeCallers, pipeBatch, pipeBudget = 16, 16, 16000

	tenantCount                              = 2
	tenantCallers, tenantBatch, tenantBudget = 8, 16, 15000 // budget per tenant
	// A sharded tenant journals its trials when a shard folds them into
	// the engine. Folding every tenantMergeEvery trials, more than a
	// round's budget, keeps journal fsyncs out of the timed loop: the
	// round's trials are journaled by the fold its checks trigger (see
	// doc.go, "Where the journal lives").
	tenantShards, tenantMergeEvery = 2, 1 << 15
	tenantSnapshotEvery            = 1000
	// tenantPrephase trials per tenant run before the first round and
	// are folded into the journal at its end; the last snapshot is at
	// 1000, so every warm restart replays a journal tail of 900
	// records, not a snapshot alone.
	tenantPrephase = 1900

	legacyBudget    = 3000 // per connection
	legacyFailEvery = 20   // the v2 worker fails 1 trial in 20
)

// env is one round's running system: a server, its clients, and the
// checks and readings to take once the clients are done.
type env struct {
	fleets []*fleet
	check  func() error
	layers func(out metrics) error // per-layer readings of a traced round (may be nil)
	close  func()
}

// workload builds the system a round measures.
type workload interface {
	// prepare runs once per run, untimed.
	prepare() error
	// stage runs before each round's timed set-up, untimed.
	stage() error
	// setup is the timed set-up: construct the server, connect the
	// clients, and take every client's first lease batch. tr is nil on
	// untraced rounds.
	setup(tr *tracer) (*env, error)
	// micro runs the layer micro-runs after the traced rounds.
	micro(tr *tracer, out metrics) error
	cleanup()
	// procs is the workload's GOMAXPROCS, capped at the CPU count.
	procs() int
}

func newWorkload(name string, seed int64, work string) (workload, error) {
	switch name {
	case "pipelined-b16":
		return &pipelined{seed: seed, m: newModel(seed)}, nil
	case "durable-tenants":
		return newTenants(seed, work), nil
	case "legacy-ctx-b1":
		return &legacy{seed: seed, m: newModel(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pipelined-b16, durable-tenants or legacy-ctx-b1)", name)
}

// serve starts srv on a loopback listener, traced when tr is set, and
// returns the address and a stop function that waits for Serve.
func serve(srv *tuned.Server, tr *tracer) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var l net.Listener = ln
	if tr != nil {
		l = tracedListener{ln, tr}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// wrap hands the server the engine, behind the tracing wrapper on a
// traced round.
func wrap(eng tuned.Engine, tr *tracer) (tuned.Engine, error) {
	if tr == nil {
		return eng, nil
	}
	w, err := tr.wrapEngine(eng)
	if err != nil {
		return nil, err
	}
	return w, sameExtensions(eng, w)
}

// serverOpts are atune-serve's server options at their defaults.
func serverOpts() []tuned.ServerOption {
	return []tuned.ServerOption{tuned.WithTrialTarget(0), tuned.WithSessionCap(0),
		tuned.WithGlobalCap(0), tuned.WithRefAlgo(0)}
}

func clientOpts(tr *tracer, opts ...tuned.ClientOption) []tuned.ClientOption {
	if tr != nil {
		opts = append(opts, tuned.WithDialer(tr.dialer))
	}
	return opts
}

// ---- pipelined-b16 ----

type pipelined struct {
	seed int64
	m    *model
}

func (w *pipelined) prepare() error { return nil }
func (w *pipelined) stage() error   { return nil }
func (w *pipelined) cleanup()       {}
func (w *pipelined) procs() int     { return runtime.NumCPU() }

func (w *pipelined) setup(tr *tracer) (*env, error) {
	// atune-serve's plain engine; -max-inflight is raised to what the
	// closed loop holds, so no caller is ever refused for capacity.
	eng, err := core.NewShardedEngine(w.m.algos, nominal.NewEpsilonGreedy(epsilonPct/100), nil, w.seed,
		core.WithLeaseTimeout(leaseTTL), core.WithMaxInFlight(pipeCallers*pipeBatch), core.WithShards(1))
	if err != nil {
		return nil, err
	}
	served, err := wrap(eng, tr)
	if err != nil {
		return nil, err
	}
	srv := tuned.NewServer(served, serverOpts()...)
	addr, stop, err := serve(srv, tr)
	if err != nil {
		return nil, err
	}
	c, err := tuned.Dial(addr, clientOpts(tr, tuned.WithPipeline(0))...)
	if err != nil {
		stop()
		return nil, err
	}
	f := &fleet{name: "pipelined", l: clientLeaser{c}, m: w.m, class: &w.m.cheap, callers: pipeCallers,
		batch: pipeBatch, bud: newBudget(pipeBudget), tr: tr, seed: w.seed}
	e := &env{
		fleets: []*fleet{f},
		close:  func() { c.Close(); stop() },
	}
	e.check = func() error {
		if err := checkAccounting("engine", eng.Stats(), pipeBudget); err != nil {
			return err
		}
		algo, _, _ := eng.Best()
		if err := checkWinner("best observation", algo, w.m.cheap.winner, w.m.names); err != nil {
			return err
		}
		if err := checkWinner("most selected", argmax(eng.Counts()), w.m.cheap.winner, w.m.names); err != nil {
			return err
		}
		if err := checkVersions(tr, 3); err != nil {
			return err
		}
		return checkPacked(tr)
	}
	if err := f.leaseFirst(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (w *pipelined) micro(tr *tracer, out metrics) error {
	if err := microPacked(tr, out); err != nil {
		return err
	}
	microNominal(func() nominal.Selector { return nominal.NewEpsilonGreedy(epsilonPct / 100) }, w.m, &w.m.cheap, out)
	return nil
}

// ---- legacy-ctx-b1 ----

type legacy struct {
	seed int64
	m    *model
}

func (w *legacy) prepare() error { return nil }
func (w *legacy) stage() error   { return nil }
func (w *legacy) cleanup()       {}

// procs is 1 for legacy-ctx-b1: with one request in flight per
// connection nothing runs in parallel for long, and a second P only
// adds idle-P wake-ups: on a 2-core VM, CPU per trial measured 73 µs
// at 2 against 54 µs at 1, with three times the run-to-run spread.
func (w *legacy) procs() int { return 1 }

// ctxSelector is atune-serve -contextual's selector: windowed ε-greedy,
// so evidence imported from the global fold can age out.
func ctxSelector() nominal.Selector {
	return &nominal.EpsilonGreedy{Eps: epsilonPct / 100, RecencyWindow: 25}
}

func (w *legacy) setup(tr *tracer) (*env, error) {
	ceng, err := ctxtune.New(ctxtune.Config{
		Algos:       w.m.algos,
		Selector:    ctxSelector,
		Seed:        w.seed,
		Partitioner: ctxtune.NewTree(ctxtune.DefaultBuckets, ctxtune.DefaultMinSamples, 0),
		Every:       snapshotEvery,
		Opts:        []core.Option{core.WithLeaseTimeout(leaseTTL), core.WithMaxInFlight(defaultMaxInF)},
	})
	if err != nil {
		return nil, err
	}
	served, err := wrap(ceng, tr)
	if err != nil {
		ceng.Close()
		return nil, err
	}
	if tr != nil {
		tr.lockstep = true // both connections keep one request in flight
	}
	srv := tuned.NewServer(served, serverOpts()...)
	addr, stop, err := serve(srv, tr)
	if err != nil {
		ceng.Close()
		return nil, err
	}
	var closers []io.Closer
	e := &env{close: func() {
		for _, c := range closers {
			c.Close()
		}
		stop()
		ceng.Close()
	}}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	// Lockstep v3 client: no WithPipeline, packed frames, "cheap" inputs.
	c, err := tuned.Dial(addr, clientOpts(tr, tuned.WithFeatures(w.m.cheap.feats))...)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, c)
	dial := net.DialTimeout
	if tr != nil {
		dial = tr.dialer
	}
	jw, err := dialJSONWorker(addr, w.m.dear.feats, dial)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, jw)
	e.fleets = []*fleet{
		{name: "cheap-v3", l: clientLeaser{c}, m: w.m, class: &w.m.cheap, callers: 1, batch: 1,
			bud: newBudget(legacyBudget), tr: tr, seed: w.seed},
		{name: "dear-v2", l: jw, m: w.m, class: &w.m.dear, callers: 1, batch: 1, failEvery: legacyFailEvery,
			bud: newBudget(legacyBudget), tr: tr, seed: w.seed + 1},
	}
	e.check = func() error {
		if err := checkAccounting("contextual engine", ceng.Stats(), 2*legacyBudget); err != nil {
			return err
		}
		for _, cl := range []*class{&w.m.cheap, &w.m.dear} {
			algo, _, _ := ceng.BestFor(cl.feats)
			if err := checkWinner(cl.name+" class best observation", algo, cl.winner, w.m.names); err != nil {
				return err
			}
		}
		if n := ceng.ContextCount(); n < 2 {
			return fmt.Errorf("contextual engine discovered %d context(s), want ≥ 2", n)
		}
		return checkVersions(tr, 2, 3)
	}
	e.layers = func(out metrics) error {
		out.set("ctxtune.contexts", float64(ceng.ContextCount()))
		return nil
	}
	for _, f := range e.fleets {
		if err := f.leaseFirst(); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

func (w *legacy) micro(tr *tracer, out metrics) error {
	if err := microPacked(tr, out); err != nil {
		return err
	}
	if err := microJSON(tr, out); err != nil {
		return err
	}
	microNominal(ctxSelector, w.m, &w.m.cheap, out)
	return nil
}

// ---- durable-tenants ----

type tenants struct {
	seed     int64
	models   []*model
	specs    []tenant.Spec
	root     string // per-run scratch root
	pristine string // tenant directories as the pre-phase left them
	live     string // the current round's copy
	before   []int  // newest snapshot generation per tenant before the round
	restarts int
}

func newTenants(seed int64, work string) *tenants {
	w := &tenants{seed: seed, root: filepath.Join(work, fmt.Sprintf("tenants-%d", os.Getpid()))}
	for i := 0; i < tenantCount; i++ {
		m := newModel(seed*int64(tenantCount+1) + int64(i))
		w.models = append(w.models, m)
		w.specs = append(w.specs, tenant.Spec{
			Name:     fmt.Sprintf("tenant-%d", i),
			Workload: fmt.Sprintf("roster-%d", i),
			Selector: fmt.Sprintf("egreedy:%g", epsilonPct),
			Engine: core.EngineSpec{Seed: seed, Shards: tenantShards, MergeEvery: tenantMergeEvery,
				LeaseTimeoutMS: leaseTTL.Milliseconds(), MaxInFlight: tenantCallers * tenantBatch * tenantShards,
				SnapshotEvery: tenantSnapshotEvery},
		})
	}
	w.pristine = filepath.Join(w.root, "pristine")
	w.live = filepath.Join(w.root, "live")
	return w
}

// roster resolves the generated rosters for the registry.
func (w *tenants) roster(name string) ([]core.Algorithm, error) {
	for i, s := range w.specs {
		if s.Workload == name {
			return w.models[i].algos, nil
		}
	}
	return nil, fmt.Errorf("unknown roster %q", name)
}

// prepare is the untimed pre-phase: a cold registry runs each tenant
// for tenantPrephase trials and is shut down without a final
// checkpoint, leaving a snapshot plus a journal tail to resume from.
func (w *tenants) prepare() error {
	if err := os.MkdirAll(w.root, 0o755); err != nil {
		return err
	}
	e, reg, err := w.start(w.pristine, nil, tenantPrephase)
	if err != nil {
		return err
	}
	defer e.close()
	for i, f := range e.fleets {
		f.run(time.Now())
		if t := f.totals(); t.err != nil {
			return fmt.Errorf("pre-phase: %w", t.err)
		}
		eng, _, release, err := reg.Acquire(w.specs[i].Name)
		if err != nil {
			return err
		}
		eng.Flush()
		release()
	}
	return nil
}

func (w *tenants) stage() error {
	if err := os.RemoveAll(w.live); err != nil {
		return err
	}
	if err := copyDir(w.pristine, w.live); err != nil {
		return err
	}
	w.before = w.generations(w.live)
	return nil
}

func (w *tenants) cleanup() { os.RemoveAll(w.root) }

func (w *tenants) procs() int { return runtime.NumCPU() }

func (w *tenants) setup(tr *tracer) (*env, error) {
	e, _, err := w.start(w.live, tr, tenantBudget)
	return e, err
}

// start brings up a tenant server over root — rediscovering and
// resuming tenants left there — connects one pipelined client per
// tenant and takes each client's first batch.
func (w *tenants) start(root string, tr *tracer, perTenant int) (*env, *tenant.Registry, error) {
	reg, err := tenant.NewRegistry(tenant.Config{Root: root, Roster: w.roster})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range w.specs {
		if err := reg.Register(s); err != nil {
			return nil, nil, err
		}
	}
	srv := tuned.NewTenantServer(reg, serverOpts()...)
	addr, stop, err := serve(srv, tr)
	if err != nil {
		return nil, nil, err
	}
	var clients []*tuned.Client
	e := &env{close: func() {
		for _, c := range clients {
			c.Close()
		}
		stop()
	}}
	for i, s := range w.specs {
		c, err := tuned.Dial(addr, clientOpts(tr, tuned.WithPipeline(0), tuned.WithTenant(s.Name))...)
		if err != nil {
			e.close()
			return nil, nil, err
		}
		clients = append(clients, c)
		e.fleets = append(e.fleets, &fleet{name: s.Name, l: clientLeaser{c}, m: w.models[i], class: &w.models[i].cheap,
			callers: tenantCallers, batch: tenantBatch, bud: newBudget(perTenant), tr: tr, seed: w.seed + int64(i)})
	}
	e.check = func() error {
		restarts := 0
		for _, in := range reg.Snapshot() {
			restarts += int(in.Restarts)
		}
		w.restarts = restarts
		if root == w.live && restarts != tenantCount {
			return fmt.Errorf("%d of %d tenants resumed from their journal", restarts, tenantCount)
		}
		for i, s := range w.specs {
			eng, _, release, err := reg.Acquire(s.Name)
			if err != nil {
				return err
			}
			st, counts := eng.Stats(), eng.Counts()
			algo, _, _ := eng.Best()
			release()
			if err := checkAccounting(s.Name, st, perTenant); err != nil {
				return err
			}
			if err := checkWinner(s.Name+" best observation", algo, w.models[i].cheap.winner, w.models[i].names); err != nil {
				return err
			}
			if err := checkWinner(s.Name+" most selected", argmax(counts), w.models[i].cheap.winner, w.models[i].names); err != nil {
				return err
			}
		}
		if err := checkVersions(tr, 3); err != nil {
			return err
		}
		return checkPacked(tr)
	}
	e.layers = func(out metrics) error {
		lo, hi := math.Inf(1), 0.0
		for _, f := range e.fleets {
			t := f.totals()
			rate := float64(t.completed+t.failedT) / f.finished.Seconds()
			lo, hi = math.Min(lo, rate), math.Max(hi, rate)
		}
		out.set("tenant.fairness", hi/lo)
		out.set("tenant.restarts", float64(w.restarts))
		return w.checkpointLayers(root, w.before, e.fleets, out)
	}
	for _, f := range e.fleets {
		if err := f.leaseFirst(); err != nil {
			e.close()
			return nil, nil, err
		}
	}
	return e, reg, nil
}

func (w *tenants) ckptDir(root string, i int) string {
	return filepath.Join(root, w.specs[i].Name, "ckpt")
}

// generations returns each tenant's newest snapshot generation.
func (w *tenants) generations(root string) []int {
	out := make([]int, len(w.specs))
	for i := range w.specs {
		if g := checkpoint.Generations(w.ckptDir(root, i)); len(g) > 0 {
			out[i] = g[len(g)-1]
		}
	}
	return out
}

// checkpointLayers reads the journal and snapshot files the round left
// behind, and times a resume from a copy of each tenant's directory.
func (w *tenants) checkpointLayers(root string, before []int, fleets []*fleet, out metrics) error {
	var walBytes, records, snaps, trials float64
	var resumes []time.Duration
	for i := range w.specs {
		dir := w.ckptDir(root, i)
		for _, g := range checkpoint.JournalGenerations(dir) {
			path := checkpoint.WalPath(dir, g)
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			recs, err := checkpoint.ReadJournal(path)
			if err != nil {
				return err
			}
			walBytes += float64(fi.Size())
			records += float64(len(recs))
		}
		// Snapshots written this round, from the generation numbers on
		// disk: the advance of the newest generation over the spacing
		// between the two newest.
		if g := checkpoint.Generations(dir); len(g) >= 2 {
			step := g[len(g)-1] - g[len(g)-2]
			snaps += float64(g[len(g)-1]-before[i]) / float64(step)
		}
		t := fleets[i].totals()
		trials += float64(t.completed + t.failedT)
		d, err := w.timeResume(i, dir)
		if err != nil {
			return err
		}
		resumes = append(resumes, d...)
	}
	if records > 0 {
		out.set("checkpoint.journal_bytes_per_trial", walBytes/records)
	}
	out.set("checkpoint.snapshots_per_ktrial", snaps*1000/trials)
	out.set("checkpoint.resume_ms", ms(median(resumes)))
	return nil
}

// resumeReps is how many times each tenant's directory is resumed.
const resumeReps = 3

// timeResume resumes tenant i's engine from fresh copies of dir through
// core.EngineSpec.Resume, as the registry does on a warm restart.
func (w *tenants) timeResume(i int, dir string) ([]time.Duration, error) {
	var out []time.Duration
	for rep := 0; rep < resumeReps; rep++ {
		cp := filepath.Join(w.root, fmt.Sprintf("resume-%d-%d", i, rep))
		if err := copyDir(dir, cp); err != nil {
			return nil, err
		}
		sel, err := nominal.NewByName(w.specs[i].Selector)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, err = w.specs[i].Engine.Resume(w.models[i].algos, sel, nil, cp)
		out = append(out, time.Since(t0))
		os.RemoveAll(cp)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *tenants) micro(tr *tracer, out metrics) error {
	if err := microPacked(tr, out); err != nil {
		return err
	}
	sel := func() nominal.Selector {
		s, _ := nominal.NewByName(w.specs[0].Selector) // validated by Register
		return s
	}
	microNominal(sel, w.models[0], &w.models[0].cheap, out)
	return microJournal(w.ckptDir(w.live, 0), filepath.Join(w.root, "journal-micro"), out)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("copyDir: not a regular file: " + path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
