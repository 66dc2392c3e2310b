package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/tuned"
)

// budget is a fleet's remaining completed-trial budget. Callers claim
// before leasing and refund what they were not granted or could not
// complete, so a fleet completes exactly its budget.
type budget struct{ left atomic.Int64 }

func newBudget(n int) *budget {
	b := &budget{}
	b.left.Store(int64(n))
	return b
}

func (b *budget) claim(n int) int {
	for {
		left := b.left.Load()
		k := min(int64(n), left)
		if k <= 0 {
			return 0
		}
		if b.left.CompareAndSwap(left, left-k) {
			return int(k)
		}
	}
}

func (b *budget) refund(n int) {
	if n > 0 {
		b.left.Add(int64(n))
	}
}

// leaser is one connection's view of the trial service: the tuned
// client on the v3 path, or the hand-rolled pre-v3 JSON worker.
type leaser interface {
	lease(n int) (tuned.LeaseBatch, error)
	complete(epoch int64, res []core.TrialResult) (dropped int, err error)
	fail(epoch int64, fails []core.TrialFailure) (dropped int, err error)
}

// clientLeaser adapts a tuned.Client.
type clientLeaser struct{ c *tuned.Client }

func (l clientLeaser) lease(n int) (tuned.LeaseBatch, error) { return l.c.LeaseN(n) }

func (l clientLeaser) complete(epoch int64, res []core.TrialResult) (int, error) {
	_, dropped, err := l.c.CompleteN(epoch, res)
	return len(dropped), err
}

func (l clientLeaser) fail(epoch int64, fails []core.TrialFailure) (int, error) {
	_, dropped, err := l.c.FailN(epoch, fails)
	return len(dropped), err
}

// errFailedTrial is the failure a worker reports through FailN.
var errFailedTrial = errors.New("measurement rejected")

// fleet is the callers sharing one connection, with their budget and
// the feature class whose costs they report.
type fleet struct {
	name      string
	l         leaser
	m         *model
	class     *class
	callers   int
	batch     int
	failEvery int // every failEvery-th trial is reported through FailN (0 = never)
	bud       *budget
	first     tuned.LeaseBatch // the batch leased during set-up
	tr        *tracer          // nil when untraced
	seed      int64

	stats    []callerStats
	finished time.Duration // from the round's start to the last caller's exit
}

// callerStats is what one caller saw; merged after the round so callers
// never contend on shared counters.
type callerStats struct {
	lease, complete    []time.Duration
	attempted, failed  int
	asked, granted     int
	completed, failedT int // trials completed, trials failed
	err                error
}

// leaseFirst takes the fleet's set-up batch.
func (f *fleet) leaseFirst() error {
	k := f.bud.claim(f.batch)
	lb, err := f.l.lease(k)
	if err != nil {
		return fmt.Errorf("%s: first lease: %w", f.name, err)
	}
	if len(lb.Trials) == 0 {
		return fmt.Errorf("%s: first lease came back empty (retry %v)", f.name, lb.Retry)
	}
	f.bud.refund(k - len(lb.Trials))
	f.first = lb
	return nil
}

// run drives the closed loop until the budget is spent. Caller 0 starts
// with the set-up batch.
func (f *fleet) run(start time.Time) {
	f.stats = make([]callerStats, f.callers)
	var wg sync.WaitGroup
	for i := 0; i < f.callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var first *tuned.LeaseBatch
			if i == 0 {
				first = &f.first
			}
			f.caller(&f.stats[i], first, rand.New(rand.NewSource(f.seed+int64(i)*7919)))
		}(i)
	}
	wg.Wait()
	f.finished = time.Since(start)
}

func (f *fleet) caller(st *callerStats, first *tuned.LeaseBatch, r *rand.Rand) {
	var results []core.TrialResult
	var fails []core.TrialFailure
	for {
		var lb tuned.LeaseBatch
		if first != nil {
			lb, first = *first, nil
		} else {
			k := f.bud.claim(f.batch)
			if k == 0 {
				return
			}
			t0 := time.Now()
			var err error
			lb, err = f.l.lease(k)
			d := time.Since(t0)
			st.lease = append(st.lease, d)
			if f.tr != nil {
				f.tr.add(spClientLease, 0, t0, d)
			}
			st.attempted++
			st.asked += k
			if err != nil {
				st.failed++
				st.err = fmt.Errorf("%s: lease: %w", f.name, err)
				return
			}
			st.granted += len(lb.Trials)
			f.bud.refund(k - len(lb.Trials))
			if len(lb.Trials) == 0 {
				// A busy answer: the workloads size the engine so this
				// never happens, so it fails the run.
				st.failed++
				st.err = fmt.Errorf("%s: lease refused (retry in %v)", f.name, lb.Retry)
				return
			}
		}
		results, fails = results[:0], fails[:0]
		for _, tr := range lb.Trials {
			n := st.completed + st.failedT + len(results) + len(fails)
			if f.failEvery > 0 && n%f.failEvery == f.failEvery-1 {
				fails = append(fails, core.TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Invalid, Err: errFailedTrial}})
				continue
			}
			results = append(results, core.TrialResult{ID: tr.ID, Value: f.m.cost(f.class, tr.Algo, tr.Config, r)})
		}
		if len(results) > 0 && !f.report(st, func() (int, error) { return f.l.complete(lb.Epoch, results) }) {
			return
		}
		if len(fails) > 0 && !f.report(st, func() (int, error) { return f.l.fail(lb.Epoch, fails) }) {
			return
		}
		st.completed += len(results)
		st.failedT += len(fails)
		// The budget counts completed trials: give failed ones back.
		f.bud.refund(len(fails))
	}
}

// report times one CompleteN or FailN call, reporting whether the loop
// may go on.
func (f *fleet) report(st *callerStats, call func() (int, error)) bool {
	t0 := time.Now()
	dropped, err := call()
	d := time.Since(t0)
	st.complete = append(st.complete, d)
	if f.tr != nil {
		f.tr.add(spClientComplete, 0, t0, d)
	}
	st.attempted++
	if err != nil {
		st.failed++
		st.err = fmt.Errorf("%s: report: %w", f.name, err)
		return false
	}
	if dropped > 0 {
		st.failed++
		st.err = fmt.Errorf("%s: server dropped %d reported trials", f.name, dropped)
		return false
	}
	return true
}

// totals merges the callers' counters.
func (f *fleet) totals() callerStats {
	var t callerStats
	for i := range f.stats {
		s := &f.stats[i]
		t.lease = append(t.lease, s.lease...)
		t.complete = append(t.complete, s.complete...)
		t.attempted += s.attempted
		t.failed += s.failed
		t.asked += s.asked
		t.granted += s.granted
		t.completed += s.completed
		t.failedT += s.failedT
		if t.err == nil {
			t.err = s.err
		}
	}
	// The set-up lease is a request too, not timed as a lease.
	t.attempted++
	t.asked += f.batch
	t.granted += len(f.first.Trials)
	return t
}
