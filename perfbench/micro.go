package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
	"repro/internal/wire"
)

// Micro-runs time one layer's public functions on the inputs its
// workload produced in the traced rounds: frames captured off the
// traced connections, the workload's own selector and cost model, the
// journal records its tenants wrote. Each reports ns (or µs) per call
// as the median of microReps passes, and allocations per call.
const microReps = 5

// microOp runs op n times per pass and returns the median time per call
// and the mean allocations per call. Nothing else runs meanwhile: the
// micro-runs start after the last round's server is closed.
func microOp(n int, op func()) (nsPerOp, allocsPerOp float64) {
	op()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes := make([]float64, microReps)
	for p := range passes {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		passes[p] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return medianF(passes), float64(ms1.Mallocs-ms0.Mallocs) / float64(n*microReps)
}

const microCalls = 20000

// payloadOf returns the captured frame of typ and its payload.
func payloadOf(tr *tracer, typ wire.Type) ([]byte, []byte, error) {
	f := tr.frame(typ)
	if f == nil {
		return nil, nil, fmt.Errorf("traced rounds captured no %s frame", typ)
	}
	return f, f[wire.HeaderSize:], nil
}

// microPacked times the packed codec and the frame reader. Decodes
// reuse their receiver, the codec's designed steady state.
func microPacked(tr *tracer, out metrics) error {
	_, lp, err := payloadOf(tr, wire.TLeaseP)
	if err != nil {
		return err
	}
	tframe, tp, err := payloadOf(tr, wire.TTrialsP)
	if err != nil {
		return err
	}
	_, cp, err := payloadOf(tr, wire.TCompleteP)
	if err != nil {
		return err
	}
	var lease wire.PackedLeaseReq
	var trials, trialsDst wire.PackedTrials
	var complete, completeDst wire.PackedCompleteReq
	for _, d := range []struct {
		p   wire.Payload
		buf []byte
	}{{&lease, lp}, {&trials, tp}, {&complete, cp}} {
		if err := d.p.DecodeFrom(d.buf); err != nil {
			return fmt.Errorf("captured frame: %w", err)
		}
	}
	buf := make([]byte, 0, 4096)
	var allocs float64
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"wire.packed.lease_encode_ns", func() { buf = lease.AppendEncode(buf[:0]) }},
		{"wire.packed.trials_encode_ns", func() { buf = trials.AppendEncode(buf[:0]) }},
		{"wire.packed.trials_decode_ns", func() { trialsDst.DecodeFrom(tp) }},
		{"wire.packed.complete_encode_ns", func() { buf = complete.AppendEncode(buf[:0]) }},
		{"wire.packed.complete_decode_ns", func() { completeDst.DecodeFrom(cp) }},
	} {
		ns, a := microOp(microCalls, op.f)
		out.set(op.name, ns)
		allocs += a
	}
	out.set("wire.packed.allocs_per_frame", allocs/5)

	r := bytes.NewReader(tframe)
	rbuf := make([]byte, 0, 4096)
	ns, _ := microOp(microCalls, func() {
		r.Reset(tframe)
		_, _, _, rbuf, _ = wire.ReadFrameBuf(r, rbuf)
	})
	out.set("wire.frame_read_ns", ns)
	return nil
}

// microJSON times the JSON decodes a pre-v3 session costs the server
// (complete) and the worker (trials).
func microJSON(tr *tracer, out metrics) error {
	_, tp, err := payloadOf(tr, wire.TTrials)
	if err != nil {
		return err
	}
	_, cp, err := payloadOf(tr, wire.TCompleteN)
	if err != nil {
		return err
	}
	var trials wire.LeaseNResp
	var complete wire.CompleteNReq
	if err := trials.DecodeFrom(tp); err != nil {
		return err
	}
	if err := complete.DecodeFrom(cp); err != nil {
		return err
	}
	ns1, a1 := microOp(microCalls, func() { trials.DecodeFrom(tp) })
	ns2, a2 := microOp(microCalls, func() { complete.DecodeFrom(cp) })
	out.set("wire.json.trials_decode_ns", ns1)
	out.set("wire.json.complete_decode_ns", ns2)
	out.set("wire.json.allocs_per_frame", (a1+a2)/2)
	return nil
}

// microNominal times the workload's phase-two selector on its own cost
// model, after a warm-up that makes the winner the incumbent.
func microNominal(newSel func() nominal.Selector, m *model, c *class, out metrics) {
	sel := newSel()
	sel.Init(len(m.algos))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := sel.Select(r)
		sel.Report(a, m.cost(c, a, nil, r))
	}
	arms := make([]int, 1024)
	costs := make([]float64, len(arms))
	for i := range arms {
		arms[i] = sel.Select(r)
		costs[i] = m.cost(c, arms[i], nil, r)
	}
	var sink, i int
	ns, _ := microOp(microCalls, func() { sink += sel.Select(r) })
	out.set("nominal.select_ns", ns)
	ns, _ = microOp(microCalls, func() {
		sel.Report(arms[i%len(arms)], costs[i%len(arms)])
		i++
	})
	out.set("nominal.report_ns", ns)
	_ = sink
}

// Journal micro-run sizes: fsynced appends are slow, so fewer of them.
const syncedAppends, bufferedAppends = 100, 2000

// microJournal appends the records a tenant journaled, synced and
// buffered, to a fresh journal in dir.
func microJournal(src, dir string, out metrics) error {
	var recs []checkpoint.Record
	for _, g := range checkpoint.JournalGenerations(src) {
		rs, err := checkpoint.ReadJournal(checkpoint.WalPath(src, g))
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	if len(recs) == 0 {
		return fmt.Errorf("no journal records in %s", src)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		return err
	}
	defer j.Close()
	var i int
	var appendErr error
	appendWith := func(f func(checkpoint.Record) error) func() {
		return func() {
			if err := f(recs[i%len(recs)]); err != nil && appendErr == nil {
				appendErr = err
			}
			i++
		}
	}
	ns, _ := microOp(syncedAppends, appendWith(j.Append))
	out.set("checkpoint.append_us", ns/1e3)
	ns, _ = microOp(bufferedAppends, appendWith(j.AppendBuffered))
	out.set("checkpoint.append_buffered_us", ns/1e3)
	return appendErr
}
