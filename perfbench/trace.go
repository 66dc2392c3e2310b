package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tuned"
	"repro/internal/wire"
)

// Span kinds: one per layer boundary the traced run times from the
// benchmark's side of it.
type spanKind uint8

const (
	spClientLease    spanKind = iota // client LeaseN call, as the caller sees it
	spClientComplete                 // client CompleteN/FailN call
	spEngineLease                    // engine LeaseN/LeaseNOn/LeaseNFor, as the server calls it
	spEngineLeaseFor                 // the contextual subset of spEngineLease
	spEngineComplete                 // engine CompleteN
	spEngineFail                     // engine FailN
	spClientWrite                    // net.Conn.Write on a client connection
	spServerWrite                    // net.Conn.Write on a server connection
	spTurnaround                     // server read-return to write-start on a lockstep connection
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.lease", "client.complete", "engine.lease", "engine.lease_for",
	"engine.complete", "engine.fail", "socket.client.write", "socket.server.write",
	"server.turnaround",
}

// span is one timed call. conn identifies the connection for socket
// spans (0 otherwise); start is relative to the tracer's origin.
type span struct {
	kind       spanKind
	conn       uint16
	start, dur int64
}

// sideStats counts one side's socket traffic.
type sideStats struct {
	reads, writes, bytesIn, bytesOut, writeNs atomic.Int64
	frames, packed, hellos                    atomic.Int64 // frames written, of which packed, hello
}

// tracer records spans in memory and counts socket and engine work for
// one traced round. Spans beyond the preallocated capacity are counted
// in dropped, not recorded; counters are always exact.
type tracer struct {
	origin  time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	connSeq atomic.Uint32

	client, server sideStats
	engineDropped  atomic.Int64 // CompleteN/FailN entries the engine refused
	// lockstep marks a round whose server connections never have two
	// requests in service, so read-return to write-start is one
	// request's turnaround. The workload sets it before connecting.
	lockstep bool

	// Frame versions written by clients, as a bit set over version
	// numbers: the check that wrappers left protocol negotiation alone.
	clientVersions atomic.Uint32

	capMu    sync.Mutex
	captured map[wire.Type][]byte // one whole frame per type, for micro-runs
}

func newTracer(capacity int) *tracer {
	return &tracer{
		origin:   time.Now(),
		spans:    make([]span, capacity),
		captured: make(map[wire.Type][]byte),
	}
}

func (t *tracer) add(kind spanKind, conn uint16, start time.Time, dur time.Duration) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, conn: conn, start: int64(start.Sub(t.origin)), dur: int64(dur)}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// durations returns the recorded durations of the given kinds.
func (t *tracer) durations(kinds ...spanKind) []time.Duration {
	var out []time.Duration
	for _, s := range t.recorded() {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, time.Duration(s.dur))
			}
		}
	}
	return out
}

// sum totals the recorded durations of the given kinds.
func (t *tracer) sum(kinds ...spanKind) time.Duration {
	var d time.Duration
	for _, x := range t.durations(kinds...) {
		d += x
	}
	return d
}

// capture keeps the first whole frame of each type for the micro-runs.
func (t *tracer) capture(typ wire.Type, frame []byte) {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	if _, ok := t.captured[typ]; !ok {
		t.captured[typ] = frame
	}
}

func (t *tracer) frame(typ wire.Type) []byte {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	return t.captured[typ]
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		fmt.Fprintf(w, `{"name":%q,"conn":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
			spanNames[s.kind], s.conn, s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frameScan follows the frame boundaries of a byte stream written to a
// connection, counting frames and capturing whole frames for the
// micro-runs, without altering a byte.
type frameScan struct {
	hdr  [wire.HeaderSize]byte
	have int    // header bytes collected
	left int    // payload bytes of the current frame still to pass
	buf  []byte // whole current frame while capturing it
	seen int    // frames started
}

// captureAfter skips the handshake and first requests, so captured
// frames carry steady-state contents (trial configs, full batches).
const captureAfter = 64

func (f *frameScan) feed(p []byte, t *tracer, st *sideStats, client bool) {
	for len(p) > 0 {
		if f.left > 0 {
			k := min(f.left, len(p))
			if f.buf != nil {
				f.buf = append(f.buf, p[:k]...)
			}
			f.left -= k
			p = p[k:]
			if f.left == 0 && f.buf != nil {
				t.capture(wire.Type(f.buf[5]), f.buf)
				f.buf = nil
			}
			continue
		}
		k := copy(f.hdr[f.have:], p)
		f.have += k
		p = p[k:]
		if f.have < wire.HeaderSize {
			continue
		}
		f.have = 0
		f.seen++
		version, typ := f.hdr[4], wire.Type(f.hdr[5])
		st.frames.Add(1)
		if typ.Packed() {
			st.packed.Add(1)
		}
		if typ == wire.THello {
			st.hellos.Add(1)
		}
		if client && version < 32 {
			for {
				old := t.clientVersions.Load()
				if t.clientVersions.CompareAndSwap(old, old|1<<version) {
					break
				}
			}
		}
		f.left = int(binary.BigEndian.Uint32(f.hdr[8:12]))
		if f.seen > captureAfter && t.frame(typ) == nil {
			f.buf = append([]byte(nil), f.hdr[:]...)
			if f.left == 0 {
				t.capture(typ, f.buf)
				f.buf = nil
			}
		}
	}
}

// tracedConn times and counts one connection's socket calls. Reads come
// from one goroutine per connection in every peer this benchmark runs;
// writes are serialized by the peers too, but the scanner takes wmu
// anyway so a peer that stops serializing corrupts no count.
type tracedConn struct {
	net.Conn
	t        *tracer
	st       *sideStats
	id       uint16
	client   bool
	lastRead atomic.Int64 // server side: when the last read returned, 0 once answered

	wmu  sync.Mutex
	scan frameScan
}

func (t *tracer) wrapConn(c net.Conn, client bool) *tracedConn {
	st := &t.server
	if client {
		st = &t.client
	}
	return &tracedConn{Conn: c, t: t, st: st, id: uint16(t.connSeq.Add(1)), client: client}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	if n > 0 && !c.client {
		c.lastRead.Store(int64(time.Since(c.t.origin)))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	if !c.client && c.t.lockstep {
		if r := c.lastRead.Swap(0); r != 0 {
			c.t.add(spTurnaround, c.id, c.t.origin.Add(time.Duration(r)), start.Sub(c.t.origin)-time.Duration(r))
		}
	}
	n, err := c.Conn.Write(p)
	dur := time.Since(start)
	kind := spServerWrite
	if c.client {
		kind = spClientWrite
	}
	c.t.add(kind, c.id, start, dur)
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	c.st.writeNs.Add(int64(dur))
	c.wmu.Lock()
	c.scan.feed(p[:n], c.t, c.st, c.client)
	c.wmu.Unlock()
	return n, err
}

// tracedListener wraps every accepted connection.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapConn(c, false), nil
}

// dialer is the tuned.WithDialer hook of a traced client.
func (t *tracer) dialer(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return t.wrapConn(c, true), nil
}

// The optional engine extensions the tuned server looks for by type
// assertion. A wrapper must expose exactly the ones its engine has, or
// the server would take another path under trace than without it.
type shardedEngine interface {
	tuned.Engine
	Shards() int
	LeaseNOn(shard, n int) ([]core.Trial, error)
}

type contextualEngine interface {
	tuned.Engine
	LeaseNFor(features []float64, n int) ([]core.Trial, error)
	ContextCount() int
}

// tracedEngine times the engine calls on the trial path. Embedding the
// tuned.Engine interface (not the concrete engine) forwards the rest of
// the surface and hides every optional method, which the two extended
// wrappers below add back.
type tracedEngine struct {
	tuned.Engine
	t *tracer
}

func (e *tracedEngine) LeaseN(n int) ([]core.Trial, error) {
	start := time.Now()
	out, err := e.Engine.LeaseN(n)
	e.t.add(spEngineLease, 0, start, time.Since(start))
	return out, err
}

func (e *tracedEngine) CompleteN(results []core.TrialResult) []error {
	start := time.Now()
	errs := e.Engine.CompleteN(results)
	e.t.add(spEngineComplete, 0, start, time.Since(start))
	e.countDropped(errs)
	return errs
}

func (e *tracedEngine) FailN(fails []core.TrialFailure) []error {
	start := time.Now()
	errs := e.Engine.FailN(fails)
	e.t.add(spEngineFail, 0, start, time.Since(start))
	e.countDropped(errs)
	return errs
}

func (e *tracedEngine) countDropped(errs []error) {
	for _, err := range errs {
		if err != nil {
			e.t.engineDropped.Add(1)
		}
	}
}

type tracedShardedEngine struct {
	*tracedEngine
	inner shardedEngine
}

func (e *tracedShardedEngine) Shards() int { return e.inner.Shards() }

func (e *tracedShardedEngine) LeaseNOn(shard, n int) ([]core.Trial, error) {
	start := time.Now()
	out, err := e.inner.LeaseNOn(shard, n)
	e.t.add(spEngineLease, 0, start, time.Since(start))
	return out, err
}

type tracedContextualEngine struct {
	*tracedEngine
	inner contextualEngine
}

func (e *tracedContextualEngine) ContextCount() int { return e.inner.ContextCount() }

func (e *tracedContextualEngine) LeaseNFor(features []float64, n int) ([]core.Trial, error) {
	start := time.Now()
	out, err := e.inner.LeaseNFor(features, n)
	d := time.Since(start)
	e.t.add(spEngineLease, 0, start, d)
	e.t.add(spEngineLeaseFor, 0, start, d)
	return out, err
}

// wrapEngine returns eng behind a timing wrapper with the same optional
// extensions as eng.
func (t *tracer) wrapEngine(eng tuned.Engine) (tuned.Engine, error) {
	base := &tracedEngine{Engine: eng, t: t}
	se, sharded := eng.(shardedEngine)
	ce, contextual := eng.(contextualEngine)
	switch {
	case sharded && contextual:
		return nil, fmt.Errorf("engine %T is both sharded and contextual; no wrapper exposes both", eng)
	case sharded:
		return &tracedShardedEngine{base, se}, nil
	case contextual:
		return &tracedContextualEngine{base, ce}, nil
	}
	return base, nil
}

// sameExtensions checks that the wrapper exposes exactly the optional
// extensions of the engine it wraps.
func sameExtensions(inner, wrapped tuned.Engine) error {
	_, s1 := inner.(shardedEngine)
	_, s2 := wrapped.(shardedEngine)
	_, c1 := inner.(contextualEngine)
	_, c2 := wrapped.(contextualEngine)
	if s1 != s2 || c1 != c2 {
		return fmt.Errorf("engine wrapper changes the server's path: sharded %v→%v, contextual %v→%v", s1, s2, c1, c2)
	}
	return nil
}
