package tuned

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/wire"
)

// startEngineServer is startServer but hands back the engine too, for
// tests that assert on final engine state.
func startEngineServer(t *testing.T, sopts ...ServerOption) (*core.ConcurrentTuner, string) {
	t.Helper()
	eng, err := core.NewConcurrentTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, sopts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return eng, ln.Addr().String()
}

// tapFrame is one frame a client wrote, as its header stamped it.
type tapFrame struct {
	version byte
	typ     wire.Type
	corr    uint16
	payload []byte
}

// frameTap records every frame its clients write. With proto set it
// also rewrites each connection's Hello to offer that protocol version,
// so the server negotiates down and the client speaks the family an
// older server would: the way to test the client against a pre-v3
// server without keeping one.
type frameTap struct {
	t      *testing.T
	proto  int // Hello rewrite target; 0 passes the Hello through
	mu     sync.Mutex
	frames []tapFrame
}

// dial is the tap's WithDialer hook.
func (ft *frameTap) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return tapConn{conn, ft}, nil
}

// tapConn passes writes through its frameTap. The client's writers
// hand each Write whole frames.
type tapConn struct {
	net.Conn
	ft *frameTap
}

func (c tapConn) Write(b []byte) (int, error) {
	out := b
	for rest := b; len(rest) > 0; {
		if len(rest) < wire.HeaderSize {
			c.ft.t.Errorf("write ends in a torn frame header (%d bytes)", len(rest))
			break
		}
		n := wire.HeaderSize + int(binary.BigEndian.Uint32(rest[8:12]))
		if n > len(rest) {
			c.ft.t.Errorf("write ends in a torn frame (%d of %d bytes)", len(rest), n)
			break
		}
		f := tapFrame{version: rest[4], typ: wire.Type(rest[5]), corr: binary.BigEndian.Uint16(rest[6:8]),
			payload: append([]byte(nil), rest[wire.HeaderSize:n]...)}
		if f.typ == wire.THello && c.ft.proto > 0 {
			var h wire.Hello
			if err := h.DecodeFrom(f.payload); err != nil {
				c.ft.t.Errorf("tapped Hello: %v", err)
			}
			h.Proto = c.ft.proto
			frame, err := wire.AppendFrame(nil, byte(c.ft.proto), wire.THello, 0, &h)
			if err != nil {
				c.ft.t.Errorf("re-encoding Hello: %v", err)
			}
			out = frame // the handshake writes the Hello alone
		}
		c.ft.mu.Lock()
		c.ft.frames = append(c.ft.frames, f)
		c.ft.mu.Unlock()
		rest = rest[n:]
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// requests returns the frames written after the handshakes.
func (ft *frameTap) requests() []tapFrame {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []tapFrame
	for _, f := range ft.frames {
		if f.typ != wire.THello {
			out = append(out, f)
		}
	}
	return out
}

// leaseSizes returns the N of every packed lease request written.
func (ft *frameTap) leaseSizes() []int {
	var out []int
	for _, f := range ft.requests() {
		if f.typ != wire.TLeaseP {
			continue
		}
		var req wire.PackedLeaseReq
		if err := req.DecodeFrom(f.payload); err != nil {
			ft.t.Fatalf("tapped lease request: %v", err)
		}
		out = append(out, req.N)
	}
	return out
}

// TestPipelinedReorderParity leases a batch and reports the trials back
// one at a time, in reverse lease order, from concurrent goroutines —
// so completions land out of order relative to the leases and to each
// other. It runs over a v3 pipe and over a pre-v3 connection, whose
// window-1 pipe sends the reports one at a time in lockstep; both must
// reach the same engine state: every completion applied, nothing
// dropped, nothing left in flight.
func TestPipelinedReorderParity(t *testing.T) {
	const n = 8

	run := func(t *testing.T, opts ...ClientOption) (iters int) {
		eng, addr := startEngineServer(t)
		c, err := Dial(addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		lb, err := c.LeaseN(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(lb.Trials) != n {
			t.Fatalf("leased %d trials, want %d", len(lb.Trials), n)
		}

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := n - 1; i >= 0; i-- {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tr := lb.Trials[i]
				res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
				applied, dropped, err := c.CompleteN(lb.Epoch, res)
				if err != nil {
					errs[i] = err
					return
				}
				if len(applied) != 1 || len(dropped) != 0 {
					t.Errorf("trial %d: applied=%v dropped=%v", tr.ID, applied, dropped)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Stats()
		if st.InFlight != 0 {
			t.Fatalf("in-flight = %d after all reports, want 0", st.InFlight)
		}
		return eng.Iterations()
	}

	preV3 := run(t, WithDialer((&frameTap{t: t, proto: 2}).dial))
	pipelined := run(t, WithPipeline(0))
	if preV3 != n || pipelined != n {
		t.Fatalf("iterations: pre-v3=%d pipelined=%d, want %d", preV3, pipelined, n)
	}
}

// TestPreV3ClientPipe drives a client whose server negotiated protocol
// 2: leases, completions, failures and heartbeats from several
// goroutines share its window-1 pipe. Every request must go out as a
// v2 JSON frame with correlation ID 0, and the engine must account for
// every trial exactly.
func TestPreV3ClientPipe(t *testing.T) {
	const callers, rounds = 4, 10
	eng, addr := startEngineServer(t)
	tap := &frameTap{t: t, proto: 2}
	c, err := Dial(addr, WithDialer(tap.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.protoByte(); got != 2 {
		t.Fatalf("negotiated protocol %d, want 2", got)
	}
	if w := cap(c.p.window); w != 1 {
		t.Fatalf("pre-v3 pipe window = %d, want 1", w)
	}

	var (
		wg                sync.WaitGroup
		mu                sync.Mutex
		completed, failed uint64
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lb, err := c.LeaseN(2)
				if err != nil {
					t.Errorf("LeaseN: %v", err)
					return
				}
				if len(lb.Trials) != 2 {
					t.Errorf("leased %d trials, want 2", len(lb.Trials))
					return
				}
				ids := []uint64{lb.Trials[0].ID, lb.Trials[1].ID}
				if alive, err := c.Heartbeat(lb.Epoch, ids); err != nil || len(alive) != 2 {
					t.Errorf("Heartbeat = %v, %v; want both alive", alive, err)
					return
				}
				tr := lb.Trials[0]
				applied, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}})
				if err != nil || len(applied) != 1 {
					t.Errorf("CompleteN = %v, %v", applied, err)
					return
				}
				fail := core.TrialFailure{ID: lb.Trials[1].ID, Failure: guard.Failure{Kind: guard.Invalid, Penalty: 9}}
				applied, _, err = c.FailN(lb.Epoch, []core.TrialFailure{fail})
				if err != nil || len(applied) != 1 {
					t.Errorf("FailN = %v, %v", applied, err)
					return
				}
				mu.Lock()
				completed++
				failed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := eng.Stats()
	if st.Completed != completed || st.Failed != failed || st.InFlight != 0 || st.Leased != completed+failed {
		t.Fatalf("engine stats %+v, want %d completed, %d failed, none in flight", st, completed, failed)
	}
	reqs := tap.requests()
	if want := callers * rounds * 4; len(reqs) != want {
		t.Fatalf("tapped %d requests, want %d", len(reqs), want)
	}
	for _, f := range reqs {
		if f.version != 2 || f.corr != 0 || f.typ.Packed() {
			t.Fatalf("pre-v3 request %s stamped v%d corr %d, want a v2 JSON frame with corr 0", f.typ, f.version, f.corr)
		}
	}
}

// TestPipelinedCorrelation interleaves requests of different types from
// many goroutines on one pipelined connection. Every response must
// decode as its request's type — a correlation mix-up surfaces as a
// type-mismatch decode error or a wrong-shape answer.
func TestPipelinedCorrelation(t *testing.T) {
	_, addr := startEngineServer(t)
	c, err := Dial(addr, WithPipeline(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				switch rng.Intn(3) {
				case 0:
					lb, err := c.LeaseN(1)
					if err != nil {
						t.Errorf("LeaseN: %v", err)
						return
					}
					for _, tr := range lb.Trials {
						res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
						if _, _, err := c.CompleteN(lb.Epoch, res); err != nil {
							t.Errorf("CompleteN: %v", err)
							return
						}
					}
				case 1:
					if _, err := c.Stats(); err != nil {
						t.Errorf("Stats: %v", err)
						return
					}
				case 2:
					if _, err := c.Best(); err != nil {
						t.Errorf("Best: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRebalanceClampsHoarder starves one session behind the global cap
// while another hoards it, then checks the server pushes back: the
// hoarder's next grant is clamped to the fair share and carries
// SuggestMax, and the stats surface counts the rebalance.
func TestRebalanceClampsHoarder(t *testing.T) {
	const cap = 8
	_, addr := startEngineServer(t, WithGlobalCap(cap), WithMaxBatch(cap))

	hoarder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hoarder.Close()
	peer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// The hoarder takes the entire global cap and sits on it.
	lb, err := hoarder.LeaseN(cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != cap {
		t.Fatalf("hoarder leased %d, want %d", len(lb.Trials), cap)
	}

	// The peer's request finds no capacity: an empty busy answer, and
	// the server notes the session starved.
	plb, err := peer.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plb.Trials) != 0 || plb.Retry <= 0 {
		t.Fatalf("starved peer got trials=%d retry=%v, want empty busy answer", len(plb.Trials), plb.Retry)
	}

	// The hoarder's next request gets clamped to the fair share
	// (cap / active sessions) and told to shrink its batches.
	hlb, err := hoarder.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	fair := cap / 2
	if hlb.SuggestMax != fair {
		t.Fatalf("SuggestMax = %d, want fair share %d", hlb.SuggestMax, fair)
	}
	if len(hlb.Trials) != 0 {
		t.Fatalf("hoarder at %d held got %d more trials, want 0", cap, len(hlb.Trials))
	}

	st, err := peer.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebalanced == 0 {
		t.Fatal("StatsResp.Rebalanced = 0 after a clamped grant")
	}
}

// TestSessionSnapshot pins Session immutability: the handle keeps the
// worker identity and a private copy of the feature vector it was built
// with, unaffected by later mutation of the caller's slice, and a
// session built without options takes the client's construction-time
// identity and features.
func TestSessionSnapshot(t *testing.T) {
	_, addr := startEngineServer(t)
	own := []float64{5}
	c, err := Dial(addr, WithWorker(9), WithFeatures(own))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	own[0] = 99 // the client copied its vector at construction

	feats := []float64{1, 2}
	s := c.Session(SessionWorker(7), SessionFeatures(feats))
	feats[0] = 99 // caller mutates its slice after the snapshot

	if s.Worker() != 7 {
		t.Fatalf("session worker = %d, want 7", s.Worker())
	}
	if got := s.Features(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("session features = %v, want [1 2]", got)
	}
	s2 := c.Session()
	if s2.Worker() != 9 {
		t.Fatalf("default session worker = %d, want 9 from WithWorker", s2.Worker())
	}
	if got := s2.Features(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("default session features = %v, want [5] from WithFeatures", got)
	}
	s2.Features()[0] = 42 // a returned copy; the session is unchanged
	if got := s2.Features(); got[0] != 5 {
		t.Fatalf("session features changed to %v through a returned copy", got)
	}

	// The session round-trips: leases and reports work through it.
	lb, err := s.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range lb.Trials {
		res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
		if _, _, err := s.CompleteN(lb.Epoch, res); err != nil {
			t.Fatal(err)
		}
	}
}
