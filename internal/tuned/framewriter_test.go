package tuned

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// countingConn counts the write syscalls a connection is asked for.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// dialCounting dials a pipelined client whose connections count their
// writes, and returns it with the write count reached after the
// handshake.
func dialCounting(t *testing.T, addr string, window int) (*Client, *atomic.Int64, int64) {
	t.Helper()
	writes := new(atomic.Int64)
	dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, writes}, nil
	}
	c, err := Dial(addr, WithPipeline(window), WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, writes, writes.Load()
}

// leaseCompleteLoop runs callers goroutines, each doing rounds
// LeaseN(batch)+CompleteN pairs, and returns the requests sent.
func leaseCompleteLoop(t *testing.T, c *Client, callers, rounds, batch int) int64 {
	t.Helper()
	var (
		wg   sync.WaitGroup
		reqs atomic.Int64
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]core.TrialResult, 0, batch)
			for i := 0; i < rounds; i++ {
				lb, err := c.LeaseN(batch)
				reqs.Add(1)
				if err != nil {
					t.Errorf("LeaseN: %v", err)
					return
				}
				if len(lb.Trials) == 0 {
					continue
				}
				res = res[:0]
				for _, tr := range lb.Trials {
					res = append(res, core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)})
				}
				_, _, err = c.CompleteN(lb.Epoch, res)
				reqs.Add(1)
				if err != nil {
					t.Errorf("CompleteN: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return reqs.Load()
}

// TestPipelinedGroupFlush runs 16 callers doing LeaseN(16)/CompleteN
// over one pipelined connection. Callers woken by the same reply burst
// must share write syscalls: without the group flush, each wakes,
// writes and flushes alone, at close to one syscall per request.
func TestPipelinedGroupFlush(t *testing.T) {
	_, addr := startServer(t, []core.Option{core.WithMaxInFlight(1024)})
	c, writes, base := dialCounting(t, addr, 0)
	reqs := leaseCompleteLoop(t, c, 16, 40, 16)
	if t.Failed() {
		return
	}
	got := float64(writes.Load()-base) / float64(reqs)
	t.Logf("%d requests, %.3f client write syscalls per request", reqs, got)
	if got > 0.5 {
		t.Fatalf("client write syscalls per request = %.3f, want ≤ 0.5", got)
	}
}

// TestPipelinedLoneWriterFlushesAtOnce: with one caller, or with a
// window of 1, no other request can join a write, so every request is
// its own write syscall, issued before its caller waits for the reply.
func TestPipelinedLoneWriterFlushesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name            string
		window, callers int
	}{
		{"single caller", 0, 1},
		{"window 1", 1, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, []core.Option{core.WithMaxInFlight(1024)})
			c, writes, base := dialCounting(t, addr, tc.window)
			reqs := leaseCompleteLoop(t, c, tc.callers, 20, 4)
			if t.Failed() {
				return
			}
			if got := writes.Load() - base; got != reqs {
				t.Fatalf("%d write syscalls for %d requests, want one each", got, reqs)
			}
		})
	}
}

// TestFrameWriterOutsizedFrame sends a frame far larger than the
// buffer bound, then a small one: both must reach the peer intact and
// in order, and the writer must not keep the buffer the large frame
// grew.
func TestFrameWriterOutsizedFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := newFrameWriter(a, time.Second)
	req := &wire.AbsorbReq{Worker: 1, Seq: 1, Obs: make([]wire.Obs, 20000)}
	go func() {
		w.commit()
		if err := w.send(3, wire.TAbsorb, 1, req, false); err != nil {
			t.Errorf("large send: %v", err)
		}
		w.commit()
		if err := w.send(3, wire.TStats, 2, nil, false); err != nil {
			t.Errorf("small send: %v", err)
		}
	}()

	br := bufio.NewReader(b)
	typ, corr, payload, _, err := wire.ReadFrameBuf(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got wire.AbsorbReq
	if typ != wire.TAbsorb || corr != 1 || len(payload) <= 2*flushAt {
		t.Fatalf("first frame %s corr %d, %d bytes; want the %d-byte-plus absorb frame", typ, corr, len(payload), 2*flushAt)
	}
	if err := got.DecodeFrom(payload); err != nil || len(got.Obs) != len(req.Obs) {
		t.Fatalf("absorb frame decoded to %d observations (%v), want %d", len(got.Obs), err, len(req.Obs))
	}
	if typ, corr, _, _, err = wire.ReadFrameBuf(br, nil); err != nil || typ != wire.TStats || corr != 2 {
		t.Fatalf("second frame %s corr %d (%v), want stats corr 2", typ, corr, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if c := cap(w.buf); c > 2*flushAt {
		t.Fatalf("writer kept a %d-byte buffer after the outsized frame", c)
	}
}
