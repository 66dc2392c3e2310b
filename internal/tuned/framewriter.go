package tuned

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// frameWriter is the write side of one connection, shared by both ends:
// frames buffer under a mutex and reach the socket only when no other
// writer is committed to writing, so a burst of overlapping frames
// costs one write syscall instead of one per frame.
//
// A writer commits (commit) before it buffers its frame (send). The
// server commits when it dispatches a request, so a reply flushes once
// the session has no other request in service; the client commits
// right before it writes, and additionally yields once before a flush
// when other calls are in flight (see send).
type frameWriter struct {
	mu        sync.Mutex
	w         io.Writer
	buf       []byte       // frames not yet written
	err       error        // sticky: a failed write leaves the stream torn
	committed atomic.Int32 // writers committed to a send not yet buffered
}

// flushAt bounds the buffered bytes: a burst that outgrows it is written
// without waiting for the burst's last writer.
const flushAt = 64 << 10

// newFrameWriter buffers frames for conn. A positive timeout arms the
// connection's write deadline before every write syscall — one deadline
// per syscall, however many frames it carries. The buffer grows to the
// connection's largest burst, so a connection with one request at a
// time holds one frame's worth, not a fixed block.
func newFrameWriter(conn net.Conn, timeout time.Duration) *frameWriter {
	var w io.Writer = conn
	if timeout > 0 {
		w = deadlineWriter{conn, timeout}
	}
	return &frameWriter{w: w}
}

// commit announces a send to come. Every commit must be followed by
// exactly one send.
func (w *frameWriter) commit() { w.committed.Add(1) }

// send buffers one frame of a committed writer and flushes everything
// buffered unless another committed writer is still to come — that one
// flushes instead. With groupFlush, the writer that would flush first
// yields the processor once with the mutex released, so callers woken
// by the same reply burst can join the write; if one committed
// meanwhile, the flush passes to it. Either way the last writer of a
// burst flushes, so no buffered frame is left behind.
func (w *frameWriter) send(proto byte, typ wire.Type, corr uint16, p wire.Encoder, groupFlush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := wire.AppendFrame(w.buf, proto, typ, corr, p)
	w.buf = buf
	if w.committed.Add(-1) > 0 && len(w.buf) < flushAt {
		return err
	}
	if groupFlush && err == nil && len(w.buf) < flushAt {
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		if w.committed.Load() > 0 {
			return nil
		}
	}
	if ferr := w.flush(); err == nil {
		err = ferr
	}
	return err
}

// flush writes the buffered frames in one write. A buffer an outsized
// frame grew past twice flushAt is dropped rather than kept for the
// connection's lifetime.
func (w *frameWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	if cap(w.buf) > 2*flushAt {
		w.buf = nil
	}
	return w.err
}

// deadlineWriter sets a fresh write deadline before each write.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d deadlineWriter) Write(b []byte) (int, error) {
	d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	return d.conn.Write(b)
}
