package tuned

import (
	"bufio"
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
	bw        *bufio.Writer
	committed atomic.Int32 // writers committed to a send not yet buffered
}

// newFrameWriter buffers frames for conn. A positive timeout arms the
// connection's write deadline before every write syscall — one deadline
// per syscall, however many frames it carries, and bufio's implicit
// flush of a full buffer is covered too.
func newFrameWriter(conn net.Conn, timeout time.Duration) *frameWriter {
	var w io.Writer = conn
	if timeout > 0 {
		w = deadlineWriter{conn, timeout}
	}
	return &frameWriter{bw: bufio.NewWriterSize(w, 64<<10)}
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
	err := wire.WriteFrame(w.bw, proto, typ, corr, p)
	if w.committed.Add(-1) > 0 {
		return err
	}
	if groupFlush && err == nil {
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		if w.committed.Load() > 0 {
			return nil
		}
	}
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	return err
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
