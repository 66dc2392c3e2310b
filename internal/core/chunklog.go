package core

import "unsafe"

// logChunkBytes sizes the chunks of a chunkLog after the first: each
// holds as many entries as fit in logChunkBytes (146 Records, 1024
// float64s). That is a small object, below Go's 32 KiB large-object
// size, so chunks come from per-P caches instead of being zeroed fresh
// from the heap; and it is one of Go's size classes, so a chunk of
// small entries wastes less than one entry.
const logChunkBytes = 8192

// chunkLog is an append-only log kept as a list of chunks, so it grows
// without ever copying what it holds. The first chunk grows like a
// slice, so a short log costs what a slice would; once it holds a
// chunk's worth of entries, entries go into fixed chunks. No append
// copies or clears more than one chunk — a plain slice grows by copying
// the whole log, which at millions of entries is hundreds of megabytes
// while the engine mutex is held.
//
// Every chunk but the last holds exactly chunkLen entries. The zero
// value is an empty log.
type chunkLog[T any] struct {
	head, tail *logChunk[T]
	n          int
	spare      *logChunk[T] // a chunk dropped by trimFront, reused by the next append
}

type logChunk[T any] struct {
	items []T
	next  *logChunk[T]
}

// chunkLen is the number of entries per chunk.
func (l *chunkLog[T]) chunkLen() int {
	var zero T
	return max(1, logChunkBytes/int(unsafe.Sizeof(zero)))
}

// len returns the number of entries.
func (l *chunkLog[T]) len() int { return l.n }

// append adds v at the end.
func (l *chunkLog[T]) append(v T) {
	switch {
	case l.tail == nil:
		l.head = new(logChunk[T])
		l.tail = l.head
	case len(l.tail.items) == l.chunkLen():
		c := l.spare
		l.spare = nil
		if c == nil {
			c = &logChunk[T]{items: make([]T, 0, l.chunkLen())}
		}
		l.tail.next = c
		l.tail = c
	}
	l.tail.items = append(l.tail.items, v)
	l.n++
}

// appendTail appends the last k entries (all of them when k exceeds
// the length) to dst in log order.
func (l *chunkLog[T]) appendTail(dst []T, k int) []T {
	skip := l.n - k
	for c := l.head; c != nil; c = c.next {
		items := c.items
		if skip >= len(items) {
			skip -= len(items)
			continue
		}
		if skip > 0 {
			items = items[skip:]
			skip = 0
		}
		dst = append(dst, items...)
	}
	return dst
}

// slice returns a copy of the whole log as one slice.
func (l *chunkLog[T]) slice() []T {
	return l.appendTail(make([]T, 0, l.n), l.n)
}

// trimFront drops whole chunks from the front while at least keep
// entries would remain. The last dropped chunk is kept for reuse, so a
// log trimmed in steady state stops allocating.
func (l *chunkLog[T]) trimFront(keep int) {
	for l.head != l.tail && l.n-len(l.head.items) >= keep {
		c := l.head
		l.head = c.next
		l.n -= len(c.items)
		clear(c.items) // release what the entries reference
		c.items = c.items[:0]
		c.next = nil
		l.spare = c
	}
}
