// Package mailbox provides an unbounded FIFO queue for decoupling event
// producers from consumers. The resource manager, application master and
// tasks all exchange control-plane events through mailboxes so that a slow
// consumer can never deadlock a producer — the property Tez gets from its
// asynchronous, push-based event plane (§3.3 of the paper).
package mailbox

import "sync"

// Mailbox is an unbounded FIFO of T. The zero value is NOT ready; use New.
//
// Readiness is a channel, so an owner can wait on its mailbox and its own
// timers in one select: a token in ready means "look again" (it may be
// stale — a reader that finds nothing simply waits again), and Close
// closes ready, which wakes every reader for good.
//
// The queue is a slice with a head cursor: Get advances head instead of
// re-slicing, so popped slots are released (zeroed) immediately and the
// backing array is compacted once the dead prefix dominates — a long-lived
// mailbox retains O(backlog) memory, not O(total ever enqueued).
type Mailbox[T any] struct {
	mu     sync.Mutex
	ready  chan struct{} // capacity 1; closed by Close
	items  []T
	head   int // items[head:] are live; items[:head] are zeroed dead slots
	closed bool
}

// compactThreshold is the dead-prefix size past which the live tail is
// copied down and the cursor reset. Compaction also requires the dead
// prefix to outweigh the live tail, so a deep steady-state backlog is not
// repeatedly memmoved.
const compactThreshold = 32

// New returns an empty, open mailbox.
func New[T any]() *Mailbox[T] {
	return &Mailbox[T]{ready: make(chan struct{}, 1)}
}

// signalLocked leaves a wake-up token unless one is already pending. The
// caller holds mu and has checked the mailbox is open (ready is closed
// once closed is set).
func (m *Mailbox[T]) signalLocked() {
	select {
	case m.ready <- struct{}{}:
	default:
	}
}

// Put enqueues v. Put on a closed mailbox is a silent no-op, so that
// late producers (e.g. a task finishing after its DAG was torn down)
// need no coordination.
func (m *Mailbox[T]) Put(v T) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.items = append(m.items, v)
	m.signalLocked()
}

// PutAll enqueues every element of vs under a single lock acquisition and
// wakes the consumer once — batched event delivery for producers that emit
// in waves (scheduler passes, movement replay). A nil/empty slice and a
// closed mailbox are no-ops. The mailbox copies the elements; the caller
// keeps ownership of vs.
func (m *Mailbox[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.items = append(m.items, vs...)
	m.signalLocked()
}

// popLocked removes and returns the head item. Caller guarantees at least
// one live item.
func (m *Mailbox[T]) popLocked() T {
	var zero T
	v := m.items[m.head]
	m.items[m.head] = zero // release the reference now, not at compaction
	m.head++
	m.maybeCompactLocked()
	return v
}

// maybeCompactLocked copies the live tail over the dead prefix once the
// prefix is both large and at least as big as the tail, bounding retained
// capacity to O(live) amortised.
func (m *Mailbox[T]) maybeCompactLocked() {
	if m.head < compactThreshold || m.head < len(m.items)-m.head {
		return
	}
	live := copy(m.items, m.items[m.head:])
	var zero T
	for i := live; i < len(m.items); i++ {
		m.items[i] = zero
	}
	m.items = m.items[:live]
	m.head = 0
}

// Get blocks until an item is available or the mailbox is closed and
// drained. ok is false only when closed and empty. A Get that leaves items
// behind passes the wake-up token on, so one PutAll wakes as many blocked
// readers as it has items.
func (m *Mailbox[T]) Get() (v T, ok bool) {
	for {
		m.mu.Lock()
		if m.head < len(m.items) {
			v = m.popLocked()
			if m.head < len(m.items) && !m.closed {
				m.signalLocked()
			}
			m.mu.Unlock()
			return v, true
		}
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return v, false
		}
		<-m.ready
	}
}

// Ready returns the channel a reader selects on: it has a value after a
// Put or PutAll and is closed once the mailbox is. A reader that receives
// from it calls Drain (or TryGet) and may find nothing.
func (m *Mailbox[T]) Ready() <-chan struct{} { return m.ready }

// Drain moves every queued item into buf (which is truncated and reused —
// pass the previous call's return value to amortise allocation) without
// blocking. ok is false only when the mailbox is closed and empty. One lock
// round-trip hands the consumer the whole backlog, the batch-delivery dual
// of PutAll.
func (m *Mailbox[T]) Drain(buf []T) (batch []T, ok bool) {
	buf = buf[:0]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.items) {
		return buf, !m.closed
	}
	buf = append(buf, m.items[m.head:]...)
	var zero T
	for i := m.head; i < len(m.items); i++ {
		m.items[i] = zero
	}
	m.items = m.items[:0]
	m.head = 0
	return buf, true
}

// TryGet returns an item if one is immediately available.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.items) {
		var zero T
		return zero, false
	}
	return m.popLocked(), true
}

// Close wakes all blocked Gets and selecting readers. Items already queued
// can still be drained. Close is idempotent.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	close(m.ready)
}
