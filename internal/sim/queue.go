package sim

import "sync/atomic"

// Queue is a bounded blocking FIFO used for thread-to-thread packet
// handoff by the connection-level and layered parallelization
// strategies (the alternatives to packet-level parallelism surveyed in
// Section 1 of the paper). Every dequeue charges the context-switch /
// service-dispatch cost that made those strategies pay on real
// hardware.
//
// The queue works unchanged on the host backend: its Mutex and Conds
// are the dual-mode primitives.
type Queue struct {
	Name string

	lock     Mutex
	items    []any
	capacity int
	closed   bool
	notEmpty Cond
	notFull  Cond
	// fullWait and emptyWait are the deadlock-dump reasons of blocked
	// producers and consumers, built once.
	fullWait, emptyWait string

	enqueued int64
	dequeued int64
	maxDepth int

	// depth mirrors len(items) so Len() is safe without the lock on
	// the host backend.
	depth atomic.Int32
}

// NewQueue builds a queue holding at most capacity items.
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 {
		capacity = 1
	}
	q := &Queue{
		Name:      name,
		capacity:  capacity,
		fullWait:  "queue full: " + name,
		emptyWait: "queue empty: " + name,
	}
	q.lock.Name = "queue:" + name
	q.notEmpty.L = &q.lock
	q.notFull.L = &q.lock
	return q
}

// Enqueue appends an item, blocking while the queue is full. It returns
// false if the queue was closed.
func (q *Queue) Enqueue(t *Thread, item any) bool {
	q.lock.Acquire(t)
	for len(q.items) >= q.capacity && !q.closed {
		q.notFull.Wait(t, q.fullWait)
	}
	return q.push(t, item)
}

// TryEnqueue appends an item only if there is room; ok reports success.
// Producers that must not block (to avoid circular waits among handoff
// queues) use this and service their own queues while retrying.
func (q *Queue) TryEnqueue(t *Thread, item any) bool {
	q.lock.Acquire(t)
	if len(q.items) >= q.capacity {
		q.lock.Release(t)
		return false
	}
	return q.push(t, item)
}

// push appends item unless the queue is closed; the caller holds the
// lock, which push releases.
func (q *Queue) push(t *Thread, item any) bool {
	if q.closed {
		q.lock.Release(t)
		return false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	q.items = append(q.items, item)
	q.depth.Store(int32(len(q.items)))
	if len(q.items) > q.maxDepth {
		q.maxDepth = len(q.items)
	}
	q.enqueued++
	q.notEmpty.Signal(t)
	q.lock.Release(t)
	return true
}

// Dequeue removes the oldest item, blocking while the queue is empty.
// It returns (nil, false) once the queue is closed and drained. The
// dequeue charges the context-switch cost of activating the consuming
// thread.
func (q *Queue) Dequeue(t *Thread) (any, bool) {
	q.lock.Acquire(t)
	for len(q.items) == 0 && !q.closed {
		q.notEmpty.Wait(t, q.emptyWait)
	}
	return q.pop(t)
}

// TryDequeue removes the oldest item without blocking; ok reports
// whether an item was available.
func (q *Queue) TryDequeue(t *Thread) (any, bool) {
	q.lock.Acquire(t)
	return q.pop(t)
}

// pop removes the oldest item, if any; the caller holds the lock,
// which pop releases.
func (q *Queue) pop(t *Thread) (any, bool) {
	if len(q.items) == 0 {
		q.lock.Release(t)
		return nil, false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	t.ChargeRand(t.eng.C.Stack.CtxSwitch)
	item := q.items[0]
	q.items = q.items[1:]
	q.depth.Store(int32(len(q.items)))
	q.dequeued++
	q.notFull.Signal(t)
	q.lock.Release(t)
	return item, true
}

// Close wakes every blocked producer and consumer; subsequent enqueues
// fail and dequeues drain the remaining items then fail.
func (q *Queue) Close(t *Thread) {
	q.lock.Acquire(t)
	q.closed = true
	q.notEmpty.Broadcast(t)
	q.notFull.Broadcast(t)
	q.lock.Release(t)
}

// Len returns the current depth (lock-free snapshot; exact in sim mode,
// racy-but-atomic on the host backend).
func (q *Queue) Len() int { return int(q.depth.Load()) }

// Stats returns (enqueued, dequeued, max depth).
func (q *Queue) Stats() (int64, int64, int) { return q.enqueued, q.dequeued, q.maxDepth }
