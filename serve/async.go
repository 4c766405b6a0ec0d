package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrClosed is returned (stickily) by Apply/ApplyAsync and friends
	// once the store has been closed. It replaces the old panic: racing
	// a writer against Close is now a clean error, not a crash.
	ErrClosed = errors.New("serve: store is closed")

	// ErrOverloaded is returned by a BackpressureFastFail store when a
	// batch cannot be admitted because one of its target shards is over
	// its mailbox-depth or in-flight-ops budget. The batch consumed no
	// sequence number and left no trace; the caller may retry.
	ErrOverloaded = errors.New("serve: shard over admission budget")

	// ErrNoShards is returned by the store constructors when asked for
	// fewer than one shard. It replaces the old panic, matching the
	// ErrClosed convention: misconfiguration is an error, not a crash.
	ErrNoShards = errors.New("serve: store needs at least one shard")

	// ErrRebalanceShards is returned by Rebalance when the split
	// function produces a different shard count: the shard-goroutine
	// topology is fixed for the store's lifetime. The store keeps
	// serving with its old distribution.
	ErrRebalanceShards = errors.New("serve: rebalance must preserve the shard count")

	// ErrNaNPoint is returned by PointStore writes containing a point
	// with a NaN coordinate. NaN is unordered, so such a point could
	// never be routed, range-queried, or rebalanced coherently; writes
	// reject it up front, before a sequence number is consumed.
	ErrNaNPoint = errors.New("serve: point has a NaN coordinate")
)

// Backpressure selects what a writer experiences when a target shard's
// admission budget (Tuning.MailboxDepth / Tuning.ShardOpBudget) is
// exhausted.
type Backpressure uint8

const (
	// BackpressureBlock (the default) parks the writer until the shard
	// drains enough budget, then admits the batch. Writers always make
	// progress: budget is only held by queued sub-batches, and shards
	// drain their queues without ever taking the sequencer lock.
	BackpressureBlock Backpressure = iota
	// BackpressureFastFail rejects the batch immediately with
	// ErrOverloaded instead of waiting.
	BackpressureFastFail
)

// Tuning configures the write pipeline: the admission budgets, the
// flush size cap, and background carries. Any field left zero takes
// the default documented on it.
type Tuning struct {
	// MailboxDepth bounds the queued-but-unapplied sub-batches per
	// shard. A batch whose target shard already has MailboxDepth
	// sub-batches in flight feels backpressure. Default 64.
	MailboxDepth int
	// ShardOpBudget bounds the total queued-but-unapplied ops per
	// shard (admission control by weight, not just count). A batch
	// larger than the whole budget is still admitted when its shard is
	// idle, so no batch is unschedulable. Default 65536.
	ShardOpBudget int
	// Backpressure picks blocking or fast-fail admission. Default
	// BackpressureBlock.
	Backpressure Backpressure
	// FlushOps caps one flush: a shard drains the sub-batches already
	// in its mailbox into one bulk update until their ops reach this
	// count, then flushes. It never waits for more work to arrive.
	// Default 4096.
	FlushOps int
	// CarryWorkers, when > 0, moves ladder carry cascades off the
	// shard goroutines (PointStore and DurablePointStore only): a pool
	// of that many workers merges spilled write-buffer runs into the
	// ladder levels in the background while shards keep accepting
	// writes, so a deep carry is no longer a p99 update-latency spike.
	// Zero (the default) keeps carries synchronous — the historical
	// behavior.
	CarryWorkers int
	// MaxPendingCarries bounds the spilled-but-uncarried overflow runs
	// per shard when CarryWorkers > 0: at the bound the shard blocks
	// on the in-flight background carry, which surfaces upstream as
	// ordinary admission backpressure. Default 4.
	MaxPendingCarries int
}

// withDefaults normalizes zero fields to the documented defaults.
func (t Tuning) withDefaults() Tuning {
	if t.MailboxDepth <= 0 {
		t.MailboxDepth = 64
	}
	if t.ShardOpBudget <= 0 {
		t.ShardOpBudget = 1 << 16
	}
	if t.FlushOps <= 0 {
		t.FlushOps = 4096
	}
	if t.CarryWorkers < 0 {
		t.CarryWorkers = 0
	}
	if t.MaxPendingCarries <= 0 {
		t.MaxPendingCarries = 4
	}
	return t
}

// Ack is the final result of one write batch: its position in the
// global sequence plus the pipeline timestamps.
type Ack struct {
	// Seq is the batch's global sequence number, assigned at enqueue.
	Seq uint64
	// Err is nil for a committed batch. For durable stores it carries
	// the WAL/fsync error (the batch is applied in memory but NOT
	// durable); ErrClosed/ErrOverloaded are returned by ApplyAsync
	// itself and never appear here.
	Err error
	// Enqueued is when the batch was sequenced and its sub-batches
	// entered the shard mailboxes.
	Enqueued time.Time
	// Flushed is when the last involved shard applied its sub-batch
	// (for an empty batch it equals Enqueued).
	Flushed time.Time
	// Committed is when the batch was resolved: after every batch with
	// a smaller sequence number, and — on durable stores — after the
	// WAL fsync covering it.
	Committed time.Time
}

// QueueLatency is the enqueue-to-applied time: mailbox wait plus
// coalescing hold plus the bulk apply.
func (a Ack) QueueLatency() time.Duration { return a.Flushed.Sub(a.Enqueued) }

// CommitLatency is the full enqueue-to-resolve time a caller of the
// sync Apply would have observed.
func (a Ack) CommitLatency() time.Duration { return a.Committed.Sub(a.Enqueued) }

// Future is the completion handle of an asynchronous write. Futures
// resolve in global sequence order — a future never resolves before
// every batch sequenced ahead of it has resolved — so per shard (and in
// fact across the whole store) acks arrive in the same order the
// sequencer assigned.
type Future struct {
	seq uint64
	enq time.Time

	// pending counts involved shards that have not yet applied their
	// sub-batch; the shard that drops it to zero stamps appliedAt and
	// closes applied.
	pending   atomic.Int32
	appliedAt time.Time
	applied   chan struct{}

	ack  Ack
	done chan struct{}
}

// Seq returns the batch's global sequence number, known at enqueue.
func (f *Future) Seq() uint64 { return f.seq }

// Done returns a channel closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the future resolves and returns its Ack. Every
// future resolves eventually, including when the store is closed with
// the batch still in flight.
func (f *Future) Wait() Ack {
	<-f.done
	return f.ack
}

// TryAck returns the Ack if the future has resolved.
func (f *Future) TryAck() (Ack, bool) {
	select {
	case <-f.done:
		return f.ack, true
	default:
		return Ack{}, false
	}
}

// futureQueue is the unbounded FIFO feeding the resolver goroutine.
// Producers push while holding the sequencer lock. The resolver never
// takes that lock — automatic checkpoints, which do, run on the durable
// store's checkpointer goroutine — so a bounded queue would not
// deadlock it; the queue is unbounded only because nothing yet bounds
// it. The per-shard admission budgets bound batches waiting to be
// applied, but not applied batches waiting for a WAL fsync, so a
// stalled fsync grows the queue without limit.
type futureQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*Future
	head   int
	closed bool
}

func newFutureQueue() *futureQueue {
	q := &futureQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *futureQueue) push(f *Future) {
	q.mu.Lock()
	q.items = append(q.items, f)
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *futureQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pop blocks until an item is available or the queue is closed and
// drained.
func (q *futureQueue) pop() (*Future, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return nil, false
	}
	f := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return f, true
}

// ShardStats is one shard's live pipeline counters, as reported by
// Store.Stats/PointStore.Stats.
type ShardStats struct {
	// QueuedBatches / QueuedOps are the sub-batches and ops admitted
	// but not yet applied (the budget admission control charges
	// against these).
	QueuedBatches int64
	QueuedOps     int64
	// AppliedBatches / AppliedOps count everything the shard has
	// applied since the store opened.
	AppliedBatches uint64
	AppliedOps     uint64
}
