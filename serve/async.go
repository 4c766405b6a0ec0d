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
// flush size cap, automatic rebalancing, and background carries. Any
// field left zero takes the default documented on it.
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
	// AutoRebalance, when non-nil, starts a policy goroutine that
	// calls Rebalance automatically on sustained shard-size or
	// flush-latency skew. Only meaningful for range-partitioned
	// Store/PointStore (hash stores and the durable stores, whose
	// routing is part of the on-disk schema, ignore it). Default nil:
	// rebalance stays explicit.
	AutoRebalance *AutoRebalance
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

// AutoRebalance is the automatic rebalance policy: every CheckEvery it
// samples shard sizes and flush-latency EWMAs, and after Sustain
// consecutive skewed samples it triggers one Rebalance.
type AutoRebalance struct {
	// CheckEvery is the sampling period. Default 100ms.
	CheckEvery time.Duration
	// SizeSkew fires when max shard size > SizeSkew * mean shard size
	// (must exceed 1; default 2). Sampling takes a snapshot, so it
	// costs one marker round per check.
	SizeSkew float64
	// LatencySkew, when > 1, fires when the largest per-shard flush
	// latency EWMA exceeds LatencySkew * the mean EWMA and every shard
	// has reported at least one flush. Zero disables the latency
	// trigger.
	LatencySkew float64
	// Sustain is how many consecutive skewed samples arm the trigger
	// (debounce). Default 2.
	Sustain int
	// MinSize suppresses the size trigger below this total store size,
	// where skew is noise. Default 128.
	MinSize int64
}

func (ar AutoRebalance) withDefaults() AutoRebalance {
	if ar.CheckEvery <= 0 {
		ar.CheckEvery = 100 * time.Millisecond
	}
	if ar.SizeSkew <= 1 {
		ar.SizeSkew = 2
	}
	if ar.Sustain <= 0 {
		ar.Sustain = 2
	}
	if ar.MinSize <= 0 {
		ar.MinSize = 128
	}
	return ar
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
// Unbounded on purpose: producers push while holding the sequencer
// lock, so a bounded queue would let the resolver (which may take the
// sequencer lock during a durable auto-checkpoint) deadlock against a
// blocked producer. Occupancy is in practice bounded by the per-shard
// admission budgets.
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
	// FlushLatency is an EWMA of enqueue-to-applied latency of the
	// oldest sub-batch in each flush; zero until the first flush.
	FlushLatency time.Duration
}

// startAutoRebalance runs the policy loop: sample skew every
// CheckEvery, rebalance after Sustain consecutive skewed samples. The
// loop must be stopped (close stop + wait wg) before the engine closes;
// a rebalance error (ErrClosed racing shutdown) just ends the streak.
func startAutoRebalance[O, T any](e *engine[O, T], ar AutoRebalance, size func(T) int64, rebalance func() (bool, error), stop <-chan struct{}, wg *sync.WaitGroup) {
	ar = ar.withDefaults()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(ar.CheckEvery)
		defer ticker.Stop()
		streak := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if e.skewed(ar, size) {
				streak++
			} else {
				streak = 0
			}
			if streak >= ar.Sustain {
				rebalance() //nolint:errcheck // ErrClosed here means shutdown is racing us
				streak = 0
			}
		}
	}()
}

// skewed samples the policy's two triggers.
func (e *engine[O, T]) skewed(ar AutoRebalance, size func(T) int64) bool {
	if len(e.shards) > 1 {
		states, _, _, _, ok := e.trySnapshotWith(nil)
		if !ok {
			return false // racing Close; the policy is being stopped
		}
		var total, maxSz int64
		for _, st := range states {
			sz := size(st)
			total += sz
			if sz > maxSz {
				maxSz = sz
			}
		}
		if total >= ar.MinSize &&
			float64(maxSz)*float64(len(states)) > ar.SizeSkew*float64(total) {
			return true
		}
	}
	if ar.LatencySkew > 1 && len(e.shards) > 1 {
		var sum, maxL int64
		n := 0
		for _, s := range e.shards {
			l := s.flushNanos.Load()
			if l > 0 {
				sum += l
				n++
				if l > maxL {
					maxL = l
				}
			}
		}
		if n == len(e.shards) &&
			float64(maxL)*float64(n) > ar.LatencySkew*float64(sum) {
			return true
		}
	}
	return false
}
