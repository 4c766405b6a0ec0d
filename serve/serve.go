// Package serve is the sharded serving layer: it spreads a persistent
// pam structure across N goroutine-owned partitions so many writers and
// many readers can hit it concurrently, while every reader still sees a
// consistent whole-store state.
//
// # Architecture
//
// Each shard is one goroutine owning one persistent structure (a
// pam.AugMap for Store, a rangetree.Tree for PointStore) and a bounded
// op mailbox. Writers never touch shard state: a batch is admitted
// against the target shards' budgets, split by the routing function
// under a global sequencer lock, and its per-shard sub-batches pushed
// into the mailboxes. Shards drain their mailboxes, folding the write
// sub-batches already queued into one flush, and a flush is one net
// update (for maps, the last op per key, applied as one MultiDelete
// and one MultiInsert), so a burst of small writes amortizes into the
// structures' parallel bulk machinery — the paper's "updates are
// sequentialized ... applied when needed in bulk" concurrency model,
// scaled out across partitions.
//
// Because the per-shard structures are persistent, a snapshot is
// zero-copy: Snapshot injects a marker into every mailbox at a single
// sequencer point and assembles the per-shard versions the markers
// observe. No writer is blocked for more than the marker push, and the
// returned view stays valid (and race-free to read) forever.
//
// # The asynchronous write pipeline
//
// Apply/Put/Delete have async variants (ApplyAsync/PutAsync/
// DeleteAsync) that return a completion *Future instead of blocking.
// The pipeline is:
//
//		admit -> sequence+enqueue -> shard flush (apply) -> resolve
//
//	  - Admission: each shard has a budget (Tuning.MailboxDepth queued
//	    sub-batches, Tuning.ShardOpBudget queued ops). A batch over any
//	    target shard's budget either parks the writer
//	    (BackpressureBlock) or fails fast with ErrOverloaded
//	    (BackpressureFastFail) — before a sequence number is consumed,
//	    so a rejected batch leaves no trace.
//	  - Sequencing: an admitted batch gets the next global seqno, is
//	    appended to the WAL hook (durable stores), and its sub-batches
//	    enter the mailboxes, all under one sequencer lock.
//	  - Flush: a shard takes the next sub-batch from its mailbox,
//	    drains the ones already queued behind it (up to
//	    Tuning.FlushOps ops), and applies them all as one flush. It
//	    never waits for more work to arrive, so a burst coalesces
//	    while an idle shard applies a lone write at once. A snapshot
//	    or rebalance marker met mid-drain ends the drain and is served
//	    right after that flush.
//	  - Resolution: a single resolver goroutine completes futures in
//	    global sequence order — a future never resolves before every
//	    batch sequenced ahead of it. On durable stores the resolver
//	    first waits for the WAL group-commit fsync covering the batch,
//	    so a resolved future is a durability guarantee (see Ack.Err).
//
// The sync Apply is the async pipeline plus Future.Wait.
//
// # The snapshot-consistency guarantee
//
// Every write batch is assigned a position in one global sequence (its
// sequence number, returned by Apply and Future.Seq) the moment it is
// submitted, and shards apply sub-batches in exactly that order. A
// snapshot taken at sequence position S (View.Seq reports S) contains
// exactly the batches sequenced before it:
//
//   - Atomicity: a batch is never partially visible — either all of its
//     per-shard effects are in the view or none are, even when the batch
//     spans shards.
//   - Prefix consistency: the view equals the state reached by applying
//     batches 0..S-1, in sequence order, to an initially empty store. No
//     gaps: a view can never show batch j without every batch i < j.
//     Coalescing doesn't weaken this: a shard applies every sub-batch
//     drained ahead of a marker before reporting its state.
//   - Real-time bound: if Apply(b) returned — or b's future resolved —
//     before Snapshot was called, then b's sequence number is below S,
//     so b is visible. A batch still unresolved when the snapshot was
//     taken may be included (if it was sequenced before the marker) or
//     not — never partially.
//
// Readers therefore observe the store as if all acknowledged writes and
// some subset of in-flight writes ran sequentially — the differential
// harness in harness_test.go checks exactly this against a sequential
// pam oracle, under -race, across thousands of randomized schedules,
// with both sync and async writers.
//
// # Read replicas
//
// Snapshot is exact but pays one marker round-trip through every
// mailbox. ReaderView is the cheap alternative: each shard publishes
// its state (copy-on-write, one atomic pointer) after applying a
// flush, and ReaderView assembles a view from the latest published
// states with no locks, no mailbox traffic, and no writer
// coordination — a single atomic load, so replica reads scale with
// reader count and never perturb the write path. The price is a weaker
// contract: each shard individually is a sequence-consistent prefix of
// its own sub-batch stream (versions and epochs only move forward),
// but different shards may reflect different global sequence points, so
// a multi-shard batch can be partially visible and View.Seq reports 0.
//
// # Background carries
//
// The spatial stores' ladder carries (internal/dynamic) occasionally
// rebuild a large prefix of the structure; inline, that stalls the
// shard goroutine and every writer behind it. With Tuning.CarryWorkers
// > 0 a full write buffer spills an overflow run in O(BufCap) and the
// merge runs on a shared worker pool; the shard keeps applying writes
// and answering markers, and queries stay exact because overflow runs
// participate in the signed-sum semantics like ordinary levels.
// Tuning.MaxPendingCarries bounds the spilled-run backlog per shard
// (writers briefly block past it), and a Rebalance invalidates
// in-flight carries so no merge from a discarded ladder ever installs
// into the replacement. Checkpoints settle pending runs in the captured
// (immutable) states, so durability is unaffected.
//
// # Limits
//
// Updates to a single key are totally ordered, but the global order is
// assigned at submission: two racing Apply calls may be sequenced in
// either order. Rebalance (range-sharded stores) briefly blocks writers
// and snapshotters — never readers of existing views — while entries
// move between shards; it changes no logical content and consumes no
// sequence number. Every entry point on a closed store — Apply,
// ApplyAsync, Snapshot, ReaderView, Rebalance, Checkpoint, Compact —
// returns ErrClosed instead of panicking. Point writes reject NaN
// coordinates with ErrNaNPoint before a sequence number is consumed
// (NaN breaks the split routing's ordering).
//
// # Durability and self-healing
//
// Durable stores (DurableStore, DurablePointStore) add a write-ahead
// log, checkpoints, compaction, root digests, and a scrub/repair
// pipeline. Both run on one durability engine, which each embeds next
// to its store: the WAL, recovery, checkpoint publication and
// retention, the compaction policy, and scrub/repair are implemented
// once. The flavours differ only in their WAL op codec and their
// checkpoint format: DurableStore writes an incremental chain of block
// records with Merkle root digests, DurablePointStore standalone
// full-ladder files, each its own base, with a whole-file digest. See
// durable.go for the engine, the file formats, and the recovery
// protocol, and durablepoints.go for the point format. The compaction
// crash-safety contract:
// Compact publishes the new base checkpoint by rename after a full
// sync, and deletes the superseded chain tail and WAL generations only
// afterwards — so a crash at any kill point leaves the directory
// recoverable, either from the old chain (publish never happened) or
// from the new base (recovery picks the newest intact base and sweeps
// the leftovers). No acknowledged batch is ever lost to a compaction
// crash, and recovery after a compaction reads O(live records)
// regardless of update history.
package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// shardState is what a shard reports when it meets a snapshot or
// rebalance marker: its structure and its version (the count of applied
// sub-batches plus rebalance installs).
type shardState[T any] struct {
	idx     int
	state   T
	version uint64
}

// msg is one mailbox item: a write sub-batch (ops + fut), a snapshot
// marker (snap), or a rebalance marker (snap + install).
type msg[O, T any] struct {
	ops     []O
	fut     *Future
	snap    chan<- shardState[T]
	install <-chan T
}

// shard is one partition: a mailbox plus the goroutine-owned structure.
// state and version are touched only by the shard goroutine; the
// counters are atomics shared with admission control and Stats.
type shard[O, T any] struct {
	idx     int
	mail    chan msg[O, T]
	state   T
	version uint64

	// qMsgs/qOps is the admission budget charge: sub-batches/ops
	// admitted (under the sequencer lock) but not yet applied.
	// Incremented by writers under the sequencer lock, decremented by
	// the shard goroutine after a flush.
	qMsgs atomic.Int64
	qOps  atomic.Int64

	appliedMsgs atomic.Uint64
	appliedOps  atomic.Uint64
	// flushNanos is an EWMA (alpha 1/8) of enqueue-to-applied latency,
	// written only by the shard goroutine.
	flushNanos atomic.Int64
}

// hooks are the durable layer's attachment points.
type hooks[O any] struct {
	// logAppend, when non-nil, is called under the sequencer lock with
	// every batch in sequence order — the WAL hook: because the lock
	// serializes it with sequencing, log order is exactly sequence
	// order, and the durable layer's acknowledged prefix is gapless.
	logAppend func(seq uint64, ops []O)
	// commit, when non-nil, is called by the resolver — in sequence
	// order, after the batch is applied — before its future resolves.
	// The durable stores make it the WAL group-commit fsync (plus the
	// periodic auto-checkpoint), so async acks imply durability. Its
	// error becomes Ack.Err.
	commit func(seq uint64) error
}

// engine is the generic sharded serving core, shared by Store and
// PointStore: admission control, the sequencer, the shard goroutines,
// the ordered resolver, and the marker-based snapshot/rebalance
// protocol.
type engine[O, T any] struct {
	apply func(shard int, state T, ops []O) T
	hooks hooks[O]
	tun   Tuning

	// pub is the replica-publication slot: the last state each shard
	// published at an epoch boundary, read lock-free by ReaderView.
	// Shards republish their slot (copy-on-write CAS) after every
	// flush; rebalance rewrites the whole vector while every shard is
	// frozen at its marker.
	pub atomic.Pointer[published[O, T]]
	// closedFl mirrors closed for lock-free ReaderView checks.
	closedFl atomic.Bool

	mu     sync.Mutex // the sequencer: guards seq, route, closed, budget reserve, mailbox pushes
	seq    uint64
	route  func(O) int
	shards []*shard[O, T]
	closed bool
	wg     sync.WaitGroup

	// admitMu/admitCond park writers waiting out backpressure. A
	// separate lock on purpose: shards broadcast budget releases here
	// without ever taking the sequencer lock, so a full mailbox can
	// always drain even while a snapshot holds the sequencer.
	admitMu   sync.Mutex
	admitCond *sync.Cond

	resolveq  *futureQueue
	resolveWg sync.WaitGroup
}

// published is one immutable replica-publication snapshot: per-shard
// states, versions (applied sub-batches plus installs), publication
// epochs, and the router in effect when the vector was last rewritten.
// Each shard's slot is a sequenced prefix of that shard's sub-batch
// stream; the slots are not mutually atomic (see ReaderView).
type published[O, T any] struct {
	states   []T
	versions []uint64
	epochs   []uint64
	route    func(O) int
}

func newEngine[O, T any](states []T, route func(O) int, apply func(shard int, state T, ops []O) T, tun Tuning) *engine[O, T] {
	return newEngineAt(states, route, apply, 0, hooks[O]{}, tun)
}

// newEngineAt starts an engine whose next batch gets sequence number
// startSeq (recovery resumes the sequence where the replayed prefix
// ended) with optional durable hooks.
func newEngineAt[O, T any](states []T, route func(O) int, apply func(shard int, state T, ops []O) T, startSeq uint64, h hooks[O], tun Tuning) *engine[O, T] {
	e := &engine[O, T]{
		apply:    apply,
		hooks:    h,
		tun:      tun.withDefaults(),
		route:    route,
		seq:      startSeq,
		resolveq: newFutureQueue(),
	}
	e.pub.Store(&published[O, T]{
		states:   append([]T(nil), states...),
		versions: make([]uint64, len(states)),
		epochs:   make([]uint64, len(states)),
		route:    route,
	})
	e.admitCond = sync.NewCond(&e.admitMu)
	e.shards = make([]*shard[O, T], len(states))
	for i, st := range states {
		s := &shard[O, T]{idx: i, mail: make(chan msg[O, T], e.tun.MailboxDepth), state: st}
		e.shards[i] = s
		e.wg.Add(1)
		go e.shardLoop(s)
	}
	e.resolveWg.Add(1)
	go e.resolveLoop()
	return e
}

// overBudget returns the index of a target shard that cannot admit its
// sub-batch, or -1 when every involved shard has room. An oversized
// sub-batch (bigger than the whole op budget) is admitted when its
// shard is idle, so it is never unschedulable.
func (e *engine[O, T]) overBudget(per [][]O) int {
	for i, sub := range per {
		if len(sub) == 0 {
			continue
		}
		s := e.shards[i]
		if s.qMsgs.Load() >= int64(e.tun.MailboxDepth) {
			return i
		}
		if q := s.qOps.Load(); q > 0 && q+int64(len(sub)) > int64(e.tun.ShardOpBudget) {
			return i
		}
	}
	return -1
}

// applyAsync admits, sequences, and enqueues one batch, returning its
// completion future. It returns ErrClosed after close, ErrOverloaded
// under fast-fail backpressure; under blocking backpressure it parks
// until the target shards drain enough budget.
func (e *engine[O, T]) applyAsync(ops []O) (*Future, error) {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, ErrClosed
		}
		// Route under the sequencer lock: rebalance may swap the
		// router, and admission must charge the shards that will
		// actually receive the sub-batches.
		per := make([][]O, len(e.shards))
		for _, op := range ops {
			i := e.route(op)
			per[i] = append(per[i], op)
		}
		if e.overBudget(per) < 0 {
			f := e.submitLocked(ops, per)
			e.mu.Unlock()
			return f, nil
		}
		e.mu.Unlock()
		if e.tun.Backpressure == BackpressureFastFail {
			return nil, ErrOverloaded
		}
		// Park until some shard releases budget, then retry admission
		// from scratch (the router may have changed meanwhile). No
		// missed wakeup: releases decrement the counters before
		// broadcasting under admitMu, so either this re-check sees the
		// new budget or the broadcast happens after the Wait starts.
		// Every park is finite: over-budget means sub-batches are
		// queued, and their flush always broadcasts.
		e.admitMu.Lock()
		if e.overBudget(per) >= 0 {
			e.admitCond.Wait()
		}
		e.admitMu.Unlock()
	}
}

// submitLocked sequences an admitted batch: assign the seqno, append to
// the WAL hook, charge the budgets, hand the future to the resolver
// (FIFO = sequence order), and push the sub-batches. Caller holds e.mu;
// the pushes cannot block on budgeted traffic because the budget was
// just reserved (only unbudgeted markers can briefly occupy slots, and
// shards always drain those).
func (e *engine[O, T]) submitLocked(ops []O, per [][]O) *Future {
	f := &Future{
		seq:     e.seq,
		enq:     time.Now(),
		applied: make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.seq++
	if e.hooks.logAppend != nil {
		e.hooks.logAppend(f.seq, ops)
	}
	var n int32
	for _, sub := range per {
		if len(sub) > 0 {
			n++
		}
	}
	f.pending.Store(n)
	if n == 0 {
		f.appliedAt = f.enq
		close(f.applied)
	}
	e.resolveq.push(f)
	for i, sub := range per {
		if len(sub) == 0 {
			continue
		}
		s := e.shards[i]
		s.qMsgs.Add(1)
		s.qOps.Add(int64(len(sub)))
		s.mail <- msg[O, T]{ops: sub, fut: f}
	}
	return f
}

// applyBatch is the synchronous write path: the async pipeline plus
// Wait. Returns the batch's global sequence number; for durable stores
// the error is the commit (WAL fsync) error, with the seqno still
// valid.
func (e *engine[O, T]) applyBatch(ops []O) (uint64, error) {
	f, err := e.applyAsync(ops)
	if err != nil {
		return 0, err
	}
	a := f.Wait()
	return a.Seq, a.Err
}

// resolveLoop completes futures strictly in sequence order: wait for
// the batch to be fully applied, run the durable commit hook, stamp the
// ack. One goroutine per engine, fed FIFO from the sequencer.
func (e *engine[O, T]) resolveLoop() {
	defer e.resolveWg.Done()
	for {
		f, ok := e.resolveq.pop()
		if !ok {
			return
		}
		<-f.applied
		var err error
		if e.hooks.commit != nil {
			err = e.hooks.commit(f.seq)
		}
		f.ack = Ack{
			Seq:       f.seq,
			Err:       err,
			Enqueued:  f.enq,
			Flushed:   f.appliedAt,
			Committed: time.Now(),
		}
		close(f.done)
	}
}

// shardLoop drains the mailbox in rounds. A round receives one
// message, drains whatever else is already queued up to Tuning.FlushOps
// ops, applies the drained sub-batches as one flush, and publishes the
// new state. A marker is served only with every sub-batch ahead of it
// applied, so the global order stays exact: one met mid-drain ends the
// drain and is served right after that flush. A rebalance marker then
// blocks until the replacement state arrives.
func (e *engine[O, T]) shardLoop(s *shard[O, T]) {
	defer e.wg.Done()
	var (
		held []O       // drained ops, in arrival (= sequence) order
		futs []*Future // one per drained sub-batch
	)
	accept := func(m msg[O, T]) {
		held = append(held, m.ops...)
		futs = append(futs, m.fut)
	}
	// drain accepts what is already queued, up to FlushOps. It stops
	// early at a marker, which it returns, or at close, returning false.
	drain := func() (msg[O, T], bool) {
		for len(held) < e.tun.FlushOps {
			select {
			case m, ok := <-s.mail:
				if !ok || m.snap != nil {
					return m, ok
				}
				accept(m)
			default:
				return msg[O, T]{}, true
			}
		}
		return msg[O, T]{}, true
	}
	flush := func() {
		s.state = e.apply(s.idx, s.state, held)
		s.version += uint64(len(futs))
		now := time.Now()
		e.noteFlush(s, now.Sub(futs[0].enq))
		s.appliedMsgs.Add(uint64(len(futs)))
		s.appliedOps.Add(uint64(len(held)))
		for _, f := range futs {
			if f.pending.Add(-1) == 0 {
				f.appliedAt = now
				close(f.applied)
			}
		}
		nOps, nMsgs := len(held), len(futs)
		held, futs = nil, nil
		// Release the budget, then wake parked writers. The decrement
		// must happen-before the broadcast under admitMu — that pairing
		// is what makes blocked admission free of missed wakeups.
		s.qOps.Add(-int64(nOps))
		s.qMsgs.Add(-int64(nMsgs))
		e.admitMu.Lock()
		e.admitCond.Broadcast()
		e.admitMu.Unlock()
		// Publish the new state into this shard's replica slot with a
		// copy-on-write CAS (other shards race on their own slots, never
		// on this one, so the loop is short).
		for {
			old := e.pub.Load()
			np := &published[O, T]{
				states:   append([]T(nil), old.states...),
				versions: append([]uint64(nil), old.versions...),
				epochs:   append([]uint64(nil), old.epochs...),
				route:    old.route,
			}
			np.states[s.idx] = s.state
			np.versions[s.idx] = s.version
			np.epochs[s.idx]++
			if e.pub.CompareAndSwap(old, np) {
				return
			}
		}
	}
	marker := func(m msg[O, T]) {
		m.snap <- shardState[T]{idx: s.idx, state: s.state, version: s.version}
		if m.install != nil {
			s.state = <-m.install
			s.version++
		}
	}
	for {
		m, ok := <-s.mail
		if !ok {
			return
		}
		if m.snap == nil {
			accept(m)
			m, ok = drain()
			flush()
			if !ok {
				return
			}
		}
		if m.snap != nil {
			marker(m)
		}
	}
}

// noteFlush folds one flush's oldest-sub-batch latency into the shard's
// EWMA (alpha 1/8). Only the shard goroutine writes it.
func (e *engine[O, T]) noteFlush(s *shard[O, T], d time.Duration) {
	if d < 0 {
		d = 0
	}
	old := s.flushNanos.Load()
	if old == 0 {
		s.flushNanos.Store(d.Nanoseconds())
		return
	}
	s.flushNanos.Store(old - old/8 + d.Nanoseconds()/8)
}

// stats samples the per-shard pipeline counters.
func (e *engine[O, T]) stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStats{
			QueuedBatches:  s.qMsgs.Load(),
			QueuedOps:      s.qOps.Load(),
			AppliedBatches: s.appliedMsgs.Load(),
			AppliedOps:     s.appliedOps.Load(),
			FlushLatency:   time.Duration(s.flushNanos.Load()),
		}
	}
	return out
}

// snapshot pushes a marker into every mailbox at one sequencer point
// and assembles the states the markers observe: the store's contents
// after exactly the batches sequenced before seq. On a closed engine it
// returns ErrClosed, like every other entry point.
func (e *engine[O, T]) snapshot() (states []T, versions []uint64, seq uint64, route func(O) int, err error) {
	states, versions, seq, route, ok := e.trySnapshotWith(nil)
	if !ok {
		return nil, nil, 0, nil, ErrClosed
	}
	return states, versions, seq, route, nil
}

// trySnapshotWith additionally runs pre under the sequencer lock, after
// the markers are pushed: whatever pre does (the checkpoint protocol
// rotates the WAL generation) happens at exactly the snapshot's
// sequence point. Returns ok == false instead of snapshotting when the
// engine is closed — internal callers (the auto-checkpoint on the
// resolver, the auto-rebalance policy) race Close legitimately and must
// stand down rather than panic.
func (e *engine[O, T]) trySnapshotWith(pre func()) (states []T, versions []uint64, seq uint64, route func(O) int, ok bool) {
	n := len(e.shards)
	ch := make(chan shardState[T], n)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, nil, 0, nil, false
	}
	for _, s := range e.shards {
		s.mail <- msg[O, T]{snap: ch}
	}
	seq = e.seq
	route = e.route
	if pre != nil {
		pre()
	}
	e.mu.Unlock()
	states = make([]T, n)
	versions = make([]uint64, n)
	for i := 0; i < n; i++ {
		st := <-ch
		states[st.idx] = st.state
		versions[st.idx] = st.version
	}
	return states, versions, seq, route, true
}

// rebalance freezes the store at one sequencer point: every shard
// reports its state and blocks; redistribute maps the old states to new
// ones (and optionally a new router); the new states are installed and
// the shards resume. Writers queue behind the sequencer lock for the
// duration; readers of existing views are untouched. On a closed engine
// it returns ErrClosed without touching any shard; a redistribute that
// changes the shard count gets ErrRebalanceShards — the old states are
// reinstalled so the store keeps serving.
func (e *engine[O, T]) rebalance(redistribute func(states []T) ([]T, func(O) int)) error {
	n := len(e.shards)
	ch := make(chan shardState[T], n)
	installs := make([]chan T, n)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	for i, s := range e.shards {
		installs[i] = make(chan T, 1)
		s.mail <- msg[O, T]{snap: ch, install: installs[i]}
	}
	states := make([]T, n)
	versions := make([]uint64, n)
	for i := 0; i < n; i++ {
		st := <-ch
		states[st.idx] = st.state
		versions[st.idx] = st.version
	}
	newStates, newRoute := redistribute(states)
	if len(newStates) != n {
		// Unfreeze with the old states (each install still bumps the
		// shard's version) before surfacing the error.
		for i := range installs {
			installs[i] <- states[i]
		}
		return ErrRebalanceShards
	}
	route := newRoute
	if route == nil {
		route = e.route
	}
	// Rewrite the replica vector before any shard resumes: every shard
	// is frozen at its marker, so no publish can race this store. Each
	// install bumps the shard version by one.
	old := e.pub.Load()
	np := &published[O, T]{
		states:   append([]T(nil), newStates...),
		versions: append([]uint64(nil), versions...),
		epochs:   append([]uint64(nil), old.epochs...),
		route:    route,
	}
	for i := range np.versions {
		np.versions[i]++
		np.epochs[i]++
	}
	e.pub.Store(np)
	for i := range installs {
		installs[i] <- newStates[i]
	}
	if newRoute != nil {
		e.route = newRoute
	}
	return nil
}

// readerView returns the current replica-publication snapshot, or
// ErrClosed after close. Lock-free: it never touches the sequencer, so
// replica reads scale independently of writers and snapshotters.
func (e *engine[O, T]) readerView() (*published[O, T], error) {
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	return e.pub.Load(), nil
}

// closedErr returns ErrClosed once close has begun, else nil, without
// taking the sequencer lock.
func (e *engine[O, T]) closedErr() error {
	if e.closedFl.Load() {
		return ErrClosed
	}
	return nil
}

// close shuts the pipeline down: new writes get ErrClosed, parked
// writers are woken into the error, shards flush everything queued and
// exit, and the resolver drains the remaining futures — every future
// issued before close resolves.
func (e *engine[O, T]) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.closedFl.Store(true)
	for _, s := range e.shards {
		close(s.mail)
	}
	e.mu.Unlock()
	e.admitMu.Lock()
	e.admitCond.Broadcast()
	e.admitMu.Unlock()
	e.wg.Wait()
	e.resolveq.close()
	e.resolveWg.Wait()
}

func (e *engine[O, T]) numShards() int { return len(e.shards) }
