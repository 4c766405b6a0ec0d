package serve

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"repro/internal/seq"
	"repro/pam"
)

// OpKind says what one serving op does.
type OpKind uint8

const (
	// OpPut stores Val at Key, overwriting any existing value.
	OpPut OpKind = iota
	// OpDelete removes Key; deleting an absent key is a no-op.
	OpDelete
)

// Op is one key-value operation of a write batch. Within a batch, ops
// apply in slice order.
type Op[K, V any] struct {
	Kind OpKind
	Key  K
	Val  V // ignored by OpDelete
}

// Put returns an OpPut op.
func Put[K, V any](k K, v V) Op[K, V] { return Op[K, V]{Kind: OpPut, Key: k, Val: v} }

// Del returns an OpDelete op. V is not inferrable from the arguments;
// either instantiate it explicitly or use an Op literal in a typed
// slice.
func Del[K, V any](k K) Op[K, V] { return Op[K, V]{Kind: OpDelete, Key: k} }

// Store is a sharded serving layer over a persistent augmented map: a
// pam.AugMap[K, V, A, E] hash- or range-partitioned across N
// goroutine-owned shards, with batched sync/async writes and
// snapshot-consistent cross-shard reads (see the package comment for
// the exact guarantees). All methods are safe for concurrent use.
type Store[K, V, A any, E pam.Aug[K, V, A]] struct {
	eng    *engine[Op[K, V], pam.AugMap[K, V, A, E]]
	ranged bool

	policyStop chan struct{}
	policyWg   sync.WaitGroup
	policyOnce sync.Once
}

// hashStore is Store under an unexported name: DurableStore embeds it,
// promoting the store's methods without exporting a field that reaches
// the inner store (whose Close would skip the WAL flush).
type hashStore[K, V, A any, E pam.Aug[K, V, A]] = Store[K, V, A, E]

// pickTuning normalizes the optional trailing Tuning argument of the
// store constructors.
func pickTuning(tuning []Tuning) Tuning {
	if len(tuning) > 0 {
		return tuning[0].withDefaults()
	}
	return Tuning{}.withDefaults()
}

// NewHashStore returns a store hash-partitioned across the given number
// of shards: key k lives in shard hash(k) % shards. Hash must be
// deterministic. With hash partitioning the shards hold interleaved key
// ranges, so View.AugVal and View.AugRange additionally require Combine
// to be commutative (true of the ready-made entries); range queries and
// ordered iteration remain correct regardless via the merged iterator,
// which k-way merges one cursor per shard: O(s·log n + k·s) for k
// visited entries over s shards.
// An optional Tuning configures the async pipeline (Tuning.AutoRebalance
// is ignored: hash stores do not rebalance). Returns ErrNoShards when
// shards < 1, and an error when hash is nil.
func NewHashStore[K, V, A any, E pam.Aug[K, V, A]](opts pam.Options, shards int, hash func(K) uint64, tuning ...Tuning) (*Store[K, V, A, E], error) {
	if shards < 1 {
		return nil, ErrNoShards
	}
	if hash == nil {
		return nil, errors.New("serve: NewHashStore needs a hash function")
	}
	states := make([]pam.AugMap[K, V, A, E], shards)
	for i := range states {
		states[i] = pam.NewAugMap[K, V, A, E](opts)
	}
	n := uint64(shards)
	route := func(o Op[K, V]) int { return int(hash(o.Key) % n) }
	return &Store[K, V, A, E]{eng: newEngine(states, route, applyMapOps[K, V, A, E], pickTuning(tuning))}, nil
}

// NewRangeStore returns a store range-partitioned at the given split
// keys (strictly increasing in E's order): shard 0 owns keys below
// splits[0], shard i owns splits[i-1] <= k < splits[i], and the last
// shard owns keys at or above the last split — len(splits)+1 shards in
// ascending key order. Range stores support Rebalance, and an optional
// Tuning with AutoRebalance set starts the automatic skew-triggered
// rebalance policy.
func NewRangeStore[K, V, A any, E pam.Aug[K, V, A]](opts pam.Options, splits []K, tuning ...Tuning) *Store[K, V, A, E] {
	states := make([]pam.AugMap[K, V, A, E], len(splits)+1)
	for i := range states {
		states[i] = pam.NewAugMap[K, V, A, E](opts)
	}
	tun := pickTuning(tuning)
	s := &Store[K, V, A, E]{
		eng:    newEngine(states, opRouter[K, V](rangeRouter[K, E](splits)), applyMapOps[K, V, A, E], tun),
		ranged: true,
	}
	if tun.AutoRebalance != nil {
		s.policyStop = make(chan struct{})
		startAutoRebalance(s.eng, *tun.AutoRebalance,
			func(m pam.AugMap[K, V, A, E]) int64 { return m.Size() },
			s.Rebalance, s.policyStop, &s.policyWg)
	}
	return s
}

// rangeRouter routes a key to the count of splits at or below it.
func rangeRouter[K any, E interface{ Less(a, b K) bool }](splits []K) func(K) int {
	var less E
	return func(k K) int {
		lo, hi := 0, len(splits)
		for lo < hi {
			mid := (lo + hi) / 2
			if less.Less(k, splits[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
}

func opRouter[K, V any](key func(K) int) func(Op[K, V]) int {
	return func(o Op[K, V]) int { return key(o.Key) }
}

// applyMapOps adapts applyOps to the engine's per-shard apply
// signature (maps need no per-shard context).
func applyMapOps[K, V, A any, E pam.Aug[K, V, A]](_ int, m pam.AugMap[K, V, A, E], ops []Op[K, V]) pam.AugMap[K, V, A, E] {
	return applyOps(m, ops)
}

// applyOps applies a flush to one shard's map as one net update: only
// the last op per key counts. A flush holding both kinds is folded to
// those last ops (a stable sort by key keeps arrival order among equal
// keys), which split into disjoint delete and put key sets, so one
// MultiDelete and one MultiInsert apply it in either order. A flush of
// one kind skips the fold: MultiInsert's stable dedup already keeps the
// last put of a key, and repeated deletes are idempotent.
func applyOps[K, V, A any, E pam.Aug[K, V, A]](m pam.AugMap[K, V, A, E], ops []Op[K, V]) pam.AugMap[K, V, A, E] {
	if slices.ContainsFunc(ops, func(o Op[K, V]) bool { return o.Kind != ops[0].Kind }) {
		var e E
		ops = slices.Clone(ops)
		seq.SortStable(ops, func(a, b Op[K, V]) bool { return e.Less(a.Key, b.Key) })
		last := ops[:0]
		for i, o := range ops {
			if i+1 == len(ops) || e.Less(o.Key, ops[i+1].Key) {
				last = append(last, o)
			}
		}
		ops = last
	}
	puts := 0
	for _, o := range ops {
		if o.Kind == OpPut {
			puts++
		}
	}
	items := make([]pam.KV[K, V], 0, puts)
	keys := make([]K, 0, len(ops)-puts)
	for _, o := range ops {
		if o.Kind == OpPut {
			items = append(items, pam.KV[K, V]{Key: o.Key, Val: o.Val})
		} else {
			keys = append(keys, o.Key)
		}
	}
	if len(keys) > 0 {
		m = m.MultiDelete(keys)
	}
	if len(items) > 0 {
		m = m.MultiInsert(items, nil) // nil combine: the last put of a key wins
	}
	return m
}

// Apply submits one write batch, blocks until every involved shard has
// applied it and every earlier batch has resolved, and returns the
// batch's global sequence number. Ops apply in slice order; a batch is
// atomic with respect to snapshots. Returns ErrClosed after Close and
// ErrOverloaded under fast-fail backpressure (in both cases no
// sequence number was consumed).
func (s *Store[K, V, A, E]) Apply(ops []Op[K, V]) (uint64, error) { return s.eng.applyBatch(ops) }

// ApplyAsync submits one write batch fire-and-forget and returns its
// completion future: the batch is already sequenced (Future.Seq) but
// may not be applied yet. Futures resolve in global sequence order;
// see the package comment.
func (s *Store[K, V, A, E]) ApplyAsync(ops []Op[K, V]) (*Future, error) {
	return s.eng.applyAsync(ops)
}

// Put stores (k, v), overwriting any existing value, and returns the
// write's sequence number.
func (s *Store[K, V, A, E]) Put(k K, v V) (uint64, error) {
	return s.Apply([]Op[K, V]{{Kind: OpPut, Key: k, Val: v}})
}

// PutAsync is the fire-and-forget Put.
func (s *Store[K, V, A, E]) PutAsync(k K, v V) (*Future, error) {
	return s.ApplyAsync([]Op[K, V]{{Kind: OpPut, Key: k, Val: v}})
}

// Delete removes k (a no-op when absent) and returns the write's
// sequence number.
func (s *Store[K, V, A, E]) Delete(k K) (uint64, error) {
	return s.Apply([]Op[K, V]{{Kind: OpDelete, Key: k}})
}

// DeleteAsync is the fire-and-forget Delete.
func (s *Store[K, V, A, E]) DeleteAsync(k K) (*Future, error) {
	return s.ApplyAsync([]Op[K, V]{{Kind: OpDelete, Key: k}})
}

// Snapshot assembles a consistent cross-shard view: the store's exact
// contents after the batches sequenced before View.Seq, nothing else.
// Zero-copy (the per-shard maps are persistent); the view stays valid
// forever and is safe to read from any goroutine. Returns ErrClosed
// after Close.
func (s *Store[K, V, A, E]) Snapshot() (View[K, V, A, E], error) {
	states, versions, seq, route, err := s.eng.snapshot()
	if err != nil {
		return View[K, V, A, E]{}, err
	}
	return View[K, V, A, E]{
		shards:   states,
		versions: versions,
		seq:      seq,
		route:    route,
		ranged:   s.ranged,
	}, nil
}

// ReaderView assembles a read-only replica view from the per-shard
// states last published at an epoch boundary, without touching the
// sequencer: replica reads are lock-free and scale independently of
// writers, snapshotters, and each other. The staleness contract is
// per-shard prefix consistency — each shard's slice of the view equals
// that shard's state after some prefix of its applied sub-batches
// (epochs and versions, see View.Epochs, only ever move forward) — but
// unlike Snapshot the shards are not cut at one sequence point, so a
// cross-shard batch may be partially visible and View.Seq is 0. Use
// Snapshot when atomicity across shards matters; use ReaderView for
// read traffic that only needs fresh-enough monotone data. Returns
// ErrClosed after Close; views obtained earlier remain valid.
func (s *Store[K, V, A, E]) ReaderView() (View[K, V, A, E], error) {
	p, err := s.eng.readerView()
	if err != nil {
		return View[K, V, A, E]{}, err
	}
	return View[K, V, A, E]{
		shards:   p.states,
		versions: p.versions,
		epochs:   p.epochs,
		route:    p.route,
		ranged:   s.ranged,
	}, nil
}

// Stats samples the per-shard pipeline counters: queued (admission
// budget charge) and applied batch/op counts plus the flush-latency
// EWMA feeding the auto-rebalance policy.
func (s *Store[K, V, A, E]) Stats() []ShardStats { return s.eng.stats() }

// NumShards returns the partition count.
func (s *Store[K, V, A, E]) NumShards() int { return s.eng.numShards() }

// Close stops the auto-rebalance policy (if any) and the shard
// goroutines. In-flight batches are flushed and their futures resolve;
// subsequent writes return ErrClosed. Views taken earlier remain valid.
func (s *Store[K, V, A, E]) Close() {
	s.policyOnce.Do(func() {
		if s.policyStop != nil {
			close(s.policyStop)
			s.policyWg.Wait()
		}
	})
	s.eng.close()
}

// Rebalance re-splits a range-partitioned store so shard sizes are
// equal to within one entry, moving whole subtrees between shards via
// persistent Split/Concat. It blocks writers and snapshotters for the
// duration (readers of existing views are untouched), changes no
// logical content, and consumes no sequence number. Returns false (and
// does nothing) on hash-partitioned stores, whose balance is up to the
// hash, and ErrClosed after Close. With Tuning.AutoRebalance set this
// fires automatically on sustained size or latency skew.
func (s *Store[K, V, A, E]) Rebalance() (bool, error) {
	if !s.ranged {
		return false, s.eng.closedErr()
	}
	type T = pam.AugMap[K, V, A, E]
	err := s.eng.rebalance(func(states []T) ([]T, func(Op[K, V]) int) {
		n := len(states)
		cum := make([]int64, n+1)
		for i, st := range states {
			cum[i+1] = cum[i] + st.Size()
		}
		total := cum[n]
		if total == 0 || n == 1 {
			return states, nil
		}
		// New split j sits at global rank j*total/n; the states are
		// disjoint ascending ranges, so rank r is Select(r - cum[i]) in
		// the shard i whose cumulative range covers r.
		splits := make([]K, 0, n-1)
		for j := 1; j < n; j++ {
			r := int64(j) * total / int64(n)
			if r >= total {
				r = total - 1
			}
			si := sort.Search(n, func(i int) bool { return cum[i+1] > r })
			k, _, _ := states[si].Select(r - cum[si])
			splits = append(splits, k)
		}
		return cutStates(states, splits), opRouter[K, V](rangeRouter[K, E](splits))
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// cutStates re-slices ordered disjoint range shards at the new splits:
// each old shard is cut by persistent Split, and each new shard is the
// ordered concatenation of its pieces (a split key belongs to the shard
// at or above it, matching rangeRouter).
func cutStates[K, V, A any, E pam.Aug[K, V, A]](states []pam.AugMap[K, V, A, E], splits []K) []pam.AugMap[K, V, A, E] {
	n := len(states)
	out := make([]pam.AugMap[K, V, A, E], n)
	filled := make([]bool, n)
	add := func(i int, piece pam.AugMap[K, V, A, E]) {
		if !filled[i] {
			out[i], filled[i] = piece, true
			return
		}
		out[i] = out[i].Concat(piece)
	}
	for _, st := range states {
		rem := st
		for j, sp := range splits {
			left, v, found, right := rem.Split(sp)
			if found {
				right = right.Insert(sp, v)
			}
			add(j, left)
			rem = right
		}
		add(n-1, rem)
	}
	return out
}
