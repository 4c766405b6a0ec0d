package serve

import (
	"repro/internal/core"
	"repro/pam"
)

// View is a consistent cross-shard snapshot of a Store: one frozen
// persistent map per shard, assembled at a single point of the global
// write sequence (see the package comment for the exact guarantee).
// Views are immutable, valid forever, and safe to read from any
// goroutine; taking one copies no entries.
type View[K, V, A any, E pam.Aug[K, V, A]] struct {
	shards   []pam.AugMap[K, V, A, E]
	versions []uint64
	epochs   []uint64 // non-nil only for replica views (ReaderView)
	seq      uint64
	route    func(Op[K, V]) int
	ranged   bool
}

// Seq returns the snapshot's position in the global write sequence: the
// view contains exactly the batches sequenced before it. Replica views
// (ReaderView) are not cut at a sequence point and report 0.
func (v View[K, V, A, E]) Seq() uint64 { return v.seq }

// Versions returns the per-shard version vector (applied sub-batch
// counts, bumped once more per rebalance); treat it as read-only.
// Successive snapshots have componentwise nondecreasing vectors.
func (v View[K, V, A, E]) Versions() []uint64 { return v.versions }

// Epochs returns the per-shard replica-publication epochs for views
// from ReaderView (componentwise nondecreasing across successive
// replica views; each shard's epoch bumps once per publication), or
// nil for marker-based snapshots. Treat it as read-only.
func (v View[K, V, A, E]) Epochs() []uint64 { return v.epochs }

// NumShards returns the partition count.
func (v View[K, V, A, E]) NumShards() int { return len(v.shards) }

// Shard exposes one frozen shard map (for per-shard diagnostics and
// tests).
func (v View[K, V, A, E]) Shard(i int) pam.AugMap[K, V, A, E] { return v.shards[i] }

// Find returns the value at k, routed to the owning shard: one O(log)
// lookup, no cross-shard work.
func (v View[K, V, A, E]) Find(k K) (V, bool) {
	return v.shards[v.route(Op[K, V]{Key: k})].Find(k)
}

// Contains reports whether k is present.
func (v View[K, V, A, E]) Contains(k K) bool {
	_, ok := v.Find(k)
	return ok
}

// Size returns the total entry count.
func (v View[K, V, A, E]) Size() int64 {
	var n int64
	for _, m := range v.shards {
		n += m.Size()
	}
	return n
}

// AugVal folds the shards' augmented values in shard order. Exact for
// range-partitioned stores; hash-partitioned stores interleave key
// ranges across shards, so the fold additionally requires Combine to be
// commutative (true of the ready-made entries).
func (v View[K, V, A, E]) AugVal() A {
	var e E
	a := e.Id()
	for _, m := range v.shards {
		a = e.Combine(a, m.AugVal())
	}
	return a
}

// AugRange folds the shards' augmented values over lo <= key <= hi, in
// shard order; the same commutativity caveat as AugVal applies to
// hash-partitioned stores. O(shards · log n).
func (v View[K, V, A, E]) AugRange(lo, hi K) A {
	var e E
	a := e.Id()
	for _, m := range v.shards {
		a = e.Combine(a, m.AugRange(lo, hi))
	}
	return a
}

// head is one shard's cursor in the merged iteration of a
// hash-partitioned view, with the entry it emits next.
type head[K, V, A any, E pam.Aug[K, V, A]] struct {
	c *core.Cursor[K, V, A, E]
	k K
	v V
}

// forEachMerged visits entries in ascending key order, starting at lo
// (nil: the smallest key) and stopping after hi (nil: the largest),
// until visit returns false. Range-partitioned shards are already
// disjoint ascending key ranges, so they iterate natively one after
// another at O(1) amortized per entry. Hash-partitioned shards are
// k-way merged over one core cursor per shard: one O(log n) seek per
// shard, then s−1 key comparisons plus one bound check per visited
// entry, each leaf block decoded once — O(s·log n + k·s) for k visited
// entries over s shards.
func (v View[K, V, A, E]) forEachMerged(lo, hi *K, visit func(K, V) bool) {
	var e E
	if v.ranged {
		// Callers pass either no bounds (ForEach) or both (ForEachRange).
		stopped := false
		wrapped := func(k K, val V) bool {
			if !visit(k, val) {
				stopped = true
				return false
			}
			return true
		}
		for _, m := range v.shards {
			if lo != nil && hi != nil {
				m.ForEachRange(*lo, *hi, wrapped)
			} else {
				m.ForEach(wrapped)
			}
			if stopped {
				return
			}
		}
		return
	}
	// Exhausted shards drop out, so every head holds a live entry.
	heads := make([]head[K, V, A, E], 0, len(v.shards))
	for _, m := range v.shards {
		t := m.Tree()
		c := t.Cursor()
		if lo != nil {
			c.SeekGE(t, *lo)
		}
		if k, val, ok := c.Next(); ok {
			heads = append(heads, head[K, V, A, E]{c: c, k: k, v: val})
		}
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if e.Less(heads[i].k, heads[best].k) {
				best = i
			}
		}
		h := &heads[best]
		// h.k is the global minimum of the remaining entries, so once it
		// passes hi, everything else does too.
		if hi != nil && e.Less(*hi, h.k) {
			return
		}
		if !visit(h.k, h.v) {
			return
		}
		var ok bool
		if h.k, h.v, ok = h.c.Next(); !ok {
			heads[best] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
}

// ForEach visits all entries in ascending key order (merged across
// shards) until visit returns false.
func (v View[K, V, A, E]) ForEach(visit func(K, V) bool) { v.forEachMerged(nil, nil, visit) }

// ForEachRange visits entries with lo <= key <= hi in ascending key
// order until visit returns false.
func (v View[K, V, A, E]) ForEachRange(lo, hi K, visit func(K, V) bool) {
	v.forEachMerged(&lo, &hi, visit)
}

// Entries materializes all entries in ascending key order. For
// range-partitioned stores this concatenates the shards' parallel
// Entries; hash-partitioned stores pay the merged iteration,
// O(s·log n + n·s) for n entries over s shards.
func (v View[K, V, A, E]) Entries() []pam.KV[K, V] {
	out := make([]pam.KV[K, V], 0, v.Size())
	if v.ranged {
		for _, m := range v.shards {
			out = append(out, m.Entries()...)
		}
		return out
	}
	v.ForEach(func(k K, val V) bool {
		out = append(out, pam.KV[K, V]{Key: k, Val: val})
		return true
	})
	return out
}

// Keys materializes all keys in ascending order.
func (v View[K, V, A, E]) Keys() []K {
	out := make([]K, 0, v.Size())
	if v.ranged {
		for _, m := range v.shards {
			out = append(out, m.Keys()...)
		}
		return out
	}
	v.ForEach(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
