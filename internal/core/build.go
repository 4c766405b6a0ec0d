package core

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/seq"
)

// Entry is a key-value pair, the element type of build and export
// operations.
type Entry[K, V any] struct {
	Key K
	Val V
}

// build constructs a tree from arbitrary entries, as in Figure 2: sort by
// key (stable, in parallel), combine duplicates left-to-right with h (nil
// h keeps the last value), then a balanced divide-and-conquer over leaf
// blocks and joins. O(n log n) work, O(log n) span beyond the sort. The
// input slice is not modified.
func (o *ops[K, V, A, T]) build(items []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	if len(items) == 0 {
		return nil
	}
	s := make([]Entry[K, V], len(items))
	copy(s, items)
	seq.SortStable(s, func(a, b Entry[K, V]) bool { return o.tr.Less(a.Key, b.Key) })
	if h == nil {
		h = func(_, new V) V { return new }
	}
	eq := func(a, b Entry[K, V]) bool {
		return !o.tr.Less(a.Key, b.Key) && !o.tr.Less(b.Key, a.Key)
	}
	s = seq.DedupSortedBy(s, eq, func(acc, next Entry[K, V]) Entry[K, V] {
		return Entry[K, V]{Key: acc.Key, Val: h(acc.Val, next.Val)}
	})
	return o.buildSorted(s)
}

// buildSorted constructs a tree from strictly-increasing entries (BUILD'
// in Figure 2, blocked): runs that fit a leaf block become one block
// (with a private copy of the entries — the caller keeps its slice), and
// Larger inputs split over the *minimal* number of leaf blocks rather
// than at the entry median: halving entries leaves every block just over
// half full, while giving each side its proportional share of
// ceil((n+1)/(B+1)) blocks lays the fringe out near-full — fewer nodes,
// fewer cache lines per scan, and (under compression) a smaller fixed
// overhead per entry. Joins rebalance, so the split point only chooses
// the layout, never threatens the invariants.
func (o *ops[K, V, A, T]) buildSorted(s []Entry[K, V]) *node[K, V, A] {
	if len(s) <= o.blockSize() {
		return o.mkLeafCopy(s)
	}
	b, n := o.blockSize(), len(s)
	blocks := (n + 1 + b) / (b + 1) // ceil((n+1)/(b+1)), >= 2 here
	lb := blocks / 2
	inBlocks := n - (blocks - 1) // entries living in blocks, not pivots
	mid := inBlocks*lb/blocks + (lb - 1)
	var l, r *node[K, V, A]
	parallel.DoIf(int64(len(s)) > o.grainSize(),
		func() { l = o.buildSorted(s[:mid]) },
		func() { r = o.buildSorted(s[mid+1:]) },
	)
	return o.joinKV(l, s[mid].Key, s[mid].Val, r)
}

// multiInsert inserts a batch of entries into t (consumed): sort and
// dedup the batch, then recursively partition it around tree nodes,
// descending both sides in parallel and merging batch runs directly into
// the leaf blocks they land in. Keys already present combine as
// h(old, new); nil h overwrites.
func (o *ops[K, V, A, T]) multiInsert(t *node[K, V, A], items []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	if len(items) == 0 {
		return t
	}
	s := make([]Entry[K, V], len(items))
	copy(s, items)
	seq.SortStable(s, func(a, b Entry[K, V]) bool { return o.tr.Less(a.Key, b.Key) })
	hh := h
	if hh == nil {
		hh = func(_, new V) V { return new }
	}
	eq := func(a, b Entry[K, V]) bool {
		return !o.tr.Less(a.Key, b.Key) && !o.tr.Less(b.Key, a.Key)
	}
	s = seq.DedupSortedBy(s, eq, func(acc, next Entry[K, V]) Entry[K, V] {
		return Entry[K, V]{Key: acc.Key, Val: hh(acc.Val, next.Val)}
	})
	return o.multiInsertSorted(t, s, h)
}

func (o *ops[K, V, A, T]) multiInsertSorted(t *node[K, V, A], s []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	if t == nil {
		return o.buildSorted(s)
	}
	if len(s) == 0 {
		return t
	}
	if isLeaf(t) {
		return o.leafMergeSorted(t, s, h)
	}
	t = o.mutable(t)
	l, r := t.left, t.right
	pos := seq.LowerBound(s, Entry[K, V]{Key: t.key}, func(a, b Entry[K, V]) bool {
		return o.tr.Less(a.Key, b.Key)
	})
	right := pos
	if pos < len(s) && !o.tr.Less(t.key, s[pos].Key) {
		// s[pos].Key == t.key: merge into the existing entry.
		if h != nil {
			t.val = h(t.val, s[pos].Val)
		} else {
			t.val = s[pos].Val
		}
		right = pos + 1
	}
	var nl, nr *node[K, V, A]
	parallel.DoIf(o.forkBatch(len(s), size(t)),
		func() { nl = o.multiInsertSorted(l, s[:pos], h) },
		func() { nr = o.multiInsertSorted(r, s[right:], h) },
	)
	return o.join(nl, t, nr)
}

// forkBatch reports whether a batch of m sorted keys against an
// n-entry subtree is worth forking over: its work, m·log2(n/m+1)
// (Table 2), exceeds the grain. The work shrinks with both m and n, so
// once a batch stops forking, none of its subproblems fork either.
func (o *ops[K, V, A, T]) forkBatch(m int, n int64) bool {
	w := float64(m) * math.Log2(float64(n)/float64(m)+1)
	return w > float64(o.grainSize())
}

// leafMergeSorted merges a sorted, deduplicated batch into a leaf block
// (consumed), rebuilding the region as blocks when it overflows.
// Collisions combine as h(block value, batch value); nil h overwrites.
func (o *ops[K, V, A, T]) leafMergeSorted(t *node[K, V, A], s []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	items := o.leafRead(t)
	merged := make([]Entry[K, V], 0, len(items)+len(s))
	i, j := 0, 0
	for i < len(items) && j < len(s) {
		switch {
		case o.tr.Less(items[i].Key, s[j].Key):
			merged = append(merged, items[i])
			i++
		case o.tr.Less(s[j].Key, items[i].Key):
			merged = append(merged, s[j])
			j++
		default:
			e := items[i]
			if h != nil {
				e.Val = h(e.Val, s[j].Val)
			} else {
				e.Val = s[j].Val
			}
			merged = append(merged, e)
			i++
			j++
		}
	}
	merged = append(merged, items[i:]...)
	merged = append(merged, s[j:]...)
	o.dec(t)
	b := o.blockSize()
	switch {
	case len(merged) <= b:
		return o.mkLeafOwned(merged)
	case len(merged) <= 2*b+1:
		// The common overflow (a block plus a batch tail): slice the
		// owned merged array into two blocks without another copy.
		return o.twoBlockNode(merged)
	default:
		return o.buildSorted(merged)
	}
}

// multiDelete removes a batch of keys from t (consumed). The key slice is
// not modified.
func (o *ops[K, V, A, T]) multiDelete(t *node[K, V, A], keys []K) *node[K, V, A] {
	if len(keys) == 0 {
		return t
	}
	s := make([]K, len(keys))
	copy(s, keys)
	seq.Sort(s, o.tr.Less)
	s = seq.DedupSortedBy(s,
		func(a, b K) bool { return !o.tr.Less(a, b) && !o.tr.Less(b, a) },
		func(acc, _ K) K { return acc })
	return o.multiDeleteSorted(t, s)
}

func (o *ops[K, V, A, T]) multiDeleteSorted(t *node[K, V, A], s []K) *node[K, V, A] {
	if t == nil || len(s) == 0 {
		return t
	}
	if isLeaf(t) {
		doomed := func(e Entry[K, V]) bool {
			pos := seq.LowerBound(s, e.Key, o.tr.Less)
			return pos < len(s) && !o.tr.Less(e.Key, s[pos])
		}
		// Allocation-free scan first: most visited blocks contain no
		// batch key at all and are returned untouched.
		first, at := -1, 0
		o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
			if doomed(e) {
				first = at
				return false
			}
			at++
			return true
		})
		if first < 0 {
			return t
		}
		items := o.leafRead(t)
		kept := make([]Entry[K, V], 0, len(items)-1)
		kept = append(kept, items[:first]...)
		for _, e := range items[first+1:] {
			if !doomed(e) {
				kept = append(kept, e)
			}
		}
		o.dec(t)
		return o.mkLeafOwned(kept)
	}
	pos := seq.LowerBound(s, t.key, o.tr.Less)
	found := pos < len(s) && !o.tr.Less(t.key, s[pos])
	right := pos
	if found {
		right = pos + 1
	}
	var l, r *node[K, V, A]
	if found {
		l, r = o.detach(t)
	} else {
		t = o.mutable(t)
		l, r = t.left, t.right
	}
	var nl, nr *node[K, V, A]
	parallel.DoIf(o.forkBatch(len(s), size(l)+size(r)),
		func() { nl = o.multiDeleteSorted(l, s[:pos]) },
		func() { nr = o.multiDeleteSorted(r, s[right:]) },
	)
	if found {
		return o.join2(nl, nr)
	}
	return o.join(nl, t, nr)
}
