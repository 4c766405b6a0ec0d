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
	return o.buildSorted(o.sortedBatch(items, h))
}

// sortedBatch returns a copy of items sorted by key (stable, in
// parallel) with duplicate keys combined left-to-right by h (nil h keeps
// the last value). Its closures capture the traits rather than o: the
// sort hands them to forked tasks, which would move o to the heap.
func (o *ops[K, V, A, T]) sortedBatch(items []Entry[K, V], h func(old, new V) V) []Entry[K, V] {
	tr := o.tr
	s := make([]Entry[K, V], len(items))
	copy(s, items)
	seq.SortStable(s, func(a, b Entry[K, V]) bool { return tr.Less(a.Key, b.Key) })
	if h == nil {
		h = func(_, new V) V { return new }
	}
	eq := func(a, b Entry[K, V]) bool {
		return !tr.Less(a.Key, b.Key) && !tr.Less(b.Key, a.Key)
	}
	return seq.DedupSortedBy(s, eq, func(acc, next Entry[K, V]) Entry[K, V] {
		return Entry[K, V]{Key: acc.Key, Val: h(acc.Val, next.Val)}
	})
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
	if o.forks(int64(len(s))) {
		var l, r *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { l = o.buildSorted(s[:mid]) },
			func() { r = fo.buildSorted(s[mid+1:]) },
		)
		return o.joinKV(l, s[mid].Key, s[mid].Val, r)
	}
	l := o.buildSorted(s[:mid])
	r := o.buildSorted(s[mid+1:])
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
	return o.multiInsertSorted(t, o.sortedBatch(items, h), h)
}

// multiInsertSorted merges a sorted, deduplicated batch s into t
// (consumed), forking while forkBatch allows.
func (o *ops[K, V, A, T]) multiInsertSorted(t *node[K, V, A], s []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	return o.multiInsertRec(t, s, h, true)
}

// multiInsertRec is multiInsertSorted's recursion. mayFork is false
// once an ancestor call declined to fork: none of its subproblems fork
// either (see forkBatch), so they recurse with plain calls and never
// test the rule again.
func (o *ops[K, V, A, T]) multiInsertRec(t *node[K, V, A], s []Entry[K, V], h func(old, new V) V, mayFork bool) *node[K, V, A] {
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
	if mayFork && o.forkBatch(len(s), size(t)) {
		var nl, nr *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { nl = o.multiInsertRec(l, s[:pos], h, true) },
			func() { nr = fo.multiInsertRec(r, s[right:], h, true) },
		)
		return o.join(nl, t, nr)
	}
	nl := o.multiInsertRec(l, s[:pos], h, false)
	nr := o.multiInsertRec(r, s[right:], h, false)
	return o.join(nl, t, nr)
}

// forkBatch reports whether a batch of m sorted keys against an
// n-entry subtree is worth forking over: its work, m·log2(n/m+1)
// (Table 2), exceeds the grain (and, as for forks, there is a second
// worker). The work shrinks with both m and n, so once a batch stops
// forking, none of its subproblems fork either: the recursions pass a
// declined fork down as mayFork and test the rule only on the forking
// path.
func (o *ops[K, V, A, T]) forkBatch(m int, n int64) bool {
	w := float64(m) * math.Log2(float64(n)/float64(m)+1)
	return w > float64(o.grainSize()) && parallel.Parallelism() > 1
}

// leafMergeSorted merges a sorted, deduplicated batch into a leaf block
// (consumed), rebuilding the region as blocks when it overflows.
// Collisions combine as h(block value, batch value); nil h overwrites.
// A packed block is decoded into the tail of the merge buffer rather
// than into a copy of its own: the merge writes index i+j, which stays
// below the read index len(s)+i until the batch runs out, so one
// forward loop serves both layouts in place.
func (o *ops[K, V, A, T]) leafMergeSorted(t *node[K, V, A], s []Entry[K, V], h func(old, new V) V) *node[K, V, A] {
	merged := make([]Entry[K, V], len(s)+leafLen(t))
	items := t.items
	if items == nil {
		items = o.leafAppendTo(merged[len(s):len(s)], t)
	}
	i, j, w := 0, 0, 0
	for i < len(items) && j < len(s) {
		switch {
		case o.tr.Less(items[i].Key, s[j].Key):
			merged[w] = items[i]
			i++
		case o.tr.Less(s[j].Key, items[i].Key):
			merged[w] = s[j]
			j++
		default:
			e := items[i]
			if h != nil {
				e.Val = h(e.Val, s[j].Val)
			} else {
				e.Val = s[j].Val
			}
			merged[w] = e
			i++
			j++
		}
		w++
	}
	w += copy(merged[w:], items[i:])
	w += copy(merged[w:], s[j:])
	merged = merged[:w]
	hint := packHintOf(t)
	o.dec(t)
	b := o.blockSize()
	switch {
	case len(merged) <= b:
		return o.mkLeafSized(merged, hint)
	case len(merged) <= 2*b+1:
		// The common overflow (a block plus a batch tail): slice the
		// owned merged array into two blocks without another copy.
		return o.twoBlockNode(merged, hint)
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
	tr := o.tr // not o: see sortedBatch
	s := make([]K, len(keys))
	copy(s, keys)
	seq.Sort(s, tr.Less)
	s = seq.DedupSortedBy(s,
		func(a, b K) bool { return !tr.Less(a, b) && !tr.Less(b, a) },
		func(acc, _ K) K { return acc })
	return o.multiDeleteSorted(t, s)
}

// multiDeleteSorted removes a sorted, deduplicated batch of keys from t
// (consumed), forking while forkBatch allows.
func (o *ops[K, V, A, T]) multiDeleteSorted(t *node[K, V, A], s []K) *node[K, V, A] {
	return o.multiDeleteRec(t, s, true)
}

// multiDeleteRec is multiDeleteSorted's recursion; mayFork is as in
// multiInsertRec.
func (o *ops[K, V, A, T]) multiDeleteRec(t *node[K, V, A], s []K, mayFork bool) *node[K, V, A] {
	if t == nil || len(s) == 0 {
		return t
	}
	if isLeaf(t) {
		return o.leafFilter(t, func(k K, _ V) bool {
			pos := seq.LowerBound(s, k, o.tr.Less)
			return pos == len(s) || o.tr.Less(k, s[pos])
		})
	}
	pos := seq.LowerBound(s, t.key, o.tr.Less)
	found := pos < len(s) && !o.tr.Less(t.key, s[pos])
	right := pos
	if found {
		right = pos + 1
	}
	m, l, r := o.exposeIf(t, !found)
	if mayFork && o.forkBatch(len(s), size(l)+size(r)) {
		var nl, nr *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { nl = o.multiDeleteRec(l, s[:pos], true) },
			func() { nr = fo.multiDeleteRec(r, s[right:], true) },
		)
		return o.joinMid(nl, m, nr)
	}
	nl := o.multiDeleteRec(l, s[:pos], false)
	nr := o.multiDeleteRec(r, s[right:], false)
	return o.joinMid(nl, m, nr)
}
