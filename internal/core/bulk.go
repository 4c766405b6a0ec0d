package core

import "repro/internal/parallel"

// Bulk set operations (§4 "Join, Split, Join2 and Union"): parallel
// join-based union, intersection and difference with the work bounds of
// Table 2 — O(m·log(n/m + 1)) work and O(log n · log m) span for input
// sizes n >= m. Each splits one tree by the other's root and recurses on
// the two sides in parallel, down to a sequential grain.
//
// Blocked layout: once either side shrinks to a single leaf block the
// recursion switches to flat-array merging — a block against a tree is a
// sorted bulk update, and block against block is one array merge.

// union merges t1 and t2 (both consumed). For keys present in both, the
// result value is h(v1, v2); nil h keeps t2's value (the paper's "right
// wins" default for UNION(T1, T2)).
func (o *ops[K, V, A, T]) union(t1, t2 *node[K, V, A], h func(v1, v2 V) V) *node[K, V, A] {
	if t1 == nil {
		return t2
	}
	if t2 == nil {
		return t1
	}
	if isLeaf(t2) {
		// t2's entries are a sorted batch into t1; multiInsertSorted's
		// h(old, new) = h(t1's value, t2's value) matches union, and its
		// nil-h "overwrite with new" matches t2-wins.
		n := o.multiInsertSorted(t1, o.leafRead(t2), h)
		o.dec(t2)
		return n
	}
	if isLeaf(t1) {
		// Mirror: t1's entries enter t2, so old/new swap roles.
		hh := func(old, new V) V { return old } // t2 (the tree) wins
		if h != nil {
			hh = func(old, new V) V { return h(new, old) }
		}
		n := o.multiInsertSorted(t2, o.leafRead(t1), hh)
		o.dec(t1)
		return n
	}
	// Reuse t2's root as the join middle (its entry survives into the
	// output, with a possibly combined value).
	t2 = o.mutable(t2)
	l2, r2 := t2.left, t2.right
	t2.left, t2.right = nil, nil
	s := o.split(t1, t2.key)
	if s.found && h != nil {
		t2.val = h(s.v, t2.val)
	}
	if o.forkSplit(s, l2, r2) {
		var l, r *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { l = o.union(s.l, l2, h) },
			func() { r = fo.union(s.r, r2, h) },
		)
		return o.join(l, t2, r)
	}
	l := o.union(s.l, l2, h)
	r := o.union(s.r, r2, h)
	return o.join(l, t2, r)
}

// forkSplit reports whether the two halves of a split step, s's sides
// against a node's children l2 and r2, are worth forking over: either
// side exceeds the grain.
func (o *ops[K, V, A, T]) forkSplit(s splitOut[K, V, A], l2, r2 *node[K, V, A]) bool {
	return o.forks(size(s.l)+size(l2)) || o.forks(size(s.r)+size(r2))
}

// intersect keeps the keys present in both t1 and t2 (both consumed),
// with values h(v1, v2); nil h keeps t2's value.
func (o *ops[K, V, A, T]) intersect(t1, t2 *node[K, V, A], h func(v1, v2 V) V) *node[K, V, A] {
	if t1 == nil || t2 == nil {
		o.dec(t1)
		o.dec(t2)
		return nil
	}
	if isLeaf(t2) {
		kept := make([]Entry[K, V], 0, leafLen(t2))
		o.leafScanRange(t2, 0, leafLen(t2), func(e Entry[K, V]) bool {
			if v1, ok := o.find(t1, e.Key); ok {
				if h != nil {
					e.Val = h(v1, e.Val)
				}
				kept = append(kept, e)
			}
			return true
		})
		o.dec(t1)
		o.dec(t2)
		return o.mkLeafOwned(kept)
	}
	if isLeaf(t1) {
		kept := make([]Entry[K, V], 0, leafLen(t1))
		o.leafScanRange(t1, 0, leafLen(t1), func(e Entry[K, V]) bool {
			if v2, ok := o.find(t2, e.Key); ok {
				if h != nil {
					e.Val = h(e.Val, v2)
				} else {
					e.Val = v2
				}
				kept = append(kept, e)
			}
			return true
		})
		o.dec(t1)
		o.dec(t2)
		return o.mkLeafOwned(kept)
	}
	s := o.split(t1, t2.key)
	m, l2, r2 := o.exposeIf(t2, s.found)
	if s.found && h != nil {
		m.val = h(s.v, m.val)
	}
	if o.forkSplit(s, l2, r2) {
		var l, r *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { l = o.intersect(s.l, l2, h) },
			func() { r = fo.intersect(s.r, r2, h) },
		)
		return o.joinMid(l, m, r)
	}
	l := o.intersect(s.l, l2, h)
	r := o.intersect(s.r, r2, h)
	return o.joinMid(l, m, r)
}

// difference keeps the entries of t1 whose keys are absent from t2 (both
// consumed).
func (o *ops[K, V, A, T]) difference(t1, t2 *node[K, V, A]) *node[K, V, A] {
	if t1 == nil {
		o.dec(t2)
		return nil
	}
	if t2 == nil {
		return t1
	}
	if isLeaf(t2) {
		keys := make([]K, 0, leafLen(t2))
		o.leafScanRange(t2, 0, leafLen(t2), func(e Entry[K, V]) bool {
			keys = append(keys, e.Key)
			return true
		})
		n := o.multiDeleteSorted(t1, keys)
		o.dec(t2)
		return n
	}
	if isLeaf(t1) {
		kept := make([]Entry[K, V], 0, leafLen(t1))
		o.leafScanRange(t1, 0, leafLen(t1), func(e Entry[K, V]) bool {
			if _, ok := o.find(t2, e.Key); !ok {
				kept = append(kept, e)
			}
			return true
		})
		o.dec(t1)
		o.dec(t2)
		return o.mkLeafOwned(kept)
	}
	k2 := t2.key
	l2, r2 := o.detach(t2)
	s := o.split(t1, k2)
	if o.forkSplit(s, l2, r2) {
		var l, r *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { l = o.difference(s.l, l2) },
			func() { r = fo.difference(s.r, r2) },
		)
		return o.join2(l, r)
	}
	l := o.difference(s.l, l2)
	r := o.difference(s.r, r2)
	return o.join2(l, r)
}
