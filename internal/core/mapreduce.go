package core

import "repro/internal/parallel"

// forEach visits entries in key order, sequentially (borrows t).
// The visitor returns false to stop early; forEach reports whether the
// walk ran to completion.
func (o *ops[K, V, A, T]) forEach(t *node[K, V, A], visit func(k K, v V) bool) bool {
	if t == nil {
		return true
	}
	if isLeaf(t) {
		return o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
			return visit(e.Key, e.Val)
		})
	}
	return o.forEach(t.left, visit) && visit(t.key, t.val) && o.forEach(t.right, visit)
}

// toSlice materializes the entries in key order. Each subtree writes into
// its own slice segment (offsets are known from subtree sizes) and leaf
// blocks bulk-copy, so the fill parallelizes perfectly. Borrows t.
func (o *ops[K, V, A, T]) toSlice(t *node[K, V, A]) []Entry[K, V] {
	out := make([]Entry[K, V], size(t))
	o.fillSlice(t, out)
	return out
}

func (o *ops[K, V, A, T]) fillSlice(t *node[K, V, A], out []Entry[K, V]) {
	if t == nil {
		return
	}
	if isLeaf(t) {
		if t.packed != nil {
			o.leafAppendTo(out[:0], t) // decodes into the segment in place
			return
		}
		copy(out, t.items)
		return
	}
	ls := size(t.left)
	out[ls] = Entry[K, V]{Key: t.key, Val: t.val}
	if o.forks(t.size) {
		fo := o.forked()
		parallel.Do(
			func() { o.fillSlice(t.left, out[:ls]) },
			func() { fo.fillSlice(t.right, out[ls+1:]) },
		)
		return
	}
	o.fillSlice(t.left, out[:ls])
	o.fillSlice(t.right, out[ls+1:])
}

// keys materializes the keys in order, in parallel. Borrows t.
func (o *ops[K, V, A, T]) keys(t *node[K, V, A]) []K {
	out := make([]K, size(t))
	o.fillKeys(t, out)
	return out
}

func (o *ops[K, V, A, T]) fillKeys(t *node[K, V, A], out []K) {
	if t == nil {
		return
	}
	if isLeaf(t) {
		i := 0
		o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
			out[i] = e.Key
			i++
			return true
		})
		return
	}
	ls := size(t.left)
	out[ls] = t.key
	if o.forks(t.size) {
		fo := o.forked()
		parallel.Do(
			func() { o.fillKeys(t.left, out[:ls]) },
			func() { fo.fillKeys(t.right, out[ls+1:]) },
		)
		return
	}
	o.fillKeys(t.left, out[:ls])
	o.fillKeys(t.right, out[ls+1:])
}

// mapValues rebuilds t (consumed) with values fn(k, v). The tree shape is
// reused; augmented values are recomputed bottom-up. O(n) work,
// O(log n) span.
func (o *ops[K, V, A, T]) mapValues(t *node[K, V, A], fn func(k K, v V) V) *node[K, V, A] {
	if t == nil {
		return nil
	}
	t = o.mutable(t)
	if isLeaf(t) {
		if t.packed != nil {
			items := o.leafRead(t)
			for i := range items {
				items[i].Val = fn(items[i].Key, items[i].Val)
			}
			return o.rebuildLeaf(t, items)
		}
		for i := range t.items {
			t.items[i].Val = fn(t.items[i].Key, t.items[i].Val)
		}
		t.aug = o.leafAug(t.items)
		return t
	}
	if o.forks(t.size) {
		l, r := t.left, t.right
		var nl, nr *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { nl = o.mapValues(l, fn) },
			func() { nr = fo.mapValues(r, fn) },
		)
		t.left, t.right = nl, nr
	} else {
		t.left = o.mapValues(t.left, fn)
		t.right = o.mapValues(t.right, fn)
	}
	t.val = fn(t.key, t.val)
	o.update(t)
	return t
}

// mapReduceNode applies g to every entry and combines the results with f
// (identity id), in parallel over the tree structure (MAPREDUCE in
// Figure 2); leaf blocks fold sequentially. It is a free function
// because the result type B is not a parameter of ops. Borrows t. O(n)
// work, O(log n) span given constant-time f and g.
func mapReduceNode[K, V, A, B any, T Traits[K, V, A]](o *ops[K, V, A, T], t *node[K, V, A], g func(k K, v V) B, f func(x, y B) B, id B) B {
	if t == nil {
		return id
	}
	if isLeaf(t) {
		acc := id
		o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
			acc = f(acc, g(e.Key, e.Val))
			return true
		})
		return acc
	}
	if o.forks(t.size) {
		var lv, rv B
		fo := o.forked()
		parallel.Do(
			func() { lv = mapReduceNode(o, t.left, g, f, id) },
			func() { rv = mapReduceNode(fo, t.right, g, f, id) },
		)
		return f(lv, f(g(t.key, t.val), rv))
	}
	lv := mapReduceNode(o, t.left, g, f, id)
	rv := mapReduceNode(o, t.right, g, f, id)
	return f(lv, f(g(t.key, t.val), rv))
}
