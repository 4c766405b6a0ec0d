package core

// join is the single scheme-specific operation (§4): everything else is
// built from it. join(l, m, r) composes two trees and a middle node m
// with max(l) < m.key < min(r), returning a balanced tree. All three
// arguments are consumed: l and r transfer one reference each, and m must
// be an exclusively-owned bare interior node (its child pointers are
// ignored and overwritten; callers pass either a fresh allocation or a
// node they have detached from its old children via mutable).
//
// Blocked layout: when the whole result fits in one leaf block it is
// collapsed into one — valid under every scheme, since join's contract
// is "compose any two valid trees" and a leaf is a valid tree. This is
// the single point where fragmented fringes re-compact.
func (o *ops[K, V, A, T]) join(l *node[K, V, A], m *node[K, V, A], r *node[K, V, A]) *node[K, V, A] {
	if size(l)+size(r)+1 <= int64(o.blockSize()) {
		return o.collapseJoin(l, m, r)
	}
	switch o.sch {
	case AVL:
		return o.joinAVL(l, m, r)
	case RedBlack:
		return o.joinRB(l, m, r)
	case Treap:
		return o.joinTreap(l, m, r)
	default:
		return o.joinWB(l, m, r)
	}
}

// joinKV is join with a middle entry supplied directly, so a collapse
// into a leaf block skips allocating the middle node.
func (o *ops[K, V, A, T]) joinKV(l *node[K, V, A], k K, v V, r *node[K, V, A]) *node[K, V, A] {
	if total := size(l) + size(r) + 1; total <= int64(o.blockSize()) {
		buf := make([]Entry[K, V], 0, total)
		buf = o.gather(l, buf)
		buf = append(buf, Entry[K, V]{Key: k, Val: v})
		buf = o.gather(r, buf)
		o.dec(l)
		o.dec(r)
		return o.mkLeafOwned(buf)
	}
	return o.join(l, o.alloc(k, v), r)
}

// collapseJoin merges l, m's entry, and r (all consumed; total size at
// most one block) into a single leaf block.
func (o *ops[K, V, A, T]) collapseJoin(l, m, r *node[K, V, A]) *node[K, V, A] {
	buf := make([]Entry[K, V], 0, size(l)+size(r)+1)
	buf = o.gather(l, buf)
	buf = append(buf, Entry[K, V]{Key: m.key, Val: m.val})
	buf = o.gather(r, buf)
	o.dec(l)
	o.dec(r)
	m.left, m.right = nil, nil
	o.dec(m)
	return o.mkLeafOwned(buf)
}

// attach makes m the parent of l and r and recomputes its derived fields.
// m must be exclusively owned.
func (o *ops[K, V, A, T]) attach(m, l, r *node[K, V, A]) *node[K, V, A] {
	m.left, m.right = l, r
	o.update(m)
	return m
}

// rotateLeft performs a left rotation at t (t.right becomes the root) and
// returns the new root. t is consumed; t.right must be non-nil. A leaf
// pivot is expanded first (weight-balanced callers only — expansion is
// weight-neutral).
func (o *ops[K, V, A, T]) rotateLeft(t *node[K, V, A]) *node[K, V, A] {
	t = o.mutable(t)
	if isLeaf(t.right) {
		t.right = o.expandLeaf(t.right)
	}
	r := o.mutable(t.right)
	t.right = r.left
	o.update(t)
	r.left = t
	o.update(r)
	return r
}

// rotateRight performs a right rotation at t (t.left becomes the root).
func (o *ops[K, V, A, T]) rotateRight(t *node[K, V, A]) *node[K, V, A] {
	t = o.mutable(t)
	if isLeaf(t.left) {
		t.left = o.expandLeaf(t.left)
	}
	l := o.mutable(t.left)
	t.left = l.right
	o.update(t)
	l.right = t
	o.update(l)
	return l
}

// splitOut is the result of split: the entries less than the split key,
// those greater, and the value at the key if present.
type splitOut[K, V, A any] struct {
	l, r  *node[K, V, A]
	v     V
	found bool
}

// split divides t (consumed) around key k. O(log n + B) work for
// balanced t. Interior nodes along the split path are reused as join
// middles when exclusively owned (the reuse optimization); the leaf the
// key lands in is cut into two fresh blocks.
func (o *ops[K, V, A, T]) split(t *node[K, V, A], k K) splitOut[K, V, A] {
	if t == nil {
		return splitOut[K, V, A]{}
	}
	if isLeaf(t) {
		i, found := o.leafBound(t, k)
		out := splitOut[K, V, A]{found: found}
		j := i
		if found {
			out.v = o.leafAt(t, i).Val
			j = i + 1
		}
		out.l = o.leafSlice(t, 0, i)
		out.r = o.leafSlice(t, j, leafLen(t))
		o.dec(t)
		return out
	}
	switch {
	case o.tr.Less(k, t.key):
		t = o.mutable(t)
		l0, r0 := t.left, t.right
		s := o.split(l0, k)
		s.r = o.join(s.r, t, r0)
		return s
	case o.tr.Less(t.key, k):
		t = o.mutable(t)
		l0, r0 := t.left, t.right
		s := o.split(r0, k)
		s.l = o.join(l0, t, s.l)
		return s
	default:
		val := t.val
		l0, r0 := o.detach(t)
		return splitOut[K, V, A]{l: l0, r: r0, v: val, found: true}
	}
}

// splitLast removes the maximum entry of t (consumed, non-nil), returning
// the remaining tree and the removed entry.
func (o *ops[K, V, A, T]) splitLast(t *node[K, V, A]) (rest *node[K, V, A], k K, v V) {
	if isLeaf(t) {
		e := o.leafAt(t, leafLen(t)-1)
		rest = o.leafWithout(t, leafLen(t)-1)
		return rest, e.Key, e.Val
	}
	if t.right == nil {
		k, v = t.key, t.val
		l0, _ := o.detach(t)
		return l0, k, v
	}
	t = o.mutable(t)
	l0, r0 := t.left, t.right
	rest, k, v = o.splitLast(r0)
	return o.join(l0, t, rest), k, v
}

// splitFirst removes the minimum entry of t (consumed, non-nil).
func (o *ops[K, V, A, T]) splitFirst(t *node[K, V, A]) (rest *node[K, V, A], k K, v V) {
	if isLeaf(t) {
		e := o.leafAt(t, 0)
		rest = o.leafWithout(t, 0)
		return rest, e.Key, e.Val
	}
	if t.left == nil {
		k, v = t.key, t.val
		_, r0 := o.detach(t)
		return r0, k, v
	}
	t = o.mutable(t)
	l0, r0 := t.left, t.right
	rest, k, v = o.splitFirst(l0)
	return o.join(rest, t, r0), k, v
}

// leafWithout returns t (an owned leaf) without the entry at index i,
// consuming t; nil when it was the last entry. An exclusively owned
// block is edited in place.
func (o *ops[K, V, A, T]) leafWithout(t *node[K, V, A], i int) *node[K, V, A] {
	if leafLen(t) == 1 {
		o.dec(t)
		return nil
	}
	if t.packed != nil {
		items := o.leafRead(t)
		return o.rebuildLeaf(t, append(items[:i], items[i+1:]...))
	}
	t = o.mutable(t)
	t.items = append(t.items[:i], t.items[i+1:]...)
	t.size = int64(len(t.items))
	t.aug = o.leafAug(t.items)
	return t
}

// joinMid is join around m, or join2 when m is nil: the recombination
// of a recursion that keeps or drops its root entry.
func (o *ops[K, V, A, T]) joinMid(l, m, r *node[K, V, A]) *node[K, V, A] {
	if m == nil {
		return o.join2(l, r)
	}
	return o.join(l, m, r)
}

// join2 composes two trees without a middle entry (max(l) < min(r)).
func (o *ops[K, V, A, T]) join2(l, r *node[K, V, A]) *node[K, V, A] {
	if l == nil {
		return r
	}
	rest, k, v := o.splitLast(l)
	return o.joinKV(rest, k, v, r)
}
