package core

// Single-element operations (Table 2 "Map operations", all O(log n),
// plus O(B) array work inside the leaf block an operation lands in).
// insert and delete are built on join alone — independent of the
// balancing scheme, as in Figure 2 of the paper.

// insert adds (k, v) to t (consumed). If k is present, the stored value
// becomes h(old, v); a nil h replaces the old value.
func (o *ops[K, V, A, T]) insert(t *node[K, V, A], k K, v V, h func(old, new V) V) *node[K, V, A] {
	if t == nil {
		return o.singleton(k, v)
	}
	if isLeaf(t) {
		return o.leafInsert(t, k, v, h)
	}
	switch {
	case o.tr.Less(k, t.key):
		t = o.mutable(t)
		l, r := t.left, t.right
		return o.join(o.insert(l, k, v, h), t, r)
	case o.tr.Less(t.key, k):
		t = o.mutable(t)
		l, r := t.left, t.right
		return o.join(l, t, o.insert(r, k, v, h))
	default:
		t = o.mutable(t)
		if h != nil {
			t.val = h(t.val, v)
		} else {
			t.val = v
		}
		o.update(t)
		return t
	}
}

// leafInsert adds (k, v) to a leaf block (consumed). An overflowing
// block is split into an interior node over two half blocks.
func (o *ops[K, V, A, T]) leafInsert(t *node[K, V, A], k K, v V, h func(old, new V) V) *node[K, V, A] {
	if t.packed != nil {
		return o.leafInsertPacked(t, k, v, h)
	}
	i, found := o.leafSearch(t.items, k)
	if found {
		t = o.mutable(t)
		if h != nil {
			t.items[i].Val = h(t.items[i].Val, v)
		} else {
			t.items[i].Val = v
		}
		t.aug = o.leafAug(t.items)
		return t
	}
	b := o.blockSize()
	if len(t.items) < b {
		if t.refs.Load() == 1 && cap(t.items) > len(t.items) {
			// Exclusively owned with slack: shift in place.
			if o.stats != nil {
				o.stats.Reuses.Add(1)
			}
			t.unstamp()
			t.items = t.items[:len(t.items)+1]
			copy(t.items[i+1:], t.items[i:])
			t.items[i] = Entry[K, V]{Key: k, Val: v}
			t.size = int64(len(t.items))
			t.aug = o.leafAug(t.items)
			return t
		}
		// Regrow with slack so in-place loads amortize reallocation.
		grown := make([]Entry[K, V], len(t.items)+1, min(b, max(len(t.items)+1, 2*len(t.items))))
		copy(grown, t.items[:i])
		grown[i] = Entry[K, V]{Key: k, Val: v}
		copy(grown[i+1:], t.items[i:])
		if t.refs.Load() == 1 {
			if o.stats != nil {
				o.stats.Reuses.Add(1)
			}
			t.unstamp()
			t.items = grown
			t.size = int64(len(grown))
			t.aug = o.leafAug(grown)
			return t
		}
		n := o.mkLeafOwned(grown)
		o.dec(t)
		return n
	}
	// Full block: split around the median into two blocks.
	all := make([]Entry[K, V], 0, len(t.items)+1)
	all = append(all, t.items[:i]...)
	all = append(all, Entry[K, V]{Key: k, Val: v})
	all = append(all, t.items[i:]...)
	o.dec(t)
	return o.twoBlockNode(all, packHint{})
}

// leafInsertPacked is leafInsert for a compressed block: decode into a
// scratch slice, edit, re-encode (in place when exclusively owned).
func (o *ops[K, V, A, T]) leafInsertPacked(t *node[K, V, A], k K, v V, h func(old, new V) V) *node[K, V, A] {
	items := o.leafAppendTo(make([]Entry[K, V], 0, leafLen(t)+1), t)
	i, found := o.leafSearch(items, k)
	if found {
		if h != nil {
			items[i].Val = h(items[i].Val, v)
		} else {
			items[i].Val = v
		}
		return o.rebuildLeaf(t, items)
	}
	if len(items) < o.blockSize() {
		items = append(items, Entry[K, V]{})
		copy(items[i+1:], items[i:])
		items[i] = Entry[K, V]{Key: k, Val: v}
		return o.rebuildLeaf(t, items)
	}
	// Full block: split around the median into two blocks.
	items = append(items, Entry[K, V]{})
	copy(items[i+1:], items[i:])
	items[i] = Entry[K, V]{Key: k, Val: v}
	hint := packHintOf(t)
	o.dec(t)
	return o.twoBlockNode(items, hint)
}

// remove deletes k from t (consumed) if present.
func (o *ops[K, V, A, T]) remove(t *node[K, V, A], k K) *node[K, V, A] {
	if t == nil {
		return nil
	}
	if isLeaf(t) {
		i, found := o.leafBound(t, k)
		if !found {
			return t
		}
		return o.leafWithout(t, i)
	}
	switch {
	case o.tr.Less(k, t.key):
		t = o.mutable(t)
		l, r := t.left, t.right
		return o.join(o.remove(l, k), t, r)
	case o.tr.Less(t.key, k):
		t = o.mutable(t)
		l, r := t.left, t.right
		return o.join(l, t, o.remove(r, k))
	default:
		l, r := o.detach(t)
		return o.join2(l, r)
	}
}

// find looks up k (borrows t).
func (o *ops[K, V, A, T]) find(t *node[K, V, A], k K) (V, bool) {
	for t != nil {
		if isLeaf(t) {
			if t.packed != nil {
				// One sequential pass: decode-and-compare beats the
				// walk-twice leafBound+leafAt combination on the hot path.
				c := o.packedCursorOf(t)
				for {
					e, more := c.next()
					if !more || o.tr.Less(k, e.Key) {
						break
					}
					if !o.tr.Less(e.Key, k) {
						return e.Val, true
					}
				}
				break
			}
			if i, found := o.leafSearch(t.items, k); found {
				return t.items[i].Val, true
			}
			break
		}
		switch {
		case o.tr.Less(k, t.key):
			t = t.left
		case o.tr.Less(t.key, k):
			t = t.right
		default:
			return t.val, true
		}
	}
	var zero V
	return zero, false
}

// first returns the minimum entry (borrows t, which must be non-nil).
func (o *ops[K, V, A, T]) first(t *node[K, V, A]) (K, V) {
	for !isLeaf(t) && t.left != nil {
		t = t.left
	}
	if isLeaf(t) {
		e := o.leafAt(t, 0)
		return e.Key, e.Val
	}
	return t.key, t.val
}

// last returns the maximum entry (borrows t, which must be non-nil).
func (o *ops[K, V, A, T]) last(t *node[K, V, A]) (K, V) {
	for !isLeaf(t) && t.right != nil {
		t = t.right
	}
	if isLeaf(t) {
		e := o.leafAt(t, leafLen(t)-1)
		return e.Key, e.Val
	}
	return t.key, t.val
}

// previous returns the largest entry with key strictly less than k.
func (o *ops[K, V, A, T]) previous(t *node[K, V, A], k K) (K, V, bool) {
	var bk K
	var bv V
	ok := false
	for t != nil {
		if isLeaf(t) {
			if i, _ := o.leafBound(t, k); i > 0 {
				e := o.leafAt(t, i-1)
				bk, bv, ok = e.Key, e.Val, true
			}
			break
		}
		if o.tr.Less(t.key, k) {
			bk, bv, ok = t.key, t.val, true
			t = t.right
		} else {
			t = t.left
		}
	}
	return bk, bv, ok
}

// next returns the smallest entry with key strictly greater than k.
func (o *ops[K, V, A, T]) next(t *node[K, V, A], k K) (K, V, bool) {
	var bk K
	var bv V
	ok := false
	for t != nil {
		if isLeaf(t) {
			i, found := o.leafBound(t, k)
			if found {
				i++
			}
			if i < leafLen(t) {
				e := o.leafAt(t, i)
				bk, bv, ok = e.Key, e.Val, true
			}
			break
		}
		if o.tr.Less(k, t.key) {
			bk, bv, ok = t.key, t.val, true
			t = t.left
		} else {
			t = t.right
		}
	}
	return bk, bv, ok
}

// rank returns the number of entries with key strictly less than k.
func (o *ops[K, V, A, T]) rank(t *node[K, V, A], k K) int64 {
	var r int64
	for t != nil {
		if isLeaf(t) {
			i, _ := o.leafBound(t, k)
			return r + int64(i)
		}
		if o.tr.Less(t.key, k) {
			r += size(t.left) + 1
			t = t.right
		} else {
			t = t.left
		}
	}
	return r
}

// selectAt returns the entry with rank i (0-based); ok is false if i is
// out of range.
func (o *ops[K, V, A, T]) selectAt(t *node[K, V, A], i int64) (K, V, bool) {
	for t != nil {
		if isLeaf(t) {
			if i < 0 || i >= int64(leafLen(t)) {
				break
			}
			e := o.leafAt(t, int(i))
			return e.Key, e.Val, true
		}
		ls := size(t.left)
		switch {
		case i < ls:
			t = t.left
		case i == ls:
			return t.key, t.val, true
		default:
			i -= ls + 1
			t = t.right
		}
	}
	var zk K
	var zv V
	return zk, zv, false
}
