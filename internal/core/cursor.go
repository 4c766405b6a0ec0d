package core

// Cursor is a stateful in-order iterator over a tree snapshot: Seek in
// O(log n), Next in amortized O(1) — and within a leaf block, a plain
// array scan. Because trees are persistent the cursor stays valid
// regardless of later updates to other handles — it iterates the version
// it was created from. Not safe for concurrent use of a single Cursor;
// create one per goroutine.
type Cursor[K, V, A any, T Traits[K, V, A]] struct {
	o *ops[K, V, A, T]
	// stack holds the path of interior nodes whose entry is still to be
	// emitted (each pushed node's left subtree has been fully handled).
	stack []*node[K, V, A]
	// leafItems/leafIdx point into the block currently being scanned, if
	// any: the block's own array for a flat leaf, the decode scratch for
	// a compressed one.
	leafItems []Entry[K, V]
	leafIdx   int
	// buf is the reusable decode scratch — one block decode per
	// compressed leaf visited, amortized across the whole iteration.
	buf []Entry[K, V]
}

// Cursor returns a cursor positioned before the first entry.
func (t Tree[K, V, A, T]) Cursor() *Cursor[K, V, A, T] {
	c := &Cursor[K, V, A, T]{o: t.o(), stack: make([]*node[K, V, A], 0, 32)}
	c.pushLeftSpine(t.root)
	return c
}

func (c *Cursor[K, V, A, T]) pushLeftSpine(n *node[K, V, A]) {
	for n != nil {
		if isLeaf(n) {
			c.setLeaf(n, 0)
			return
		}
		c.stack = append(c.stack, n)
		n = n.left
	}
}

// setLeaf positions the cursor at index i of leaf block n.
func (c *Cursor[K, V, A, T]) setLeaf(n *node[K, V, A], i int) {
	if n.packed != nil {
		c.buf = c.o.leafAppendTo(c.buf[:0], n)
		c.leafItems = c.buf
	} else {
		c.leafItems = n.items
	}
	c.leafIdx = i
}

// Next advances to the next entry; ok is false when exhausted.
func (c *Cursor[K, V, A, T]) Next() (k K, v V, ok bool) {
	if c.leafItems != nil {
		e := c.leafItems[c.leafIdx]
		c.leafIdx++
		if c.leafIdx == len(c.leafItems) {
			c.leafItems = nil
		}
		return e.Key, e.Val, true
	}
	if len(c.stack) == 0 {
		return k, v, false
	}
	n := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	c.pushLeftSpine(n.right)
	return n.key, n.val, true
}

// SeekGE repositions the cursor so that the next emitted entry is the
// first one with key >= target. O(log n) comparisons and at most one
// block decode: the landing block is decoded once into the scratch
// buffer (a compressed leaf) and binary-searched there.
func (c *Cursor[K, V, A, T]) SeekGE(t Tree[K, V, A, T], target K) {
	c.stack = c.stack[:0]
	c.leafItems = nil
	n := t.root
	for n != nil {
		if isLeaf(n) {
			c.setLeaf(n, 0)
			if i, _ := c.o.leafSearch(c.leafItems, target); i < len(c.leafItems) {
				c.leafIdx = i
			} else {
				c.leafItems = nil
			}
			return
		}
		if c.o.tr.Less(n.key, target) {
			n = n.right
		} else {
			c.stack = append(c.stack, n)
			n = n.left
		}
	}
}
