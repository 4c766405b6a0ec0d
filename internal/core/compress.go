package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Compressed leaf blocks — the second half of the PaC-trees agenda
// (Dhulipala et al., arXiv:2204.06077 §5 "Compression"). PR 5 blocked
// the fringe into sorted flat arrays; with a Compressor configured the
// fringe goes one step further: a block's entries are stored as one
// contiguous byte string — a first-key anchor plus zig-zag varint key
// deltas, values encoded by the compressor — instead of an []Entry
// array. For integer-keyed maps whose keys are locally dense (ids,
// timestamps, offsets) this cuts bytes/entry by 2-5x, which is the
// memory axis of scale: more entries per machine, smaller checkpoints
// (packed blocks serialize near-verbatim), less cache traffic on cold
// scans.
//
// Representation invariant: a tree family either has a compressor (and
// then *every* leaf stores packed bytes, items == nil) or has none (and
// every leaf stores a flat []Entry, packed == nil). The two layouts
// never mix inside one tree, so each operation picks its branch once
// per leaf.
//
// Access paths:
//
//   - Scans (forEach, fold, Cursor, aug folds, projections) decode on
//     the fly through packedCursor — sequential zig-zag delta walking,
//     no materialization.
//   - Probes (find, rank, bounds) walk the block sequentially; the
//     O(B) walk replaces the binary search, which is the PaC-trees
//     trade: B is small (32) and the walk is branch-predictable over
//     one cache-resident byte string.
//   - Bulk updates read the block once and pack the result once. A
//     batch merge (leafMergeSorted) decodes the block into the tail of
//     its merge buffer and merges forward in place; a delete or filter
//     (leafFilter) collects the kept entries through packedCursor. The
//     new byte string is sized from the old block's bytes per entry
//     (packHint), so it is allocated once in the common case.
//   - Single-entry mutations decode the block into a scratch slice,
//     edit it, and re-encode on the copy-on-write path (rebuildLeaf);
//     an exclusively owned node reuses its packed buffer in place.
//
// The payload layout of one packed block:
//
//	uvarint count | uvarint KeyUint(k0) | val0 |
//	count-1 × ( varint KeyUint(ki)-KeyUint(ki-1) | vali )
//
// Deltas are computed modulo 2^64 on the compressor's integer key
// images, so any round-tripping KeyUint/KeyFromUint pair is valid even
// when the image order disagrees with the tree order; zig-zag encoding
// keeps accidental negative deltas cheap. Values use the compressor's
// AppendVal/ValAt, the same contract as Codec (varint values for the
// stock integer instances).

// Compressor supplies the integer key image and the value byte codec of
// a compressed-leaf instantiation. Implementations should be zero-size
// struct types so calls devirtualize; KeyUint/KeyFromUint must be exact
// inverses, and ValAt must decode exactly what AppendVal appended
// (returning an error, never panicking, on truncated or foreign bytes).
type Compressor[K, V any] interface {
	// KeyUint maps a key to its integer image (need not preserve
	// order; must round-trip with KeyFromUint).
	KeyUint(k K) uint64
	// KeyFromUint inverts KeyUint.
	KeyFromUint(u uint64) K
	// AppendVal appends the canonical encoding of v to buf.
	AppendVal(buf []byte, v V) []byte
	// ValAt decodes a value from the front of data, returning it and
	// the number of bytes consumed.
	ValAt(data []byte) (V, int, error)
}

// ErrBadPacked reports a malformed compressed-block payload (truncated,
// overlong, non-canonical, or with an invalid entry count).
var ErrBadPacked = errors.New("core: malformed compressed block")

// ErrNoCompressor reports a compressed record met by a tree family
// configured without a Compressor (or vice versa at the config layer).
var ErrNoCompressor = errors.New("core: compressed block requires a configured Compressor")

// packLeafInto appends the packed encoding of items (non-empty, sorted)
// to dst and returns it. The encoding is canonical: equal entry runs
// produce identical bytes.
func (o *ops[K, V, A, T]) packLeafInto(dst []byte, items []Entry[K, V]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	prev := o.comp.KeyUint(items[0].Key)
	dst = binary.AppendUvarint(dst, prev)
	dst = o.comp.AppendVal(dst, items[0].Val)
	for _, e := range items[1:] {
		u := o.comp.KeyUint(e.Key)
		dst = binary.AppendVarint(dst, int64(u-prev))
		prev = u
		dst = o.comp.AppendVal(dst, e.Val)
	}
	return dst
}

// packedCursor streams the entries of one packed payload. The zero
// cursor is exhausted; start with o.packedCursor(t).
type packedCursor[K, V any] struct {
	comp Compressor[K, V]
	data []byte
	n    int // entries remaining
	prev uint64
	at   int // index of the entry next() will return
}

// packedCursorOf opens a cursor over a packed leaf t.
func (o *ops[K, V, A, T]) packedCursorOf(t *node[K, V, A]) packedCursor[K, V] {
	n, sz := binary.Uvarint(t.packed)
	// The count was validated at construction; sz <= 0 cannot happen on
	// a live node.
	return packedCursor[K, V]{comp: o.comp, data: t.packed[sz:], n: int(n)}
}

// next decodes the next entry. ok is false when exhausted; malformed
// bytes panic (live blocks were validated at construction — use
// decodePacked for untrusted input).
func (c *packedCursor[K, V]) next() (Entry[K, V], bool) {
	if c.n == 0 {
		return Entry[K, V]{}, false
	}
	var u uint64
	if c.at == 0 {
		v, sz := binary.Uvarint(c.data)
		if sz <= 0 {
			panic("core: corrupt packed block reached a live tree")
		}
		u = v
		c.data = c.data[sz:]
	} else {
		d, sz := binary.Varint(c.data)
		if sz <= 0 {
			panic("core: corrupt packed block reached a live tree")
		}
		u = c.prev + uint64(d)
		c.data = c.data[sz:]
	}
	c.prev = u
	val, vn, err := c.comp.ValAt(c.data)
	if err != nil {
		panic("core: corrupt packed block reached a live tree")
	}
	c.data = c.data[vn:]
	c.n--
	c.at++
	return Entry[K, V]{Key: c.comp.KeyFromUint(u), Val: val}, true
}

// decodePacked appends the entries of a packed payload to buf,
// defensively: arbitrary bytes yield an error, never a panic. It
// enforces count in [1, maxCount], strictly increasing keys (by less),
// full consumption of data, and canonical encoding — re-encoding the
// decoded entries must reproduce data byte for byte, so a packed block
// accepted from disk is indistinguishable from one built locally.
func decodePacked[K, V any](comp Compressor[K, V], less func(a, b K) bool, data []byte, maxCount int, buf []Entry[K, V]) ([]Entry[K, V], error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return buf, ErrBadPacked
	}
	rest := data[sz:]
	if n == 0 {
		return buf, ErrBadPacked
	}
	if n > uint64(maxCount) {
		return buf, ErrBadBlockSize
	}
	start := len(buf)
	var prev uint64
	for i := 0; i < int(n); i++ {
		var u uint64
		if i == 0 {
			v, un := binary.Uvarint(rest)
			if un <= 0 {
				return buf, ErrBadPacked
			}
			u = v
			rest = rest[un:]
		} else {
			d, dn := binary.Varint(rest)
			if dn <= 0 {
				return buf, ErrBadPacked
			}
			u = prev + uint64(d)
			rest = rest[dn:]
		}
		prev = u
		val, vn, err := comp.ValAt(rest)
		if err != nil {
			return buf, err
		}
		rest = rest[vn:]
		k := comp.KeyFromUint(u)
		if i > 0 && !less(buf[len(buf)-1].Key, k) {
			return buf, ErrUnsortedBlock
		}
		buf = append(buf, Entry[K, V]{Key: k, Val: val})
	}
	if len(rest) != 0 {
		return buf, ErrBadPacked
	}
	// Canonicality: varints admit overlong forms and KeyUint images may
	// collide only if the compressor is broken; re-encode and compare so
	// accepted payloads are exactly the ones we would produce.
	check := binary.AppendUvarint(nil, n)
	check = appendPackedEntries(comp, check, buf[start:])
	if string(check) != string(data) {
		return buf, ErrBadPacked
	}
	return buf, nil
}

// appendPackedEntries appends anchor+deltas+values (everything after the
// count) for items.
func appendPackedEntries[K, V any](comp Compressor[K, V], dst []byte, items []Entry[K, V]) []byte {
	prev := comp.KeyUint(items[0].Key)
	dst = binary.AppendUvarint(dst, prev)
	dst = comp.AppendVal(dst, items[0].Val)
	for _, e := range items[1:] {
		u := comp.KeyUint(e.Key)
		dst = binary.AppendVarint(dst, int64(u-prev))
		prev = u
		dst = comp.AppendVal(dst, e.Val)
	}
	return dst
}

// ---------------------------------------------------------------------
// Leaf access helpers. Every operation reads leaf blocks through these
// (or through packedCursorOf directly), so the two layouts stay behind
// one seam.

// leafLen returns the entry count of a leaf block.
func leafLen[K, V, A any](t *node[K, V, A]) int { return int(t.size) }

// leafRead returns the entries of a leaf block: the items array itself
// for a flat leaf (callers must not mutate it), a freshly decoded slice
// for a packed leaf (the caller owns it).
func (o *ops[K, V, A, T]) leafRead(t *node[K, V, A]) []Entry[K, V] {
	if t.items != nil {
		return t.items
	}
	buf := make([]Entry[K, V], 0, leafLen(t))
	return o.leafAppendTo(buf, t)
}

// leafAppendTo appends a leaf block's entries to buf.
func (o *ops[K, V, A, T]) leafAppendTo(buf []Entry[K, V], t *node[K, V, A]) []Entry[K, V] {
	if t.items != nil {
		return append(buf, t.items...)
	}
	c := o.packedCursorOf(t)
	for {
		e, ok := c.next()
		if !ok {
			return buf
		}
		buf = append(buf, e)
	}
}

// leafBound returns the index of the first entry with key >= k and
// whether that entry's key equals k: a binary search on a flat block, a
// sequential delta walk on a packed one (the PaC-trees probe: decoding
// is so much cheaper than a cache miss that the O(B) walk competes with
// the O(log B) search).
func (o *ops[K, V, A, T]) leafBound(t *node[K, V, A], k K) (int, bool) {
	if t.items != nil {
		return o.leafSearch(t.items, k)
	}
	c := o.packedCursorOf(t)
	i := 0
	for {
		e, ok := c.next()
		if !ok {
			return i, false
		}
		if !o.tr.Less(e.Key, k) {
			return i, !o.tr.Less(k, e.Key)
		}
		i++
	}
}

// leafAt returns the entry at index i of a leaf block (0 <= i < len).
func (o *ops[K, V, A, T]) leafAt(t *node[K, V, A], i int) Entry[K, V] {
	if t.items != nil {
		return t.items[i]
	}
	c := o.packedCursorOf(t)
	for ; i > 0; i-- {
		c.next()
	}
	e, _ := c.next()
	return e
}

// leafScanRange visits the entries with index in [i, j) in order; visit
// returning false stops the walk and returns false.
func (o *ops[K, V, A, T]) leafScanRange(t *node[K, V, A], i, j int, visit func(e Entry[K, V]) bool) bool {
	if t.items != nil {
		for ; i < j; i++ {
			if !visit(t.items[i]) {
				return false
			}
		}
		return true
	}
	c := o.packedCursorOf(t)
	for ; i > 0; i-- {
		c.next()
		j--
	}
	for ; j > 0; j-- {
		e, ok := c.next()
		if !ok {
			return true
		}
		if !visit(e) {
			return false
		}
	}
	return true
}

// leafAugRange folds Base over the entries with index in [i, j), Id for
// an empty range — the partial-block fold behind the augmented queries.
func (o *ops[K, V, A, T]) leafAugRange(t *node[K, V, A], i, j int) A {
	if t.items != nil {
		return o.leafAugSlice(t.items, i, j)
	}
	acc := o.tr.Id()
	first := true
	o.leafScanRange(t, i, j, func(e Entry[K, V]) bool {
		if first {
			acc = o.tr.Base(e.Key, e.Val)
			first = false
		} else {
			acc = o.tr.Combine(acc, o.tr.Base(e.Key, e.Val))
		}
		return true
	})
	return acc
}

// leafSlice builds a fresh leaf block over entries [i, j) of a borrowed
// leaf t (nil when the range is empty).
func (o *ops[K, V, A, T]) leafSlice(t *node[K, V, A], i, j int) *node[K, V, A] {
	if i >= j {
		return nil
	}
	if t.items != nil {
		return o.mkLeafCopy(t.items[i:j])
	}
	buf := make([]Entry[K, V], 0, j-i)
	o.leafScanRange(t, i, j, func(e Entry[K, V]) bool { buf = append(buf, e); return true })
	return o.mkLeafOwned(buf)
}

// rebuildLeaf replaces the contents of a leaf block with items
// (non-empty, sorted, at most one block), consuming t and taking
// ownership of items. An exclusively owned node is reused in place —
// for a packed leaf that re-encodes into the retained buffer, the
// copy-on-write re-encode path of every compressed mutation.
func (o *ops[K, V, A, T]) rebuildLeaf(t *node[K, V, A], items []Entry[K, V]) *node[K, V, A] {
	if t.refs.Load() == 1 {
		if o.stats != nil {
			o.stats.Reuses.Add(1)
		}
		t.unstamp()
		if o.comp != nil {
			t.packed = o.packLeafInto(t.packed[:0], items)
		} else {
			t.items = items
		}
		t.size = int64(len(items))
		t.aug = o.leafAug(items)
		return t
	}
	n := o.mkLeafOwned(items)
	o.dec(t)
	return n
}

// validatePacked checks a packed leaf's payload defensively and returns
// the decoded entries. Used by Validate (and, transitively, the fuzz
// harnesses) — live operations trust their blocks.
func (o *ops[K, V, A, T]) validatePacked(t *node[K, V, A]) ([]Entry[K, V], error) {
	if o.comp == nil {
		return nil, ErrNoCompressor
	}
	items, err := decodePacked(o.comp, o.tr.Less, t.packed, o.blockSize(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: packed leaf: %w", err)
	}
	return items, nil
}

// Compressed reports whether this tree family stores its leaf blocks
// compressed (a Compressor was configured).
func (t Tree[K, V, A, T]) Compressed() bool { return t.op.comp != nil }
