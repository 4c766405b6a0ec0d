package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync/atomic"
)

// Structure-sharing-aware serialization (the durability substrate of the
// serve layer). The blocked fringe (PaC-tree leaves) maps naturally to
// disk: one leaf block is one contiguous record, and interior nodes are
// tiny records referencing their children by record id. Because trees
// are persistent, two trees — or two checkpoints of the same evolving
// tree — share subtrees by pointer. Each encoded node carries its own
// record (a stamp naming the RecordSet that wrote it, its record id and
// its digest), and a RecordSet recognizes the stamps of its chain, so an
// incremental checkpoint emits only the records created since the
// previous one: O(k · polylog n) block records after k updates to an
// n-entry tree, not O(n). The set itself holds no node, so a superseded
// version is freed by the garbage collector like any other garbage.
//
// The wire format is a flat stream of records in bottom-up (post-)
// order, so every child id refers strictly backward:
//
//	leaf record:     0x00, varint count, count × (key, val)
//	interior record: 0x01, varint aux, varint leftID, varint rightID,
//	                 key, val
//
// Record ids are implicit: the i-th record emitted against a RecordSet
// has id firstID+i (ids start at 1; id 0 means the nil subtree), so the
// stream carries no per-record id and a decoder assigns them by
// position. Keys and values are encoded by a caller-supplied Codec.
//
// Augmented values are never serialized: a decoder recomputes them
// bottom-up exactly as Build does, which keeps the format independent
// of the augmentation type (map-valued augmentations like the range
// tree's inner maps are rebuilt, not stored).

// Codec supplies the byte encoding of one key and one value type.
// Append functions append the canonical encoding to buf; At functions
// decode a value from the front of data and return it with the number
// of bytes consumed, or an error on malformed input (they must never
// panic on arbitrary bytes).
type Codec[K, V any] struct {
	AppendKey func(buf []byte, k K) []byte
	KeyAt     func(data []byte) (K, int, error)
	AppendVal func(buf []byte, v V) []byte
	ValAt     func(data []byte) (V, int, error)
}

// Digest is a record's Merkle content hash: for a leaf record the
// sha256 of its encoded bytes, for an interior record the sha256 of its
// tag, aux, entry, and its children's digests. Two subtrees have equal
// digests iff their encoded content (including structure) is equal, so
// root digests make snapshots cheaply diffable across checkpoints and
// replicas; the zero Digest is the digest of the empty tree.
type Digest = [sha256.Size]byte

// recMeta is a record's chain-wide id and Merkle digest. A node's stamp
// keeps it (a DecodeTable keeps it positionally) so an incremental delta
// can chain a new parent to children encoded in earlier checkpoints
// without re-walking them.
type recMeta struct {
	id  uint64
	sum Digest
}

// recStamp is the record a node was given by the last RecordSet that
// encoded it: that set's token and the record's id and digest. A stamp
// is never edited once stored; a node's stamp is only replaced, by the
// next set that encodes the node, or cleared, by an in-place edit.
type recStamp struct {
	tok *recToken
	recMeta
}

// recToken names one RecordSet. chain is 0 while the set is an
// uncommitted fork and its chain's id once the set's records belong to
// the chain: from creation for a root set, from Commit for a fork.
type recToken struct{ chain atomic.Uint64 }

// chainIDs hands out chain ids; 0 means "no chain" in a recToken.
var chainIDs atomic.Uint64

// RecordSet numbers the records of one chain of incremental checkpoints
// and recognizes the nodes that already have one. It keeps no per-node
// state: EncodeDelta stamps every node it writes with the set's token,
// its record id and its digest, and the set accepts a stamp that
// carries its own token or the token of a committed set of its chain.
//
// A node remembers only the last set that encoded it. Two sets of
// different chains that encode the same trees in turn therefore both
// stay correct, but each re-stamps the other's nodes and writes them
// again in its next delta. Stamps are stored atomically, so concurrent
// encodes of shared trees into different sets race with nothing; an
// encode that finds its own stamp replaced writes that node again.
//
// A set made by Fork extends a base set without changing it; its
// records join the chain only when it is committed.
type RecordSet[K, V, A any] struct {
	tok   recToken // stamps point here
	chain uint64
	next  uint64
}

// NewRecordSet returns an empty record set that starts a new chain; the
// first record encoded against it gets id 1.
func NewRecordSet[K, V, A any]() *RecordSet[K, V, A] {
	rs := &RecordSet[K, V, A]{chain: chainIDs.Add(1), next: 1}
	rs.tok.chain.Store(rs.chain)
	return rs
}

// NextID returns the id the next new record will be assigned.
func (rs *RecordSet[K, V, A]) NextID() uint64 { return rs.next }

// Len returns the number of records assigned so far, the base's
// included. Ids are dense from 1, so that is NextID() - 1.
func (rs *RecordSet[K, V, A]) Len() int { return int(rs.next - 1) }

// lookup returns the id and digest n was assigned, if n's stamp is one
// rs accepts: its own, or that of a committed set of its chain.
func (rs *RecordSet[K, V, A]) lookup(n *node[K, V, A]) (recMeta, bool) {
	s := n.rec.Load()
	if s == nil || (s.tok != &rs.tok && s.tok.chain.Load() != rs.chain) {
		return recMeta{}, false
	}
	return s.recMeta, true
}

// stamp gives n the next record id of rs with the given digest.
func (rs *RecordSet[K, V, A]) stamp(n *node[K, V, A], sum Digest) recMeta {
	m := recMeta{id: rs.next, sum: sum}
	rs.next++
	n.rec.Store(&recStamp{tok: &rs.tok, recMeta: m})
	return m
}

// Fork returns a set that continues rs in O(1): records encoded against
// the fork get ids from rs.NextID() on, and rs itself is left as it was
// (its NextID, Len and digests do not change). The checkpoint protocol
// encodes against a fork and commits it only once the checkpoint file
// is durably published, so a failed write never burns record ids the
// on-disk chain has not seen. An abandoned fork is simply dropped: the
// stamps it left are accepted by no other set, so the next fork of rs
// writes those nodes again under the same ids.
//
// Fork a committed set (the chain's newest): a fork of an uncommitted
// fork sees only the committed records and its own.
func (rs *RecordSet[K, V, A]) Fork() *RecordSet[K, V, A] {
	return &RecordSet[K, V, A]{chain: rs.chain, next: rs.next}
}

// Commit makes a fork's records part of its chain in O(1), so every
// later fork accepts them. The fork then continues the chain and its
// base must not be used again. Commit on a committed set does nothing.
func (rs *RecordSet[K, V, A]) Commit() { rs.tok.chain.Store(rs.chain) }

// RootDigest returns the Merkle digest of t's root record, which is in
// rs once t has been encoded against it (an empty tree has the zero
// digest and ok == true). ok == false means t's root was never encoded
// against rs, or has since been stamped by a set rs does not accept or
// edited in place.
func RootDigest[K, V, A any, T Traits[K, V, A]](t Tree[K, V, A, T], rs *RecordSet[K, V, A]) (Digest, bool) {
	if t.root == nil {
		return Digest{}, true
	}
	m, ok := rs.lookup(t.root)
	return m.sum, ok
}

// leafDigest hashes one leaf record: exactly its encoded bytes (tag,
// count, entries), which contain no chain-position-dependent ids.
func leafDigest(encoded []byte) Digest { return sha256.Sum256(encoded) }

// interiorDigest hashes one interior record by chaining its children's
// digests instead of their (position-dependent) record ids, so equal
// subtrees have equal digests no matter where in a chain they were
// encoded.
func interiorDigest(scratch []byte, aux uint64, l, r Digest, entry []byte) ([]byte, Digest) {
	scratch = append(scratch[:0], recInterior)
	scratch = binary.AppendUvarint(scratch, aux)
	scratch = append(scratch, l[:]...)
	scratch = append(scratch, r[:]...)
	scratch = append(scratch, entry...)
	return scratch, sha256.Sum256(scratch)
}

const (
	recLeaf     = 0x00
	recInterior = 0x01
	// recLeafPacked carries a compressed leaf block's packed payload
	// verbatim (length-prefixed): the difference-encoded byte string is
	// already a canonical, self-contained encoding of the block, so
	// checkpoints of compressed trees serialize the fringe with no
	// per-entry re-encoding — and shrink by the same factor the in-memory
	// blocks do. Decoding requires the family's Compressor (the decoder
	// validates the payload and rebuilds the block from it); a family
	// without one fails with ErrNoCompressor.
	recLeafPacked = 0x02
)

// EncodeDelta appends, to buf, one record for every node of t not yet
// in rs (bottom-up, children before parents), stamps those nodes with
// their new ids and Merkle digests, and returns the extended buf, the root's
// record id (0 for an empty tree), and the number of new records
// written. Nodes already in rs — shared with a previously encoded tree
// — are referenced by id and cost nothing, which is what makes
// checkpoints incremental. The root's digest is available afterwards
// via RootDigest.
func EncodeDelta[K, V, A any, T Traits[K, V, A]](t Tree[K, V, A, T], rs *RecordSet[K, V, A], c *Codec[K, V], buf []byte) ([]byte, uint64, int) {
	var wrote int
	var scratch []byte
	var walk func(n *node[K, V, A]) recMeta
	walk = func(n *node[K, V, A]) recMeta {
		if n == nil {
			return recMeta{}
		}
		if m, ok := rs.lookup(n); ok {
			return m
		}
		var sum Digest
		if n.packed != nil {
			start := len(buf)
			buf = append(buf, recLeafPacked)
			buf = binary.AppendUvarint(buf, uint64(len(n.packed)))
			buf = append(buf, n.packed...)
			sum = leafDigest(buf[start:])
		} else if n.items != nil {
			start := len(buf)
			buf = append(buf, recLeaf)
			buf = binary.AppendUvarint(buf, uint64(len(n.items)))
			for _, e := range n.items {
				buf = c.AppendKey(buf, e.Key)
				buf = c.AppendVal(buf, e.Val)
			}
			sum = leafDigest(buf[start:])
		} else {
			lm := walk(n.left)
			rm := walk(n.right)
			buf = append(buf, recInterior)
			buf = binary.AppendUvarint(buf, uint64(n.aux))
			buf = binary.AppendUvarint(buf, lm.id)
			buf = binary.AppendUvarint(buf, rm.id)
			entryStart := len(buf)
			buf = c.AppendKey(buf, n.key)
			buf = c.AppendVal(buf, n.val)
			scratch, sum = interiorDigest(scratch, uint64(n.aux), lm.sum, rm.sum, buf[entryStart:])
		}
		wrote++
		return rs.stamp(n, sum)
	}
	root := walk(t.root)
	return buf, root.id, wrote
}

// Decode errors. All decoding is defensive: arbitrary bytes yield an
// error, never a panic. (A decoded tree can still be semantically wrong
// if the input was crafted — run Validate on recovered trees to reject
// unsorted leaves, broken balance, or wrong augmentation.)
var (
	ErrCorrupt       = errors.New("core: corrupt record stream")
	ErrBadRecordRef  = errors.New("core: record references an unknown or forward record id")
	ErrBadBlockSize  = errors.New("core: leaf record exceeds the configured block size")
	ErrUnsortedBlock = errors.New("core: leaf record keys not strictly increasing")
	ErrUnknownRecord = errors.New("core: unknown record id")
)

// DecodeTable accumulates decoded nodes by record id across the files
// of an incremental checkpoint chain; records from later files freely
// reference records decoded from earlier ones, reproducing the on-disk
// structure sharing in memory (two recovered trees share the subtrees
// they shared when encoded).
type DecodeTable[K, V, A any, T Traits[K, V, A]] struct {
	op    ops[K, V, A, T]
	nodes []*node[K, V, A] // nodes[i] has record id i+1
	sums  []Digest         // sums[i] is the Merkle digest of record i+1
}

// NewDecodeTable returns an empty table decoding into trees with the
// given configuration (which must match the encoder's Scheme and Block).
func NewDecodeTable[K, V, A any, T Traits[K, V, A]](cfg Config) *DecodeTable[K, V, A, T] {
	t := New[K, V, A, T](cfg)
	return &DecodeTable[K, V, A, T]{op: t.op}
}

// NextID returns the id the next decoded record will be assigned — the
// caller checks it against a checkpoint file's firstID header to detect
// a broken chain.
func (tb *DecodeTable[K, V, A, T]) NextID() uint64 { return uint64(len(tb.nodes)) + 1 }

// RecordSet starts a new chain and stamps every decoded node with its
// record id and digest in it, so a recovered
// process continues the incremental checkpoint chain exactly where the
// decoded files left it: the next delta writes only nodes created after
// recovery.
func (tb *DecodeTable[K, V, A, T]) RecordSet() *RecordSet[K, V, A] {
	rs := NewRecordSet[K, V, A]()
	for i, n := range tb.nodes {
		rs.stamp(n, tb.sums[i]) // id i+1
	}
	return rs
}

// Digest returns the Merkle digest of the record with the given id
// (the zero digest for id 0, the empty tree), recomputed bottom-up
// while decoding. A checkpoint verifier compares it against the root
// digest stored in the file's footer: any bit flip in a record body —
// key, value, aux, structure — changes the recomputed root digest.
func (tb *DecodeTable[K, V, A, T]) Digest(id uint64) (Digest, error) {
	if id == 0 {
		return Digest{}, nil
	}
	if id > uint64(len(tb.sums)) {
		return Digest{}, ErrUnknownRecord
	}
	return tb.sums[id-1], nil
}

// node returns the decoded node with the given id, or an error for id 0
// (valid nil only where stated) and unknown ids.
func (tb *DecodeTable[K, V, A, T]) nodeAt(id uint64) (*node[K, V, A], error) {
	if id == 0 {
		return nil, nil
	}
	if id > uint64(len(tb.nodes)) {
		return nil, ErrBadRecordRef
	}
	return tb.nodes[id-1], nil
}

// DecodeRecords decodes exactly n records from the front of data,
// appending them to the table, and returns the remaining bytes. Leaf
// blocks are checked for emptiness, block-size overflow, and key order;
// child references must point at already-decoded records. Augmented
// values, sizes, and AVL heights are recomputed bottom-up.
func (tb *DecodeTable[K, V, A, T]) DecodeRecords(c *Codec[K, V], data []byte, n int) ([]byte, error) {
	o := &tb.op
	block := o.blockSize()
	var scratch []byte
	for rec := 0; rec < n; rec++ {
		if len(data) == 0 {
			return nil, ErrCorrupt
		}
		recStart := data
		kind := data[0]
		data = data[1:]
		switch kind {
		case recLeaf:
			count, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, ErrCorrupt
			}
			data = data[sz:]
			if count == 0 || count > uint64(block) {
				return nil, ErrBadBlockSize
			}
			items := make([]Entry[K, V], count)
			for i := range items {
				k, kn, err := c.KeyAt(data)
				if err != nil {
					return nil, err
				}
				data = data[kn:]
				v, vn, err := c.ValAt(data)
				if err != nil {
					return nil, err
				}
				data = data[vn:]
				items[i] = Entry[K, V]{Key: k, Val: v}
				if i > 0 && !o.tr.Less(items[i-1].Key, k) {
					return nil, ErrUnsortedBlock
				}
			}
			tb.nodes = append(tb.nodes, o.mkLeafOwned(items))
			tb.sums = append(tb.sums, leafDigest(recStart[:len(recStart)-len(data)]))
		case recLeafPacked:
			if o.comp == nil {
				return nil, ErrNoCompressor
			}
			plen, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, ErrCorrupt
			}
			data = data[sz:]
			if plen > uint64(len(data)) {
				return nil, ErrCorrupt
			}
			payload := data[:plen]
			data = data[plen:]
			// Defensive decode enforces count bounds, key order, full
			// consumption, and canonicality; mkLeafOwned then re-packs to
			// byte-identical payload, so a decoded block is
			// indistinguishable from a locally built one.
			items, err := decodePacked(o.comp, o.tr.Less, payload, block, nil)
			if err != nil {
				return nil, err
			}
			tb.nodes = append(tb.nodes, o.mkLeafOwned(items))
			tb.sums = append(tb.sums, leafDigest(recStart[:len(recStart)-len(data)]))
		case recInterior:
			aux, sz := binary.Uvarint(data)
			if sz <= 0 || aux > 1<<32-1 {
				return nil, ErrCorrupt
			}
			data = data[sz:]
			lid, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, ErrCorrupt
			}
			data = data[sz:]
			rid, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, ErrCorrupt
			}
			data = data[sz:]
			entryStart := data
			k, kn, err := c.KeyAt(data)
			if err != nil {
				return nil, err
			}
			data = data[kn:]
			v, vn, err := c.ValAt(data)
			if err != nil {
				return nil, err
			}
			data = data[vn:]
			l, err := tb.nodeAt(lid)
			if err != nil {
				return nil, err
			}
			r, err := tb.nodeAt(rid)
			if err != nil {
				return nil, err
			}
			lsum, _ := tb.Digest(lid)
			rsum, _ := tb.Digest(rid)
			nd := o.getNode()
			nd.key, nd.val = k, v
			nd.left, nd.right = inc(l), inc(r)
			nd.aux = uint32(aux)
			o.update(nd) // size, aug, and (for AVL) height, bottom-up
			tb.nodes = append(tb.nodes, nd)
			var sum Digest
			scratch, sum = interiorDigest(scratch, aux, lsum, rsum, entryStart[:len(entryStart)-len(data)])
			tb.sums = append(tb.sums, sum)
		default:
			return nil, ErrCorrupt
		}
	}
	return data, nil
}

// Tree returns the tree rooted at the record with the given id (0 for
// an empty tree), sharing decoded nodes with every other tree taken
// from the table.
func (tb *DecodeTable[K, V, A, T]) Tree(id uint64) (Tree[K, V, A, T], error) {
	empty := Tree[K, V, A, T]{op: tb.op}
	if id == 0 {
		return empty, nil
	}
	n, err := tb.nodeAt(id)
	if err != nil {
		return empty, ErrUnknownRecord
	}
	return empty.with(inc(n)), nil
}
