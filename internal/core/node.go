package core

import (
	"sync/atomic"

	"repro/internal/seq"
)

// node is a tree node. The tree is two-layered in the style of PaC-trees
// (Dhulipala et al., arXiv:2204.06077): interior nodes carry one entry
// each and one layout serves all four balancing schemes (size doubles as
// the weight-balance criterion and supports rank/select; aux holds the
// AVL height, the red-black color+black-height, or the treap priority),
// while the fringe is made of *leaf blocks* — nodes whose items slice
// holds up to blockSize() entries in strictly increasing key order, with
// the block's augmented value precomputed in aug. A node is a leaf iff
// items != nil; leaves have nil children, size == len(items), and unused
// key/val. Blocking cuts the node count (and with it allocation and
// pointer-chasing) by roughly a factor of B on every bulk path.
//
// Reference counts implement the paper's functional persistence: a node
// is shared freely between trees, and only a node whose count is 1 may be
// mutated in place (the reuse optimization described in §4 "Persistence").
// For leaves the unit of copy-on-write is the whole block: a leaf's items
// array is referenced by that leaf node alone, so refs == 1 licenses
// in-place edits of the array.
type node[K, V, A any] struct {
	left, right *node[K, V, A]
	items       []Entry[K, V] // non-nil: flat leaf block (sorted, 1..B entries)
	packed      []byte        // non-nil: compressed leaf block (see compress.go)
	key         K
	val         V
	aug         A
	size        int64
	aux         uint32
	refs        atomic.Int32
}

// isLeaf reports whether t is a leaf block (flat or compressed). nil is
// not a leaf. Within one tree family exactly one of the two leaf
// representations occurs: packed iff a Compressor is configured.
func isLeaf[K, V, A any](t *node[K, V, A]) bool {
	return t != nil && (t.items != nil || t.packed != nil)
}

// Stats tracks node allocation for the space experiments (Table 4). All
// counters are cumulative; Live = Allocated - Freed. Allocated/Freed
// count nodes of both kinds; LeafAllocated/LeafFreed count the subset
// that are leaf blocks (so interior = total - leaf).
type Stats struct {
	Allocated     atomic.Int64
	Freed         atomic.Int64
	LeafAllocated atomic.Int64 // leaf blocks, included in Allocated
	LeafFreed     atomic.Int64 // leaf blocks, included in Freed
	Copies        atomic.Int64 // path copies forced by sharing (refs > 1)
	Reuses        atomic.Int64 // in-place reuses permitted by refs == 1
}

// Live reports currently-live node count (interior nodes + leaf blocks).
func (s *Stats) Live() int64 { return s.Allocated.Load() - s.Freed.Load() }

// LiveLeaves reports currently-live leaf block count.
func (s *Stats) LiveLeaves() int64 { return s.LeafAllocated.Load() - s.LeafFreed.Load() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Allocated.Store(0)
	s.Freed.Store(0)
	s.LeafAllocated.Store(0)
	s.LeafFreed.Store(0)
	s.Copies.Store(0)
	s.Reuses.Store(0)
}

// prioSeed feeds deterministic-but-well-mixed treap priorities.
var prioSeed atomic.Uint64

// ops bundles the traits, scheme, grain, block size, and statistics
// shared by every operation on a tree type. It is embedded by value in
// Tree handles and passed by pointer internally. The zero grain means
// DefaultGrain; the zero block means DefaultBlock.
type ops[K, V, A any, T Traits[K, V, A]] struct {
	tr    T
	sch   Scheme
	grain int64
	block int
	stats *Stats
	comp  Compressor[K, V] // non-nil: leaf blocks are difference-encoded
}

// DefaultGrain is the subproblem size below which bulk operations stop
// forking. PAM uses a node-count granularity of a few hundred; the same
// magnitude works here. BenchmarkGrainSweep (root bench_test.go) sweeps
// Union/Build/MapReduce over 64..16384 at elevated parallelism; on the
// reference machine every grain lands within ~5% and 1024–4096 sit at
// the minimum, so 1024 stays — re-run the sweep before changing it.
//
// MultiInsert and MultiDelete compare the grain with a batch's work
// rather than its size: a batch of m keys against an n-entry subtree
// forks only while m·log2(n/m+1) exceeds the grain, so a small batch
// into a large tree (64 keys into 256k entries: work 768) runs
// sequentially, while a 16k-key batch into the same tree still forks.
const DefaultGrain = 1024

// DefaultBlock is the default leaf block size B. PaC-trees report the
// space/time sweet spot in the tens-of-entries range: large enough that
// leaf arrays amortize the per-node header and fill cache lines, small
// enough that the O(B) copy on a blocked insert or split stays cheap
// next to the O(log n) search above it.
const DefaultBlock = 32

func (o *ops[K, V, A, T]) grainSize() int64 {
	if o.grain > 0 {
		return o.grain
	}
	return DefaultGrain
}

func (o *ops[K, V, A, T]) blockSize() int {
	if o.block > 1 {
		return o.block
	}
	if o.block != 0 {
		return 2 // blocks below 2 break the red-black block split; clamp
	}
	return DefaultBlock
}

// size returns the subtree size of t (0 for nil), counting entries.
func size[K, V, A any](t *node[K, V, A]) int64 {
	if t == nil {
		return 0
	}
	return t.size
}

// weight is size+1, the quantity the weight-balance criterion is defined
// on (so empty subtrees have positive weight).
func weight[K, V, A any](t *node[K, V, A]) int64 { return size(t) + 1 }

// augOf returns the augmented value of t, or the identity for nil.
func (o *ops[K, V, A, T]) augOf(t *node[K, V, A]) A {
	if t == nil {
		return o.tr.Id()
	}
	return t.aug
}

// getNode returns an uninitialized node with refs == 1.
func (o *ops[K, V, A, T]) getNode() *node[K, V, A] {
	n := &node[K, V, A]{}
	if o.stats != nil {
		o.stats.Allocated.Add(1)
	}
	n.refs.Store(1)
	return n
}

// alloc returns a fresh interior node with refs == 1 and the scheme's
// singleton aux value. Children, size, aug are set by the caller (via
// update).
func (o *ops[K, V, A, T]) alloc(k K, v V) *node[K, V, A] {
	n := o.getNode()
	n.key = k
	n.val = v
	switch o.sch {
	case AVL:
		n.aux = 1
	case RedBlack:
		n.aux = rbMake(1, false) // fresh singletons are black, bh 1
	case Treap:
		n.aux = uint32(seq.Mix64(prioSeed.Add(0x9e3779b97f4a7c15)))
	}
	return n
}

// leafAux is the aux value of a leaf block: AVL height 1, black with
// black height 1, and the all-schemes-minimal treap priority 0 (leaves
// sit at the fringe, so the heap-on-priority invariant holds trivially).
func (o *ops[K, V, A, T]) leafAux() uint32 {
	switch o.sch {
	case AVL:
		return 1
	case RedBlack:
		return rbMake(1, false)
	default:
		return 0
	}
}

// leafAug folds the augmented value of a run of entries:
// Combine(Base(e0), Base(e1), ...), associativity making the fold shape
// irrelevant. items must be non-empty.
func (o *ops[K, V, A, T]) leafAug(items []Entry[K, V]) A {
	a := o.tr.Base(items[0].Key, items[0].Val)
	for _, e := range items[1:] {
		a = o.tr.Combine(a, o.tr.Base(e.Key, e.Val))
	}
	return a
}

// mkLeafOwned wraps a fresh leaf node around items, taking ownership of
// the slice (the caller must not retain it). Empty items yield nil.
// items must be sorted, deduplicated, and no longer than the block size.
// With a Compressor configured the entries are packed into a byte
// string instead and the slice is released to the GC.
func (o *ops[K, V, A, T]) mkLeafOwned(items []Entry[K, V]) *node[K, V, A] {
	if len(items) == 0 {
		return nil
	}
	n := o.getNode()
	if o.stats != nil {
		o.stats.LeafAllocated.Add(1)
	}
	if o.comp != nil {
		p := o.packLeafInto(nil, items)
		// Right-size: append growth can leave the buffer mostly slack,
		// which defeats the point of packing. (rebuildLeaf deliberately
		// keeps its reused buffer's capacity — mutation churn wants it.)
		if cap(p)-len(p) > len(p)/8 {
			p = append(make([]byte, 0, len(p)), p...)
		}
		n.packed = p
	} else {
		n.items = items
	}
	n.size = int64(len(items))
	n.aug = o.leafAug(items)
	n.aux = o.leafAux()
	return n
}

// mkLeafCopy is mkLeafOwned over a private copy of items (for borrowed
// input slices). Compressed families skip the intermediate copy —
// packing never retains the input slice.
func (o *ops[K, V, A, T]) mkLeafCopy(items []Entry[K, V]) *node[K, V, A] {
	if len(items) == 0 {
		return nil
	}
	if o.comp != nil {
		return o.mkLeafOwned(items)
	}
	own := make([]Entry[K, V], len(items))
	copy(own, items)
	return o.mkLeafOwned(own)
}

// singleton builds a one-entry tree (a one-entry leaf block, so
// subsequent inserts grow the array instead of the node count).
func (o *ops[K, V, A, T]) singleton(k K, v V) *node[K, V, A] {
	return o.mkLeafOwned([]Entry[K, V]{{Key: k, Val: v}})
}

// update recomputes the derived fields of n (size, augmented value, and
// for AVL the height) from its children. It must be called after any
// change to n's children; n must be an exclusively owned interior node
// (refs == 1 or fresh).
func (o *ops[K, V, A, T]) update(n *node[K, V, A]) {
	n.size = size(n.left) + size(n.right) + 1
	// Two applications of Combine, exactly as §4 "Augmentation":
	// f(A(L), f(g(k, v), A(R))).
	n.aug = o.tr.Combine(o.augOf(n.left), o.tr.Combine(o.tr.Base(n.key, n.val), o.augOf(n.right)))
	if o.sch == AVL {
		n.aux = 1 + max(avlHeight(n.left), avlHeight(n.right))
	}
}

// mkNode allocates an interior node with the given children and updates
// it. It takes ownership of l and r.
func (o *ops[K, V, A, T]) mkNode(l *node[K, V, A], k K, v V, r *node[K, V, A]) *node[K, V, A] {
	n := o.alloc(k, v)
	n.left, n.right = l, r
	o.update(n)
	return n
}

// inc takes an additional reference to t (no-op for nil).
func inc[K, V, A any](t *node[K, V, A]) *node[K, V, A] {
	if t != nil {
		t.refs.Add(1)
	}
	return t
}

// dec releases one reference to t; at zero the node is freed and its
// children released recursively. The recursion depth is the tree height,
// which is O(log n) for every scheme, so plain recursion is safe.
func (o *ops[K, V, A, T]) dec(t *node[K, V, A]) {
	if t == nil {
		return
	}
	if t.refs.Add(-1) != 0 {
		return
	}
	l, r := t.left, t.right
	o.free(t)
	o.dec(l)
	o.dec(r)
}

// free accounts for a dead node, which the garbage collector then
// reclaims. The children must already have been released; the caller
// observed the refcount hit zero.
func (o *ops[K, V, A, T]) free(t *node[K, V, A]) {
	if o.stats != nil {
		o.stats.Freed.Add(1)
		if isLeaf(t) {
			o.stats.LeafFreed.Add(1)
		}
	}
}

// mutable returns a node with the contents of t that the caller may
// mutate: t itself when the caller holds the only reference, otherwise a
// copy (with child references taken, and for leaves a private copy of
// the items array) while t's own reference is dropped. t must be non-nil
// and owned by the caller.
func (o *ops[K, V, A, T]) mutable(t *node[K, V, A]) *node[K, V, A] {
	if t.refs.Load() == 1 {
		if o.stats != nil {
			o.stats.Reuses.Add(1)
		}
		return t
	}
	var n *node[K, V, A]
	if isLeaf(t) {
		n = o.getNode()
		if o.stats != nil {
			o.stats.LeafAllocated.Add(1)
		}
		if t.packed != nil {
			n.packed = append([]byte(nil), t.packed...)
		} else {
			n.items = make([]Entry[K, V], len(t.items))
			copy(n.items, t.items)
		}
	} else {
		n = o.getNode()
		n.key, n.val = t.key, t.val
		n.left, n.right = inc(t.left), inc(t.right)
	}
	n.size, n.aug, n.aux = t.size, t.aug, t.aux
	if o.stats != nil {
		o.stats.Copies.Add(1)
	}
	// Drop the caller's reference to t. The count cannot hit zero here:
	// we observed refs > 1 and this caller held one of those references,
	// and no other thread can concurrently release references it does
	// not own.
	t.refs.Add(-1)
	return n
}

// detach dismantles an owned interior node, transferring ownership of its
// children to the caller and releasing (or reusing) the node itself. It
// returns the children. Used by split/union to consume input trees. Must
// not be called on a leaf (leaves have no children to transfer).
func (o *ops[K, V, A, T]) detach(t *node[K, V, A]) (l, r *node[K, V, A]) {
	l, r = t.left, t.right
	if t.refs.Add(-1) == 0 {
		o.free(t)
	} else {
		// Other trees still reference t (and through it, its children):
		// take fresh references for the caller.
		inc(l)
		inc(r)
	}
	return l, r
}

// Ownership discipline (mirrors PAM's reference-counting GC):
//
//   - Functions that *consume* a tree argument receive one reference and
//     must account for it: pass it on, detach it, or dec it.
//   - Before mutating any owned node, call mutable; afterwards its child
//     pointers may be reassigned freely — the node holds one reference to
//     each child, and moving a pointer moves that reference. A child
//     pointer passed to a consuming call transfers its reference.
//   - Borrowing (read-only) functions never touch counts; when they embed
//     a borrowed subtree into a new tree they inc it first.
//   - A leaf's items array belongs to that leaf node alone; refs == 1 on
//     the node therefore licenses in-place edits of the array.

// leafSearch binary-searches items for k, returning the index of the
// first entry with key >= k and whether that entry's key equals k.
func (o *ops[K, V, A, T]) leafSearch(items []Entry[K, V], k K) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.tr.Less(items[mid].Key, k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(items) && !o.tr.Less(k, items[lo].Key)
}

// gather appends every entry of t (in key order) to buf, borrowing t.
// Used to collapse small subtrees into leaf blocks.
func (o *ops[K, V, A, T]) gather(t *node[K, V, A], buf []Entry[K, V]) []Entry[K, V] {
	if t == nil {
		return buf
	}
	if isLeaf(t) {
		return o.leafAppendTo(buf, t)
	}
	buf = o.gather(t.left, buf)
	buf = append(buf, Entry[K, V]{Key: t.key, Val: t.val})
	return o.gather(t.right, buf)
}

// twoBlockNode builds an interior node over two blocks from an owned,
// sorted, deduplicated run of between blockSize+1 and 2*blockSize+1
// entries, without re-copying: the blocks are backed by disjoint
// subslices of all, capacity-clamped so a later in-place grow of either
// block reallocates instead of crossing into its sibling's region.
func (o *ops[K, V, A, T]) twoBlockNode(all []Entry[K, V]) *node[K, V, A] {
	mid := len(all) / 2
	n := o.mkNode(
		o.mkLeafOwned(all[:mid:mid]),
		all[mid].Key, all[mid].Val,
		o.mkLeafOwned(all[mid+1:len(all):len(all)]),
	)
	if o.sch == RedBlack {
		n.aux = rbMake(2, false) // black root over two bh-1 blocks
	}
	return n
}

// expandLeaf converts an owned leaf block into an interior node over two
// half blocks split at the median (nil halves for tiny leaves). Both
// halves are within every scheme's local balance criterion; expansion is
// weight-neutral, so weight-balanced spine descents and rotations may
// apply it freely when they need to look inside a block. Consumes t.
func (o *ops[K, V, A, T]) expandLeaf(t *node[K, V, A]) *node[K, V, A] {
	items := o.leafRead(t)
	mid := len(items) / 2
	l := o.mkLeafCopy(items[:mid])
	r := o.mkLeafCopy(items[mid+1:])
	m := o.alloc(items[mid].Key, items[mid].Val)
	o.dec(t)
	n := o.attach(m, l, r)
	if o.sch == RedBlack {
		// Unreachable from the red-black join (its descents stop at
		// blocks), but keep the expansion closed over all schemes: a red
		// root preserves the block's contextual black height of 1.
		n.aux = rbMake(1, true)
	}
	return n
}
