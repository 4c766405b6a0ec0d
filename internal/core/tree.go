package core

import (
	"fmt"
	"iter"
)

// Config selects the representation options of a tree family.
type Config struct {
	// Scheme is the balancing scheme (default WeightBalanced).
	Scheme Scheme
	// Grain is the sequential-grain size for parallel bulk operations;
	// 0 means DefaultGrain.
	Grain int64
	// Block is the leaf block size B: the fringe of the tree stores runs
	// of up to B entries as sorted flat arrays (PaC-tree style), cutting
	// node count, allocations, and pointer chasing by roughly a factor
	// of B on bulk paths at the price of O(B) array work inside the
	// block an update lands in. 0 means DefaultBlock; any other value
	// below 2 is clamped to 2. Trees that are combined (Union, Concat,
	// ...) must share the same Block, as they must the same Scheme.
	Block int
	// Stats, when non-nil, receives node allocation statistics
	// (Table 4 experiments).
	Stats *Stats
	// Compress, when non-nil, must be a Compressor[K, V] for the tree's
	// key and value types: leaf blocks are then stored as
	// difference-encoded byte strings (first-key anchor + zig-zag
	// varint key deltas, compressor-encoded values) instead of flat
	// []Entry arrays — see compress.go. The field is untyped because
	// Config is shared across instantiations; New panics on a type
	// mismatch. Like Scheme and Block, Compress must agree between
	// trees that are combined.
	Compress any
}

// Tree is a persistent augmented ordered map (the paper's aug_map).
//
// All exported methods are functional: they never modify the receiver,
// and any previously obtained Tree remains valid, sharing structure with
// derived trees. The zero Tree value is an empty weight-balanced map with
// default options, immediately usable when T is a zero-size traits type.
//
// Methods with the InPlace suffix consume the receiver's reference (the
// receiver must not be used afterwards) and enable the reference-count-1
// reuse optimization; they exist for performance parity with ephemeral
// structures and are used by the benchmarks.
type Tree[K, V, A any, T Traits[K, V, A]] struct {
	root *node[K, V, A]
	op   ops[K, V, A, T]
}

// New returns an empty tree with the given configuration.
func New[K, V, A any, T Traits[K, V, A]](cfg Config) Tree[K, V, A, T] {
	t := Tree[K, V, A, T]{}
	t.op.sch = cfg.Scheme
	t.op.grain = cfg.Grain
	t.op.block = cfg.Block
	t.op.stats = cfg.Stats
	if cfg.Compress != nil {
		comp, ok := cfg.Compress.(Compressor[K, V])
		if !ok {
			panic(fmt.Sprintf("core: Config.Compress is %T, want a core.Compressor matching the tree's key and value types", cfg.Compress))
		}
		t.op.comp = comp
	}
	return t
}

func (t *Tree[K, V, A, T]) o() *ops[K, V, A, T] { return &t.op }

// with returns a tree handle with the same configuration and the given
// root, taking ownership of root.
func (t Tree[K, V, A, T]) with(root *node[K, V, A]) Tree[K, V, A, T] {
	return Tree[K, V, A, T]{root: root, op: t.op}
}

// Size returns the number of entries.
func (t Tree[K, V, A, T]) Size() int64 { return size(t.root) }

// IsEmpty reports whether the map has no entries.
func (t Tree[K, V, A, T]) IsEmpty() bool { return t.root == nil }

// Scheme reports the balancing scheme of this tree family.
func (t Tree[K, V, A, T]) Scheme() Scheme { return t.op.sch }

// Stats returns the allocation statistics sink, if configured.
func (t Tree[K, V, A, T]) Stats() *Stats { return t.op.stats }

// Find returns the value stored at k.
func (t Tree[K, V, A, T]) Find(k K) (V, bool) { return t.o().find(t.root, k) }

// Contains reports whether k is present.
func (t Tree[K, V, A, T]) Contains(k K) bool {
	_, ok := t.o().find(t.root, k)
	return ok
}

// Insert returns t with (k, v) added, replacing any existing value at k.
func (t Tree[K, V, A, T]) Insert(k K, v V) Tree[K, V, A, T] {
	return t.with(t.o().insert(inc(t.root), k, v, nil))
}

// InsertWith returns t with (k, v) added; an existing value old at k is
// replaced by h(old, v).
func (t Tree[K, V, A, T]) InsertWith(k K, v V, h func(old, new V) V) Tree[K, V, A, T] {
	return t.with(t.o().insert(inc(t.root), k, v, h))
}

// Delete returns t without key k.
func (t Tree[K, V, A, T]) Delete(k K) Tree[K, V, A, T] {
	return t.with(t.o().remove(inc(t.root), k))
}

// Union returns the union of t and u; for keys in both, u's value wins.
func (t Tree[K, V, A, T]) Union(u Tree[K, V, A, T]) Tree[K, V, A, T] {
	return t.with(t.o().union(inc(t.root), inc(u.root), nil))
}

// UnionWith returns the union of t and u, combining values of shared keys
// as h(t's value, u's value).
func (t Tree[K, V, A, T]) UnionWith(u Tree[K, V, A, T], h func(v1, v2 V) V) Tree[K, V, A, T] {
	return t.with(t.o().union(inc(t.root), inc(u.root), h))
}

// Intersect returns the intersection of t and u keeping u's values.
func (t Tree[K, V, A, T]) Intersect(u Tree[K, V, A, T]) Tree[K, V, A, T] {
	return t.with(t.o().intersect(inc(t.root), inc(u.root), nil))
}

// IntersectWith returns the intersection of t and u with values
// h(t's value, u's value).
func (t Tree[K, V, A, T]) IntersectWith(u Tree[K, V, A, T], h func(v1, v2 V) V) Tree[K, V, A, T] {
	return t.with(t.o().intersect(inc(t.root), inc(u.root), h))
}

// Difference returns the entries of t whose keys are not in u.
func (t Tree[K, V, A, T]) Difference(u Tree[K, V, A, T]) Tree[K, V, A, T] {
	return t.with(t.o().difference(inc(t.root), inc(u.root)))
}

// Filter returns the entries satisfying pred.
func (t Tree[K, V, A, T]) Filter(pred func(k K, v V) bool) Tree[K, V, A, T] {
	return t.with(t.o().filter(inc(t.root), pred))
}

// AugFilter returns the entries e with h(Base(e)) true, for h satisfying
// h(Combine(a,b)) == h(a) || h(b); subtrees whose augmented value fails h
// are pruned wholesale (O(k log(n/k+1)) work for k results).
func (t Tree[K, V, A, T]) AugFilter(h func(a A) bool) Tree[K, V, A, T] {
	return t.with(t.o().augFilter(inc(t.root), h))
}

// Build returns a new tree (with t's configuration) holding the given
// entries; values of duplicate keys are combined left-to-right with h
// (nil h keeps the last). The receiver's contents are ignored.
func (t Tree[K, V, A, T]) Build(items []Entry[K, V], h func(old, new V) V) Tree[K, V, A, T] {
	return t.with(t.o().build(items, h))
}

// BuildSorted is Build for strictly-increasing (by key) input, skipping
// the sort and deduplication passes.
func (t Tree[K, V, A, T]) BuildSorted(items []Entry[K, V]) Tree[K, V, A, T] {
	return t.with(t.o().buildSorted(items))
}

// MultiInsert returns t with all entries added; duplicates within items
// and collisions with existing keys combine as h(old, new) (nil h keeps
// the newest).
func (t Tree[K, V, A, T]) MultiInsert(items []Entry[K, V], h func(old, new V) V) Tree[K, V, A, T] {
	return t.with(t.o().multiInsert(inc(t.root), items, h))
}

// MultiDelete returns t without any of the given keys.
func (t Tree[K, V, A, T]) MultiDelete(keys []K) Tree[K, V, A, T] {
	return t.with(t.o().multiDelete(inc(t.root), keys))
}

// Range returns the entries with lo <= key <= hi.
func (t Tree[K, V, A, T]) Range(lo, hi K) Tree[K, V, A, T] {
	return t.with(t.o().rangeKeys(t.root, lo, hi))
}

// UpTo returns the entries with key <= hi.
func (t Tree[K, V, A, T]) UpTo(hi K) Tree[K, V, A, T] {
	return t.with(t.o().rangeLE(t.root, hi))
}

// DownTo returns the entries with key >= lo.
func (t Tree[K, V, A, T]) DownTo(lo K) Tree[K, V, A, T] {
	return t.with(t.o().rangeGE(t.root, lo))
}

// Split divides t at k into the entries less than k, the value at k (if
// present), and the entries greater than k.
func (t Tree[K, V, A, T]) Split(k K) (left Tree[K, V, A, T], v V, found bool, right Tree[K, V, A, T]) {
	s := t.o().split(inc(t.root), k)
	return t.with(s.l), s.v, s.found, t.with(s.r)
}

// Join composes t, the entry (k, v), and u; every key of t must be less
// than k and every key of u greater.
func (t Tree[K, V, A, T]) Join(k K, v V, u Tree[K, V, A, T]) Tree[K, V, A, T] {
	return t.with(t.o().joinKV(inc(t.root), k, v, inc(u.root)))
}

// Concat composes t and u (join2); every key of t must be less than every
// key of u.
func (t Tree[K, V, A, T]) Concat(u Tree[K, V, A, T]) Tree[K, V, A, T] {
	return t.with(t.o().join2(inc(t.root), inc(u.root)))
}

// First returns the minimum entry.
func (t Tree[K, V, A, T]) First() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	k, v := t.o().first(t.root)
	return k, v, true
}

// Last returns the maximum entry.
func (t Tree[K, V, A, T]) Last() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	k, v := t.o().last(t.root)
	return k, v, true
}

// Previous returns the largest entry with key strictly less than k.
func (t Tree[K, V, A, T]) Previous(k K) (K, V, bool) { return t.o().previous(t.root, k) }

// Next returns the smallest entry with key strictly greater than k.
func (t Tree[K, V, A, T]) Next(k K) (K, V, bool) { return t.o().next(t.root, k) }

// Rank returns the number of keys strictly less than k.
func (t Tree[K, V, A, T]) Rank(k K) int64 { return t.o().rank(t.root, k) }

// Select returns the entry with the i-th smallest key (0-based).
func (t Tree[K, V, A, T]) Select(i int64) (K, V, bool) { return t.o().selectAt(t.root, i) }

// AugVal returns the augmented value of the whole map in O(1).
func (t Tree[K, V, A, T]) AugVal() A { return t.o().augVal(t.root) }

// AugLeft returns the augmented value over entries with key <= k.
func (t Tree[K, V, A, T]) AugLeft(k K) A { return t.o().augLeft(t.root, k) }

// AugRight returns the augmented value over entries with key >= k.
func (t Tree[K, V, A, T]) AugRight(k K) A { return t.o().augRight(t.root, k) }

// AugRange returns the augmented value over entries with lo <= key <= hi.
func (t Tree[K, V, A, T]) AugRange(lo, hi K) A { return t.o().augRange(t.root, lo, hi) }

// ForEach visits entries in key order until visit returns false.
func (t Tree[K, V, A, T]) ForEach(visit func(k K, v V) bool) { t.o().forEach(t.root, visit) }

// All returns an in-order iterator over the entries.
func (t Tree[K, V, A, T]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) { t.o().forEach(t.root, yield) }
}

// Entries materializes the entries in key order (in parallel).
func (t Tree[K, V, A, T]) Entries() []Entry[K, V] { return t.o().toSlice(t.root) }

// Keys materializes the keys in order (in parallel).
func (t Tree[K, V, A, T]) Keys() []K { return t.o().keys(t.root) }

// MapValues returns t with every value replaced by fn(k, v); the key set
// and tree shape are unchanged and augmented values are recomputed.
func (t Tree[K, V, A, T]) MapValues(fn func(k K, v V) V) Tree[K, V, A, T] {
	return t.with(t.o().mapValues(inc(t.root), fn))
}

// Retain takes an additional reference to the tree, for callers that use
// the InPlace operations or Release on multiple handle copies.
func (t Tree[K, V, A, T]) Retain() Tree[K, V, A, T] {
	inc(t.root)
	return t
}

// Release drops the receiver's reference and empties the handle. After
// Release (or any InPlace call) the original handle must not be used.
func (t *Tree[K, V, A, T]) Release() {
	t.o().dec(t.root)
	t.root = nil
}

// InsertInPlace is Insert consuming the receiver's reference, enabling
// in-place node reuse when the tree is not shared.
func (t *Tree[K, V, A, T]) InsertInPlace(k K, v V) {
	t.root = t.o().insert(t.root, k, v, nil)
}

// DeleteInPlace is Delete consuming the receiver's reference.
func (t *Tree[K, V, A, T]) DeleteInPlace(k K) {
	t.root = t.o().remove(t.root, k)
}

// UnionInPlace is Union consuming both references (u is emptied).
func (t *Tree[K, V, A, T]) UnionInPlace(u *Tree[K, V, A, T], h func(v1, v2 V) V) {
	t.root = t.o().union(t.root, u.root, h)
	u.root = nil
}

// MultiInsertInPlace is MultiInsert consuming the receiver's reference.
func (t *Tree[K, V, A, T]) MultiInsertInPlace(items []Entry[K, V], h func(old, new V) V) {
	t.root = t.o().multiInsert(t.root, items, h)
}

// MapReduce applies g to every entry of t and combines the results with
// the monoid (B, f, id), in parallel (MAPREDUCE in Figure 2).
func MapReduce[K, V, A, B any, T Traits[K, V, A]](t Tree[K, V, A, T], g func(k K, v V) B, f func(x, y B) B, id B) B {
	return mapReduceNode(t.o(), t.root, g, f, id)
}

// AugProject computes f over g of the augmented values of the maximal
// subtrees covering [lo, hi]: the result equals g(AugRange(lo, hi))
// whenever f(g(a), g(b)) == g(Combine(a, b)), but costs O(log n)
// applications of f and g even when Combine is expensive.
func AugProject[K, V, A, B any, T Traits[K, V, A]](t Tree[K, V, A, T], lo, hi K, g func(A) B, f func(x, y B) B, id B) B {
	return augProjectNode(t.o(), t.root, lo, hi, g, f, id)
}

// AugProjectKV is AugProject with the projection of a single boundary
// entry supplied directly: gEntry must satisfy
// gEntry(k, v) == g(Base(k, v)). It skips materializing Base on the
// search paths, which for map-valued augmentations removes O(log n)
// singleton-structure allocations per query.
func AugProjectKV[K, V, A, B any, T Traits[K, V, A]](t Tree[K, V, A, T], lo, hi K, gEntry func(K, V) B, g func(A) B, f func(x, y B) B, id B) B {
	return augProjectKVNode(t.o(), t.root, lo, hi, gEntry, g, f, id)
}

// AugFilterWith is AugFilter with an additional take-all predicate
// (footnote 3 of the paper): subtrees whose augmented value satisfies
// hAll are taken whole, by reference, without being visited, so a filter
// that selects large contiguous regions costs O(1) per region instead of
// rebuilding it. hAll must satisfy hAll(Combine(a,b)) == hAll(a) &&
// hAll(b); pass nil to disable take-all pruning.
func (t Tree[K, V, A, T]) AugFilterWith(hAny, hAll func(a A) bool) Tree[K, V, A, T] {
	return t.with(t.o().augFilter2(inc(t.root), hAny, hAll))
}
