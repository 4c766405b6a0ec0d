// Package pam provides parallel augmented maps: ordered key-value maps
// augmented with an associative "sum" over their entries, after the PAM
// library of Sun, Ferizovic and Blelloch (PPoPP 2018).
//
// An augmented map type AM(K, <, V, A, g, f, I) is parameterized by a key
// type and ordering, a value type, and an augmenting monoid (A, f, I)
// with base function g mapping one entry to an augmented value. The
// augmented value of a map is then
//
//	A(m) = f(g(k1,v1), g(k2,v2), ..., g(kn,vn))
//
// and is maintained in the tree so that range sums (AugRange, AugLeft),
// augmented filtering (AugFilter) and augmented projection (AugProject)
// run in polylogarithmic or output-sensitive time instead of linear.
//
// The parameterization is supplied as an Entry implementation (the
// analogue of PAM's C++ entry struct): a zero-size type with Less, Id,
// Base and Combine methods. Ready-made entries cover the common cases:
// SumEntry, MaxEntry, MinEntry and CountEntry for augmented maps, and
// NoAug (used implicitly by Map and Set) for plain ones.
//
// All maps are functional (persistent): operations return new maps and
// never modify existing ones, so any snapshot stays valid and can be
// read concurrently while new versions are produced — the paper's
// snapshot-isolation concurrency model (see Shared). Bulk operations
// (Union, Intersect, Difference, Build, MultiInsert, Filter, MapReduce)
// run in parallel with work-efficient join-based algorithms.
package pam

import (
	"cmp"

	"repro/internal/core"
)

// Aug is the augmentation specification of a map type: ordering plus the
// augmenting monoid. Implementations should be zero-size structs so the
// compiler can inline the calls; see SumEntry for an example.
type Aug[K, V, A any] interface {
	// Less is a strict total order on keys.
	Less(a, b K) bool
	// Id is the identity of Combine.
	Id() A
	// Base maps the entry (k, v) to its augmented value.
	Base(k K, v V) A
	// Combine folds two augmented values; it must be associative.
	Combine(x, y A) A
}

// KV is a key-value pair.
type KV[K, V any] struct {
	Key K
	Val V
}

// Scheme selects the balancing scheme backing a map.
type Scheme = core.Scheme

// Balancing schemes. All provide the same asymptotic guarantees; the
// paper (and this library) defaults to weight-balanced trees because the
// subtree sizes they balance on are stored in every node anyway.
const (
	WeightBalanced = core.WeightBalanced
	AVL            = core.AVL
	RedBlack       = core.RedBlack
	Treap          = core.Treap
)

// Stats exposes node-allocation counters for space experiments.
type Stats = core.Stats

// Options configures a map family; the zero value is a weight-balanced
// tree with default parallel grain, default leaf block size, and no
// statistics.
type Options struct {
	// Scheme is the balancing scheme.
	Scheme Scheme
	// Grain overrides the sequential-cutoff size of parallel operations
	// (core.DefaultGrain). MultiInsert and MultiDelete compare it with a
	// batch's work, m·log2(n/m+1), rather than its size.
	Grain int64
	// Block is the leaf block size B (PaC-tree style blocked leaves):
	// the fringe of every map stores sorted runs of up to B entries as
	// flat arrays with one precomputed augmented value per block, so
	// builds, unions and scans allocate and pointer-chase ~B times less
	// at the price of O(B) array work in the one block an update lands
	// in. 0 means the default (32, the PaC-tree sweet spot: big enough
	// to amortize the node header and fill cache lines, small enough
	// that block copies stay cheap next to the O(log n) search above).
	// Raise it (64-128) for read-mostly scan/aggregate workloads; lower
	// it (8-16) when values are large or single-key updates dominate.
	// Block is independent of Grain (Grain caps parallel fork-out by
	// subtree size or batch work; Block shapes the memory layout) and
	// orthogonal to Pool (blocks are recycled through the same pool as
	// nodes; their entry arrays are released to the GC). Like Scheme,
	// Block must agree between maps that are combined (Union, Concat,
	// ...).
	Block int
	// Compress, when non-nil, must be a Compressor[K, V] for the map's
	// key and value types (NewAugMap panics on a mismatch): leaf blocks
	// are then stored difference-encoded — a first-key anchor plus
	// zig-zag varint key deltas, with compressor-encoded values —
	// instead of flat entry arrays, cutting bytes/entry 2-5x for
	// integer-keyed maps with locally dense keys (ids, timestamps,
	// offsets) at the price of sequential O(B) block decoding on probes
	// and re-encoding on block mutation. Scans decode on the fly and
	// checkpoints serialize packed blocks verbatim, so durable stores
	// shrink by the same factor. Requires keys with an exact uint64
	// round-trip (see Compressor); CompressUint64 and CompressInt are
	// the stock instances. Like Scheme and Block, Compress must agree
	// between maps that are combined.
	Compress any
	// Stats, when non-nil, collects node allocation counters.
	Stats *Stats
	// Pool enables node recycling through a sync.Pool. Safety
	// invariant: snapshots must not outlive releases — once Release
	// (or an InPlace operation) drops the last reference to nodes a
	// handle shares, that handle and every map derived from it are
	// dead, because the nodes return to the pool for immediate reuse.
	// Use Retain to keep a snapshot alive across a Release. Misuse
	// fails loudly (best-effort): freed nodes are poisoned so a stale
	// release or mutation panics, and `go test -race` flags concurrent
	// stale reads. See core.Config.Pool.
	Pool bool
}

func (o Options) coreConfig() core.Config {
	return core.Config{Scheme: o.Scheme, Grain: o.Grain, Block: o.Block, Compress: o.Compress, Stats: o.Stats, Pool: o.Pool}
}

// AugMap is a persistent augmented ordered map with entry specification E.
// The zero value is an empty weight-balanced map, immediately usable.
type AugMap[K, V, A any, E Aug[K, V, A]] struct {
	t core.Tree[K, V, A, E]
}

// NewAugMap returns an empty augmented map with the given options.
func NewAugMap[K, V, A any, E Aug[K, V, A]](opts Options) AugMap[K, V, A, E] {
	return AugMap[K, V, A, E]{t: core.New[K, V, A, E](opts.coreConfig())}
}

func wrap[K, V, A any, E Aug[K, V, A]](t core.Tree[K, V, A, E]) AugMap[K, V, A, E] {
	return AugMap[K, V, A, E]{t: t}
}

// Size returns the number of entries.
func (m AugMap[K, V, A, E]) Size() int64 { return m.t.Size() }

// IsEmpty reports whether the map is empty.
func (m AugMap[K, V, A, E]) IsEmpty() bool { return m.t.IsEmpty() }

// Find returns the value at k.
func (m AugMap[K, V, A, E]) Find(k K) (V, bool) { return m.t.Find(k) }

// Contains reports whether k is present.
func (m AugMap[K, V, A, E]) Contains(k K) bool { return m.t.Contains(k) }

// Insert returns m with (k, v) added, replacing any existing value.
func (m AugMap[K, V, A, E]) Insert(k K, v V) AugMap[K, V, A, E] {
	return wrap(m.t.Insert(k, v))
}

// InsertWith returns m with (k, v) added, combining with an existing
// value as h(old, v).
func (m AugMap[K, V, A, E]) InsertWith(k K, v V, h func(old, new V) V) AugMap[K, V, A, E] {
	return wrap(m.t.InsertWith(k, v, h))
}

// Delete returns m without k.
func (m AugMap[K, V, A, E]) Delete(k K) AugMap[K, V, A, E] { return wrap(m.t.Delete(k)) }

// Union returns the union of m and other (other's values win on
// collisions). Runs in parallel; O(x·log(y/x+1)) work for sizes x <= y.
func (m AugMap[K, V, A, E]) Union(other AugMap[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(m.t.Union(other.t))
}

// UnionWith returns the union, combining values of keys present in both
// maps as h(m's value, other's value).
func (m AugMap[K, V, A, E]) UnionWith(other AugMap[K, V, A, E], h func(v1, v2 V) V) AugMap[K, V, A, E] {
	return wrap(m.t.UnionWith(other.t, h))
}

// Intersect returns the entries whose keys appear in both maps, keeping
// other's values.
func (m AugMap[K, V, A, E]) Intersect(other AugMap[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(m.t.Intersect(other.t))
}

// IntersectWith returns the intersection with values h(v1, v2).
func (m AugMap[K, V, A, E]) IntersectWith(other AugMap[K, V, A, E], h func(v1, v2 V) V) AugMap[K, V, A, E] {
	return wrap(m.t.IntersectWith(other.t, h))
}

// Difference returns the entries of m whose keys are not in other.
func (m AugMap[K, V, A, E]) Difference(other AugMap[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(m.t.Difference(other.t))
}

// Filter returns the entries satisfying pred. O(n) work, polylog span.
func (m AugMap[K, V, A, E]) Filter(pred func(k K, v V) bool) AugMap[K, V, A, E] {
	return wrap(m.t.Filter(pred))
}

// AugFilter returns the entries e whose Base value satisfies h, where h
// must satisfy h(Combine(a,b)) == h(a) || h(b) (e.g. a threshold test
// under a max augmentation). Subtrees whose augmented value fails h are
// pruned unvisited: O(k·log(n/k+1)) work for k results.
func (m AugMap[K, V, A, E]) AugFilter(h func(a A) bool) AugMap[K, V, A, E] {
	return wrap(m.t.AugFilter(h))
}

// Build returns a map (with m's options) holding items; duplicate keys
// combine left-to-right with h (nil h keeps the last value). The paper's
// BUILD: parallel sort, parallel dedup, balanced join construction.
func (m AugMap[K, V, A, E]) Build(items []KV[K, V], h func(old, new V) V) AugMap[K, V, A, E] {
	return wrap(m.t.Build(toEntries(items), h))
}

// BuildSorted is Build for strictly-increasing keyed input.
func (m AugMap[K, V, A, E]) BuildSorted(items []KV[K, V]) AugMap[K, V, A, E] {
	return wrap(m.t.BuildSorted(toEntries(items)))
}

// MultiInsert returns m with the batch inserted (parallel bulk update);
// collisions combine as h(old, new), nil h overwrites.
func (m AugMap[K, V, A, E]) MultiInsert(items []KV[K, V], h func(old, new V) V) AugMap[K, V, A, E] {
	return wrap(m.t.MultiInsert(toEntries(items), h))
}

// MultiDelete returns m without the given keys (parallel bulk update).
func (m AugMap[K, V, A, E]) MultiDelete(keys []K) AugMap[K, V, A, E] {
	return wrap(m.t.MultiDelete(keys))
}

// Range returns the submap with lo <= key <= hi.
func (m AugMap[K, V, A, E]) Range(lo, hi K) AugMap[K, V, A, E] { return wrap(m.t.Range(lo, hi)) }

// UpTo returns the submap with key <= hi.
func (m AugMap[K, V, A, E]) UpTo(hi K) AugMap[K, V, A, E] { return wrap(m.t.UpTo(hi)) }

// DownTo returns the submap with key >= lo.
func (m AugMap[K, V, A, E]) DownTo(lo K) AugMap[K, V, A, E] { return wrap(m.t.DownTo(lo)) }

// Split divides m at k into entries below k, the value at k if present,
// and entries above k.
func (m AugMap[K, V, A, E]) Split(k K) (left AugMap[K, V, A, E], v V, found bool, right AugMap[K, V, A, E]) {
	l, v, found, r := m.t.Split(k)
	return wrap(l), v, found, wrap(r)
}

// Join composes m, (k, v), and other; keys of m must be < k and keys of
// other > k.
func (m AugMap[K, V, A, E]) Join(k K, v V, other AugMap[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(m.t.Join(k, v, other.t))
}

// Concat composes m and other when every key of m is below every key of
// other (the paper's join2).
func (m AugMap[K, V, A, E]) Concat(other AugMap[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(m.t.Concat(other.t))
}

// First returns the minimum entry.
func (m AugMap[K, V, A, E]) First() (K, V, bool) { return m.t.First() }

// Last returns the maximum entry.
func (m AugMap[K, V, A, E]) Last() (K, V, bool) { return m.t.Last() }

// Previous returns the largest entry with key < k.
func (m AugMap[K, V, A, E]) Previous(k K) (K, V, bool) { return m.t.Previous(k) }

// Next returns the smallest entry with key > k.
func (m AugMap[K, V, A, E]) Next(k K) (K, V, bool) { return m.t.Next(k) }

// Rank returns the number of keys < k.
func (m AugMap[K, V, A, E]) Rank(k K) int64 { return m.t.Rank(k) }

// Select returns the i-th smallest entry (0-based).
func (m AugMap[K, V, A, E]) Select(i int64) (K, V, bool) { return m.t.Select(i) }

// AugVal returns the augmented value of the whole map in O(1).
func (m AugMap[K, V, A, E]) AugVal() A { return m.t.AugVal() }

// AugLeft returns the augmented value over keys <= k in O(log n).
func (m AugMap[K, V, A, E]) AugLeft(k K) A { return m.t.AugLeft(k) }

// AugRight returns the augmented value over keys >= k in O(log n).
func (m AugMap[K, V, A, E]) AugRight(k K) A { return m.t.AugRight(k) }

// AugRange returns the augmented value over lo <= key <= hi in O(log n).
func (m AugMap[K, V, A, E]) AugRange(lo, hi K) A { return m.t.AugRange(lo, hi) }

// ForEach visits entries in key order until visit returns false.
func (m AugMap[K, V, A, E]) ForEach(visit func(k K, v V) bool) { m.t.ForEach(visit) }

// Entries materializes the entries in key order (in parallel).
func (m AugMap[K, V, A, E]) Entries() []KV[K, V] { return fromEntries(m.t.Entries()) }

// Keys materializes the keys in order (in parallel).
func (m AugMap[K, V, A, E]) Keys() []K { return m.t.Keys() }

// MapValues returns m with values fn(k, v) and recomputed augmentation.
func (m AugMap[K, V, A, E]) MapValues(fn func(k K, v V) V) AugMap[K, V, A, E] {
	return wrap(m.t.MapValues(fn))
}

// Validate checks all structural invariants (ordering, sizes, balance,
// augmented values compared with augEq; nil augEq skips augmentation).
// Intended for tests.
func (m AugMap[K, V, A, E]) Validate(augEq func(x, y A) bool) error { return m.t.Validate(augEq) }

// Tree exposes the underlying core tree for packages building richer
// structures on top (interval maps, range trees).
func (m AugMap[K, V, A, E]) Tree() core.Tree[K, V, A, E] { return m.t }

// WrapTree builds an AugMap around an existing core tree.
func WrapTree[K, V, A any, E Aug[K, V, A]](t core.Tree[K, V, A, E]) AugMap[K, V, A, E] {
	return wrap(t)
}

// MapReduce applies g to every entry and folds the results through the
// monoid (B, f, id), in parallel.
func MapReduce[K, V, A, B any, E Aug[K, V, A]](m AugMap[K, V, A, E], g func(k K, v V) B, f func(x, y B) B, id B) B {
	return core.MapReduce(m.t, g, f, id)
}

// AugProject computes the projection g of the augmented value of
// [lo, hi], folding per-subtree projections with f: the result equals
// g(AugRange(lo, hi)) whenever f(g(a), g(b)) == g(Combine(a, b)), in
// O(log n) applications of f and g even when Combine is expensive (the
// key query on range trees, §5.2).
func AugProject[K, V, A, B any, E Aug[K, V, A]](m AugMap[K, V, A, E], lo, hi K, g func(A) B, f func(x, y B) B, id B) B {
	return core.AugProject(m.t, lo, hi, g, f, id)
}

// AugProjectKV is AugProject with the projection of a single boundary
// entry supplied directly: gEntry must satisfy
// gEntry(k, v) == g(E{}.Base(k, v)). It avoids materializing Base for
// the O(log n) entries on the search paths — for map-valued
// augmentations (range trees, segment maps) each Base is a
// heap-allocated singleton map, so direct projection makes count
// queries allocation-free.
func AugProjectKV[K, V, A, B any, E Aug[K, V, A]](m AugMap[K, V, A, E], lo, hi K, gEntry func(K, V) B, g func(A) B, f func(x, y B) B, id B) B {
	return core.AugProjectKV(m.t, lo, hi, gEntry, g, f, id)
}

func toEntries[K, V any](items []KV[K, V]) []core.Entry[K, V] {
	out := make([]core.Entry[K, V], len(items))
	for i, e := range items {
		out[i] = core.Entry[K, V]{Key: e.Key, Val: e.Val}
	}
	return out
}

func fromEntries[K, V any](items []core.Entry[K, V]) []KV[K, V] {
	out := make([]KV[K, V], len(items))
	for i, e := range items {
		out[i] = KV[K, V]{Key: e.Key, Val: e.Val}
	}
	return out
}

// Ordered is the constraint for keys usable with the ready-made entries.
type Ordered = cmp.Ordered

// Number constrains the value types of the arithmetic entries.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// AugTopK returns up to k entries in nonincreasing order of their Base
// values. It requires the map's Combine to be the maximum under the
// strict order less (e.g. MaxEntry). O(k log n) — the augmentation
// prunes everything below the k-th best value.
func AugTopK[K, V, A any, E Aug[K, V, A]](m AugMap[K, V, A, E], k int, less func(a, b A) bool) []KV[K, V] {
	return fromEntries(core.TopKByAug(m.t, k, less))
}

// In-place variants. These consume the receiver's reference: the old
// value of the handle must not be used afterwards (other, explicitly
// retained snapshots remain valid). When the tree is unshared they reuse
// nodes instead of path-copying, which is how an ephemeral workload
// (load phase, benchmark loops) avoids paying for persistence it does
// not use — PAM gets the same effect from C++ move semantics.

// InsertInPlace inserts (k, v), consuming the receiver's reference.
func (m *AugMap[K, V, A, E]) InsertInPlace(k K, v V) { m.t.InsertInPlace(k, v) }

// DeleteInPlace removes k, consuming the receiver's reference.
func (m *AugMap[K, V, A, E]) DeleteInPlace(k K) { m.t.DeleteInPlace(k) }

// MultiInsertInPlace bulk-inserts, consuming the receiver's reference.
func (m *AugMap[K, V, A, E]) MultiInsertInPlace(items []KV[K, V], h func(old, new V) V) {
	m.t.MultiInsertInPlace(toEntries(items), h)
}

// Retain takes an extra reference, so the handle survives a subsequent
// in-place update or Release on a copy.
func (m AugMap[K, V, A, E]) Retain() AugMap[K, V, A, E] { return wrap(m.t.Retain()) }

// Release drops the receiver's reference and empties the handle; only
// needed with Options.Pool or for allocation statistics.
func (m *AugMap[K, V, A, E]) Release() { m.t.Release() }

// ForEachRange visits entries with lo <= key <= hi in key order until
// visit returns false. O(log n + k) for k visited entries, allocation
// free — the iteration analogue of Range.
func (m AugMap[K, V, A, E]) ForEachRange(lo, hi K, visit func(k K, v V) bool) {
	m.t.ForEachRange(lo, hi, visit)
}

// Values materializes the values in key order (in parallel).
func (m AugMap[K, V, A, E]) Values() []V { return m.t.Values() }

// AugFilterWith is AugFilter with an additional take-all predicate
// (footnote 3 of the paper): subtrees whose augmented value satisfies
// hAll are taken whole by reference, unvisited. hAll must satisfy
// hAll(Combine(a,b)) == hAll(a) && hAll(b); nil disables the take-all
// pruning (making this identical to AugFilter).
func (m AugMap[K, V, A, E]) AugFilterWith(hAny, hAll func(a A) bool) AugMap[K, V, A, E] {
	return wrap(m.t.AugFilterWith(hAny, hAll))
}
