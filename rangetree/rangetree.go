// Package rangetree implements 2D range trees (§5.2 of the PAM paper):
// a set of weighted points in the plane answering rectangle weight-sum,
// count, and report queries.
//
// It is the paper's flagship demonstration of nested augmented maps: the
// outer map stores points sorted by (x, y) and its *augmented value is
// itself an augmented map* — all points of the subtree sorted by (y, x),
// augmented by the sum of weights:
//
//	R_I = AM(P, <_y, W, W,  v,        +, 0)
//	R_O = AM(P, <_x, W, R_I, singleton, union, empty)
//
// Because maps are persistent, the inner map of a node shares structure
// with the inner maps of its children (Table 4 measures this sharing).
// A rectangle weight query runs two nested logarithmic searches: an
// AugProject over x projects each covered inner map through an AugRange
// over y — O(log^2 n) total.
package rangetree

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/pam"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Weighted is a point with an integer weight.
type Weighted struct {
	Point
	W int64
}

// innerEntry: points ordered by (y, x), values are weights, augmented by
// the weight sum.
type innerEntry struct{}

func (innerEntry) Less(a, b Point) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

func (innerEntry) Id() int64 { return 0 }

func (innerEntry) Base(_ Point, w int64) int64 { return w }

func (innerEntry) Combine(x, y int64) int64 { return x + y }

// Inner is the inner map type: by-(y,x) points augmented with weight sum.
type Inner = pam.AugMap[Point, int64, int64, innerEntry]

// outerEntry: points ordered by (x, y), values are weights, augmented by
// the inner map; Combine is (persistent, parallel) map union.
type outerEntry struct{}

func (outerEntry) Less(a, b Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

func (outerEntry) Id() Inner { return Inner{} }

func (outerEntry) Base(p Point, w int64) Inner {
	return Inner{}.Insert(p, w)
}

func (outerEntry) Combine(x, y Inner) Inner {
	return x.UnionWith(y, func(a, b int64) int64 { return a + b })
}

// outer is the static structure: the nested-augmentation outer map,
// built only in bulk and consulted per ladder level.
type outer = pam.AugMap[Point, int64, Inner, outerEntry]

// bufEntry orders buffered points like the outer map, unaugmented.
type bufEntry struct{}

func (bufEntry) Less(a, b Point) bool                { return outerEntry{}.Less(a, b) }
func (bufEntry) Id() struct{}                        { return struct{}{} }
func (bufEntry) Base(Point, int64) struct{}          { return struct{}{} }
func (bufEntry) Combine(struct{}, struct{}) struct{} { return struct{}{} }

// ladder is the dynamization engine instance (see internal/dynamic).
type ladder = dynamic.Ladder[Point, int64, outer, bufEntry]

func addWeights(a, b int64) int64 { return a + b }

// backend drives the generic ladder with this package's static
// structure. Level builds assume distinct keys (the engine merges
// duplicates away), so Build's combine is never invoked.
var backend = &dynamic.Backend[Point, int64, outer]{
	Build:   func(proto outer, items []pam.KV[Point, int64]) outer { return proto.Build(items, addWeights) },
	Entries: outer.Entries,
	Size:    outer.Size,
	Find:    outer.Find,
	Less:    outerEntry{}.Less,
	ValEq:   func(a, b int64) bool { return a == b },
}

// Tree is a persistent 2D range tree over weighted points. Duplicate
// points combine by adding weights. Construction is O(n log n) work;
// QuerySum and QueryCount are O(log^2 n); ReportAll is O(log^2 n + k)
// for k reported points.
//
// The union-augmentation makes per-update augmented-value recomputation
// linear in the worst case, so single-point tree updates are off the
// table; instead the tree is dynamized by a logarithmic-method ladder
// (internal/dynamic): O(log n) immutable bulk structures of
// geometrically increasing size plus a constant-capacity write buffer.
// Insert and Delete write the buffer in O(log n) and carry it down the
// ladder with parallel rebuilds — amortized O(polylog n) per update —
// while every query consults the O(log n) levels and stays worst-case
// O(polylog n), with no O(n/ratio) buffer tail. Build and Merge return
// fully condensed single-level trees. Every operation is persistent:
// it returns a new handle and old handles keep answering from exactly
// the contents they had.
type Tree struct {
	lad ladder
}

// New returns an empty range tree with the given options.
func New(opts pam.Options) Tree {
	return Tree{lad: dynamic.New[Point, int64, outer, bufEntry](
		pam.NewAugMap[Point, int64, Inner, outerEntry](opts))}
}

// Build returns a range tree (with t's options) over the given points,
// ignoring t's contents.
func (t Tree) Build(pts []Weighted) Tree {
	items := make([]pam.KV[Point, int64], len(pts))
	for i, p := range pts {
		items[i] = pam.KV[Point, int64]{Key: p.Point, Val: p.W}
	}
	return Tree{lad: t.lad.WithStatic(backend, t.lad.Proto().Build(items, addWeights))}
}

// Insert returns a tree with the weighted point added (the weight of an
// already-present point increases by w, matching Build and Merge).
// Amortized O(polylog n): the point lands in the ladder's write buffer,
// which carries down the geometric levels with parallel rebuilds.
func (t Tree) Insert(p Point, w int64) Tree {
	return Tree{lad: t.lad.Insert(backend, p, w, addWeights)}
}

// Delete returns a tree without the given point (whatever its weight);
// deleting an absent point is a no-op. Amortized O(polylog n).
func (t Tree) Delete(p Point) Tree {
	return Tree{lad: t.lad.Delete(backend, p)}
}

// Pending returns the number of updates in the ladder's write buffer,
// bounded by the write-buffer capacity (dynamic.BufCap by default;
// 0 after Build or Merge).
func (t Tree) Pending() int64 { return t.lad.Pending() }

// LevelRecordCounts reports the record count of each ladder level
// (diagnostics for the geometric-growth tests).
func (t Tree) LevelRecordCounts() []int64 { return t.lad.LevelRecordCounts() }

// Contains reports whether the point is present.
func (t Tree) Contains(p Point) bool { return t.lad.Contains(backend, p) }

// Weight returns the weight at p.
func (t Tree) Weight(p Point) (int64, bool) { return t.lad.Find(backend, p) }

// Merge combines two range trees (weights of identical points add),
// condensing both sides' ladders first; the result is a fully
// condensed single-level tree.
func (t Tree) Merge(other Tree) Tree {
	a, b := t.lad.Condense(backend), other.lad.Condense(backend)
	return Tree{lad: t.lad.WithStatic(backend, a.UnionWith(b, addWeights))}
}

// Size returns the number of distinct points.
func (t Tree) Size() int64 { return t.lad.Size() }

// Points returns every point with its weight, sorted by (x, y). It
// folds the ladder's buffer, overflow runs and levels in one merge
// cascade, in O(n) time; Build(t.Points()) is t as a condensed tree.
func (t Tree) Points() []Weighted {
	entries := t.lad.Entries(backend)
	out := make([]Weighted, len(entries))
	for i, e := range entries {
		out[i] = Weighted{Point: e.Key, W: e.Val}
	}
	return out
}

// Rect is a closed query rectangle.
type Rect struct {
	XLo, XHi float64
	YLo, YHi float64
}

func (r Rect) contains(p Point) bool {
	return p.X >= r.XLo && p.X <= r.XHi && p.Y >= r.YLo && p.Y <= r.YHi
}

// xLoKey/xHiKey are the outer-key sentinels bounding the x-range.
func (r Rect) xLoKey() Point { return Point{X: r.XLo, Y: math.Inf(-1)} }
func (r Rect) xHiKey() Point { return Point{X: r.XHi, Y: math.Inf(1)} }

func (r Rect) yLoKey() Point { return Point{Y: r.YLo, X: math.Inf(-1)} }
func (r Rect) yHiKey() Point { return Point{Y: r.YHi, X: math.Inf(1)} }

// bufDelta folds the write buffer's contribution to a per-point
// aggregate over r: + each buffered insert inside r, − each tombstone
// inside r. O(dynamic.BufCap) = O(1) records scanned.
func (t Tree) bufDelta(r Rect, f func(sign int64, p Point, w int64)) {
	buf := t.lad.Buf()
	if buf.IsEmpty() {
		return
	}
	buf.Adds.ForEachRange(r.xLoKey(), r.xHiKey(), func(p Point, w int64) bool {
		if r.contains(p) {
			f(+1, p, w)
		}
		return true
	})
	buf.Dels.ForEachRange(r.xLoKey(), r.xHiKey(), func(p Point, w int64) bool {
		if r.contains(p) {
			f(-1, p, w)
		}
		return true
	})
}

// yIn reports whether a point's y lies in the rectangle's y-range —
// exactly the contribution of a singleton inner map to the y-range
// queries, so the AugProjectKV boundary projections below stay
// equivalent to their g(Base(k, v)) forms.
func (r Rect) yIn(p Point) bool { return p.Y >= r.YLo && p.Y <= r.YHi }

// sumIn is the paper's QUERY over one static structure: AugProjectKV
// over the x-range, projecting each covered inner map through a
// y-range weight sum and each boundary point directly (allocation
// free). O(log^2 of the structure's size).
func sumIn(s outer, r Rect) int64 {
	return pam.AugProjectKV(s, r.xLoKey(), r.xHiKey(),
		func(p Point, w int64) int64 {
			if r.yIn(p) {
				return w
			}
			return 0
		},
		func(in Inner) int64 { return in.AugRange(r.yLoKey(), r.yHiKey()) },
		func(a, b int64) int64 { return a + b },
		0)
}

// QuerySum returns the sum of weights of the points inside r, summing
// the signed contributions of every ladder level plus the write
// buffer's correction. Worst-case O(log^3 n): O(log n) levels at
// O(log^2) each.
func (t Tree) QuerySum(r Rect) int64 {
	var sum int64
	t.lad.EachSide(func(sign int64, s outer) { sum += sign * sumIn(s, r) })
	t.bufDelta(r, func(sign int64, _ Point, w int64) { sum += sign * w })
	return sum
}

// QueryCount returns the number of points inside r, by projecting inner
// maps through rank differences instead of weight sums. Tombstoned
// points appear once live and once as a tombstone across the levels,
// so signed summation counts them zero times. Worst-case O(log^3 n).
func (t Tree) QueryCount(r Rect) int64 {
	lo, hi := r.yLoKey(), r.yHiKey()
	var count int64
	t.lad.EachSide(func(sign int64, s outer) {
		count += sign * pam.AugProjectKV(s, r.xLoKey(), r.xHiKey(),
			func(p Point, _ int64) int64 {
				if r.yIn(p) {
					return 1
				}
				return 0
			},
			// Rank counts keys strictly below its argument; the ±Inf x
			// sentinels make the difference exactly the per-subtree count of
			// points with YLo <= y <= YHi.
			func(in Inner) int64 { return in.Rank(hi) - in.Rank(lo) },
			func(a, b int64) int64 { return a + b },
			0)
	})
	t.bufDelta(r, func(sign int64, _ Point, _ int64) { count += sign })
	return count
}

// ReportAll returns the points inside r with their weights, sorted by
// (x, y). Each level reports its matches; a point cancelled by a
// tombstone contributes a live record and a tombstone record with the
// same weight, so per-point signed aggregation leaves exactly the live
// points. O(log^2 n per level + matches) — output-sensitive up to the
// tombstoned matches, which the ladder's dead-record bound keeps
// proportional.
func (t Tree) ReportAll(r Rect) []Weighted {
	// Fully condensed tree (fresh from Build or Merge): one pure level,
	// nothing to cancel — append matches directly, no aggregation map.
	if s, ok := t.lad.Single(); ok {
		var parts []Weighted
		pam.AugProjectKV(s, r.xLoKey(), r.xHiKey(),
			func(p Point, w int64) struct{} {
				if r.yIn(p) {
					parts = append(parts, Weighted{Point: p, W: w})
				}
				return struct{}{}
			},
			func(in Inner) struct{} {
				in.ForEachRange(r.yLoKey(), r.yHiKey(), func(p Point, w int64) bool {
					parts = append(parts, Weighted{Point: p, W: w})
					return true
				})
				return struct{}{}
			},
			func(a, b struct{}) struct{} { return a },
			struct{}{})
		sortWeighted(parts)
		return parts
	}
	type acc struct {
		n int64
		w int64
	}
	sums := make(map[Point]acc)
	add := func(sign int64, p Point, w int64) {
		a := sums[p]
		a.n += sign
		a.w += sign * w
		sums[p] = a
	}
	t.lad.EachSide(func(sign int64, s outer) {
		pam.AugProjectKV(s, r.xLoKey(), r.xHiKey(),
			func(p Point, w int64) struct{} {
				if r.yIn(p) {
					add(sign, p, w)
				}
				return struct{}{}
			},
			func(in Inner) struct{} {
				in.ForEachRange(r.yLoKey(), r.yHiKey(), func(p Point, w int64) bool {
					add(sign, p, w)
					return true
				})
				return struct{}{}
			},
			func(a, b struct{}) struct{} { return a },
			struct{}{})
	})
	t.bufDelta(r, add)
	parts := make([]Weighted, 0, len(sums))
	for p, a := range sums {
		if a.n > 0 {
			parts = append(parts, Weighted{Point: p, W: a.w})
		}
	}
	sortWeighted(parts)
	return parts
}

func sortWeighted(parts []Weighted) {
	slices.SortFunc(parts, func(a, b Weighted) int {
		if a.X != b.X {
			if a.X < b.X {
				return -1
			}
			return 1
		}
		switch {
		case a.Y < b.Y:
			return -1
		case a.Y > b.Y:
			return 1
		default:
			return 0
		}
	})
}

// Validate checks the ladder invariants (carry propagation, buffer
// contract, level capacities) and, for every level structure, the
// outer-tree invariants including that every node's inner map holds
// exactly the subtree's points with correct weight sums (for tests).
// O(n log n).
func (t Tree) Validate() error {
	if err := t.lad.Validate(backend); err != nil {
		return err
	}
	innerEq := func(a, b Inner) bool {
		if a.Size() != b.Size() {
			return false
		}
		if a.AugVal() != b.AugVal() {
			return false
		}
		ae, be := a.Entries(), b.Entries()
		for i := range ae {
			if ae[i] != be[i] {
				return false
			}
		}
		return true
	}
	var err error
	t.lad.EachSide(func(_ int64, s outer) {
		if err == nil {
			err = s.Validate(innerEq)
		}
	})
	return err
}

// InnerNodeCounts reports the space effect of persistence on the inner
// maps across every ladder level (Table 4): unshared is the physical
// node count (interior nodes plus leaf blocks, one inner map per outer
// node or leaf block) if every inner map stored its own private copy;
// actual is the number of physically distinct inner nodes, which path
// copying makes far smaller because each parent's inner map shares
// structure with its children's.
func (t Tree) InnerNodeCounts() (unshared, actual int64) {
	var trees []core.Tree[Point, int64, int64, innerEntry]
	t.lad.EachSide(func(_ int64, s outer) {
		for _, in := range core.NodeAugs(s.Tree()) {
			unshared += core.CountUniqueNodes(in.Tree())
			trees = append(trees, in.Tree())
		}
	})
	return unshared, core.CountUniqueNodes(trees...)
}
