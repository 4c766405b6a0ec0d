// Package stabbing implements rectangle stabbing queries from the
// follow-up paper "Parallel Range, Segment and Rectangle Queries with
// Augmented Maps" (Sun & Blelloch, arXiv:1803.08621, §5): maintain a set
// of closed axis-parallel rectangles and, for a query point (x, y),
// count or report the rectangles containing it.
//
// Counting composes the §5.1 interval-map idea in both dimensions. A
// rectangle [xl, xh] x [yl, yh] contains (x, y) iff its x-extent stabs x
// and its y-extent stabs y, and since no rectangle can be simultaneously
// entirely left and entirely right of x,
//
//	count(x, y) = #(xl <= x, y-extent stabs y) - #(xh < x, y-extent stabs y)
//
// Each term is a prefix sum over an endpoint-keyed augmented map — one
// keyed by left x-endpoints ("opens"), one by right ("closes") — whose
// augmented values are *nested y-interval count structures*: the
// subtree's rectangles keyed by yl and by yh, combined by persistent
// parallel union, so a nested structure answers "how many y-extents stab
// y" as a rank difference in O(log n). AugProject folds the O(log n)
// nested structures on the prefix without ever invoking the expensive
// union Combine: O(log^2 n) per count query.
//
// Reporting uses a third map with the cheap interval-tree augmentation
// alone — rectangles keyed by left x-endpoint, augmented with the
// maximum right x-endpoint: an AugFilter keeps the rectangles whose
// x-extent stabs x in output-sensitive time, and the y-extent check
// filters the survivors. (The report path deliberately avoids splitting
// the union-augmented endpoint maps: restricting those recombines nested
// maps along the split path, which is not polylogarithmic.) With kx
// rectangles stabbed in x alone, ReportStab costs
// O(log n + kx log(n/kx + 1)).
//
// Rectangles are closed on all sides and behave as a set: exact
// duplicates collapse. All maps are persistent — snapshots taken before
// a Merge remain valid — and Build and Merge run in parallel.
package stabbing

import (
	"math"
	"slices"

	"repro/internal/dynamic"
	"repro/internal/parallel"
	"repro/pam"
)

// Rect is a closed axis-parallel rectangle [XLo, XHi] x [YLo, YHi].
type Rect struct {
	XLo, XHi, YLo, YHi float64
}

// Contains reports whether the rectangle contains the point (x, y).
func (r Rect) Contains(x, y float64) bool {
	return r.XLo <= x && x <= r.XHi && r.YLo <= y && y <= r.YHi
}

// Key orders; ties break lexicographically on the remaining coordinates
// so distinct rectangles compare distinct and ±Inf sentinels bound
// exactly the prefixes the queries need.

func lessXLo(a, b Rect) bool {
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	if a.XHi != b.XHi {
		return a.XHi < b.XHi
	}
	if a.YLo != b.YLo {
		return a.YLo < b.YLo
	}
	return a.YHi < b.YHi
}

func lessXHi(a, b Rect) bool {
	if a.XHi != b.XHi {
		return a.XHi < b.XHi
	}
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	if a.YLo != b.YLo {
		return a.YLo < b.YLo
	}
	return a.YHi < b.YHi
}

func lessYLo(a, b Rect) bool {
	if a.YLo != b.YLo {
		return a.YLo < b.YLo
	}
	if a.YHi != b.YHi {
		return a.YHi < b.YHi
	}
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	return a.XHi < b.XHi
}

func lessYHi(a, b Rect) bool {
	if a.YHi != b.YHi {
		return a.YHi < b.YHi
	}
	if a.YLo != b.YLo {
		return a.YLo < b.YLo
	}
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	return a.XHi < b.XHi
}

// yloKey / yhiKey order the nested count maps by (YLo, ...) and
// (YHi, ...) with no augmentation; stab counting is a rank difference.
type yloKey struct{}

func (yloKey) Less(a, b Rect) bool                 { return lessYLo(a, b) }
func (yloKey) Id() struct{}                        { return struct{}{} }
func (yloKey) Base(Rect, struct{}) struct{}        { return struct{}{} }
func (yloKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

type yhiKey struct{}

func (yhiKey) Less(a, b Rect) bool                 { return lessYHi(a, b) }
func (yhiKey) Id() struct{}                        { return struct{}{} }
func (yhiKey) Base(Rect, struct{}) struct{}        { return struct{}{} }
func (yhiKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

type yloMap = pam.AugMap[Rect, struct{}, struct{}, yloKey]
type yhiMap = pam.AugMap[Rect, struct{}, struct{}, yhiKey]

// ySet is the nested y-interval count structure: the subtree's
// rectangles keyed by bottom edge and by top edge.
type ySet struct {
	byLo yloMap
	byHi yhiMap
}

func (s ySet) union(o ySet) ySet {
	return ySet{byLo: s.byLo.Union(o.byLo), byHi: s.byHi.Union(o.byHi)}
}

func singletonYSet(r Rect) ySet {
	return ySet{byLo: yloMap{}.Insert(r, struct{}{}), byHi: yhiMap{}.Insert(r, struct{}{})}
}

// countStab counts rectangles whose y-extent contains y in O(log n):
// those whose bottom edge is at or below y minus those whose top edge is
// strictly below y (the two miss-sets are disjoint, so
// inclusion-exclusion is exact).
func (s ySet) countStab(y float64) int64 {
	pos, neg := math.Inf(1), math.Inf(-1)
	bottomAtOrBelow := s.byLo.Rank(Rect{YLo: y, YHi: pos, XLo: pos, XHi: pos}) // #(YLo <= y)
	topBelow := s.byHi.Rank(Rect{YHi: y, YLo: neg, XLo: neg, XHi: neg})        // #(YHi < y)
	return bottomAtOrBelow - topBelow
}

// opensEntry: rectangles keyed by left x-endpoint with the nested
// y-interval count structure.
type opensEntry struct{}

func (opensEntry) Less(a, b Rect) bool { return lessXLo(a, b) }
func (opensEntry) Id() ySet            { return ySet{} }
func (opensEntry) Base(r Rect, _ struct{}) ySet {
	return singletonYSet(r)
}
func (opensEntry) Combine(x, y ySet) ySet { return x.union(y) }

// reportEntry: rectangles keyed by left x-endpoint, augmented with the
// maximum right x-endpoint (the §5.1 interval-map augmentation) for
// output-sensitive stabbing reports.
type reportEntry struct{}

func (reportEntry) Less(a, b Rect) bool             { return lessXLo(a, b) }
func (reportEntry) Id() float64                     { return math.Inf(-1) }
func (reportEntry) Base(r Rect, _ struct{}) float64 { return r.XHi }
func (reportEntry) Combine(x, y float64) float64    { return max(x, y) }

// closesEntry: rectangles keyed by right x-endpoint with the nested
// y-interval count structure.
type closesEntry struct{}

func (closesEntry) Less(a, b Rect) bool { return lessXHi(a, b) }
func (closesEntry) Id() ySet            { return ySet{} }
func (closesEntry) Base(r Rect, _ struct{}) ySet {
	return singletonYSet(r)
}
func (closesEntry) Combine(x, y ySet) ySet { return x.union(y) }

type opensMap = pam.AugMap[Rect, struct{}, ySet, opensEntry]
type closesMap = pam.AugMap[Rect, struct{}, ySet, closesEntry]
type reportMap = pam.AugMap[Rect, struct{}, float64, reportEntry]

// static is the immutable bulk structure one ladder level holds: the
// three constituent maps, built and merged in parallel.
type static struct {
	opens  opensMap
	closes closesMap
	report reportMap
}

// build constructs the three maps over the items in parallel; the
// receiver supplies the options.
func (s static) build(items []pam.KV[Rect, struct{}]) static {
	var out static
	parallel.Do3(
		func() { out.opens = s.opens.Build(items, nil) },
		func() { out.closes = s.closes.Build(items, nil) },
		func() { out.report = s.report.Build(items, nil) },
	)
	return out
}

// union merges two static structures with parallel persistent union.
func (s static) union(o static) static {
	var out static
	parallel.Do3(
		func() { out.opens = s.opens.Union(o.opens) },
		func() { out.closes = s.closes.Union(o.closes) },
		func() { out.report = s.report.Union(o.report) },
	)
	return out
}

// bufKey orders buffered rectangles in the canonical
// (xLo, xHi, yLo, yHi) order, unaugmented.
type bufKey struct{}

func (bufKey) Less(a, b Rect) bool                 { return lessXLo(a, b) }
func (bufKey) Id() struct{}                        { return struct{}{} }
func (bufKey) Base(Rect, struct{}) struct{}        { return struct{}{} }
func (bufKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

// ladder is the dynamization engine instance (see internal/dynamic).
type ladder = dynamic.Ladder[Rect, struct{}, static, bufKey]

// backend drives the generic ladder with this package's static
// structure; the opens map is the canonical key order.
var backend = &dynamic.Backend[Rect, struct{}, static]{
	Build:   func(proto static, items []pam.KV[Rect, struct{}]) static { return proto.build(items) },
	Entries: func(s static) []pam.KV[Rect, struct{}] { return s.opens.Entries() },
	Size:    func(s static) int64 { return s.opens.Size() },
	Find:    func(s static, k Rect) (struct{}, bool) { return s.opens.Find(k) },
	Less:    lessXLo,
	ValEq:   nil,
}

// Map is a persistent rectangle-stabbing structure. The zero value is
// empty and usable. As with rangetree, the union-valued augmentations
// make single-rectangle tree updates linear in the worst case, so the
// structure is dynamized by a logarithmic-method ladder
// (internal/dynamic): O(log n) immutable bulk structures — each the
// three maps above, built and merged in parallel — of geometrically
// increasing size, plus a constant-capacity write buffer. Insert and
// Delete write the buffer in O(log n) and carry it down the ladder
// with parallel rebuilds, for amortized O(polylog n) updates and
// worst-case polylog queries; Build and Merge return fully condensed
// single-level maps. All versions persist: updates return new handles
// and old handles keep answering from exactly the contents they had.
type Map struct {
	lad ladder
}

// New returns an empty rectangle map with the given options.
func New(opts pam.Options) Map {
	return Map{lad: dynamic.New[Rect, struct{}, static, bufKey](static{
		opens:  pam.NewAugMap[Rect, struct{}, ySet, opensEntry](opts),
		closes: pam.NewAugMap[Rect, struct{}, ySet, closesEntry](opts),
		report: pam.NewAugMap[Rect, struct{}, float64, reportEntry](opts),
	})}
}

// Build returns a map (with m's options) over the given rectangles
// (duplicates collapse). O(n log^2 n) work, polylogarithmic span; the
// three constituent maps build in parallel.
func (m Map) Build(rects []Rect) Map {
	items := make([]pam.KV[Rect, struct{}], len(rects))
	for i, r := range rects {
		items[i] = pam.KV[Rect, struct{}]{Key: r}
	}
	return Map{lad: m.lad.WithStatic(backend, m.lad.Proto().build(items))}
}

// Insert returns a map with the rectangle added (a duplicate is a
// no-op). Amortized O(polylog n): the rectangle lands in the ladder's
// write buffer, which carries down the geometric levels with parallel
// rebuilds.
func (m Map) Insert(r Rect) Map {
	return Map{lad: m.lad.Insert(backend, r, struct{}{}, nil)}
}

// Delete returns a map without the rectangle; deleting an absent
// rectangle is a no-op. Amortized O(polylog n).
func (m Map) Delete(r Rect) Map {
	return Map{lad: m.lad.Delete(backend, r)}
}

// Pending returns the number of updates in the ladder's write buffer,
// bounded by the write-buffer capacity (dynamic.BufCap by default;
// 0 after Build or Merge).
func (m Map) Pending() int64 { return m.lad.Pending() }

// LevelRecordCounts reports the record count of each ladder level
// (diagnostics for the geometric-growth tests).
func (m Map) LevelRecordCounts() []int64 { return m.lad.LevelRecordCounts() }

// Contains reports whether the rectangle is present.
func (m Map) Contains(r Rect) bool { return m.lad.Contains(backend, r) }

// Merge returns the union of two rectangle maps (parallel, persistent),
// condensing both sides' ladders first; the result is fully condensed.
func (m Map) Merge(other Map) Map {
	a, b := m.lad.Condense(backend), other.lad.Condense(backend)
	return Map{lad: m.lad.WithStatic(backend, a.union(b))}
}

// Size returns the number of distinct rectangles.
func (m Map) Size() int64 { return m.lad.Size() }

// IsEmpty reports whether the map is empty.
func (m Map) IsEmpty() bool { return m.Size() == 0 }

// countStabIn counts the rectangles of one static structure containing
// (x, y): AugProjectKV prefix sums over the opens and closes endpoint
// maps, stabbing each covered nested y-interval structure and counting
// boundary rectangles directly (allocation free — a singleton nested
// structure contributes 1 exactly when its rectangle's y-extent stabs
// y).
func countStabIn(s static, x, y float64) int64 {
	neg := math.Inf(-1)
	countOne := func(r Rect, _ struct{}) int64 {
		if r.YLo <= y && y <= r.YHi {
			return 1
		}
		return 0
	}
	add := func(a, b int64) int64 { return a + b }
	opened := pam.AugProjectKV(s.opens,
		Rect{XLo: neg, XHi: neg, YLo: neg, YHi: neg},
		Rect{XLo: x, XHi: math.Inf(1), YLo: math.Inf(1), YHi: math.Inf(1)},
		countOne,
		func(ys ySet) int64 { return ys.countStab(y) },
		add, 0)
	closed := pam.AugProjectKV(s.closes,
		Rect{XHi: neg, XLo: neg, YLo: neg, YHi: neg},
		Rect{XHi: x, XLo: neg, YLo: neg, YHi: neg},
		countOne,
		func(ys ySet) int64 { return ys.countStab(y) },
		add, 0)
	return opened - closed
}

// CountStab returns the number of rectangles containing (x, y), summing
// the signed contributions of every ladder level plus the write
// buffer's correction. Worst-case O(log^3 n).
func (m Map) CountStab(x, y float64) int64 {
	var count int64
	m.lad.EachSide(func(sign int64, s static) { count += sign * countStabIn(s, x, y) })
	return count + m.bufDelta(x, y)
}

// bufDelta is the write buffer's correction to CountStab: +1 for each
// buffered insert containing (x, y), −1 for each containing tombstone.
// O(dynamic.BufCap) = O(1) records scanned.
func (m Map) bufDelta(x, y float64) int64 {
	buf := m.lad.Buf()
	if buf.IsEmpty() {
		return 0
	}
	neg, pos := math.Inf(-1), math.Inf(1)
	lo := Rect{XLo: neg, XHi: neg, YLo: neg, YHi: neg}
	hi := Rect{XLo: x, XHi: pos, YLo: pos, YHi: pos}
	var d int64
	buf.Adds.ForEachRange(lo, hi, func(r Rect, _ struct{}) bool {
		if r.Contains(x, y) {
			d++
		}
		return true
	})
	buf.Dels.ForEachRange(lo, hi, func(r Rect, _ struct{}) bool {
		if r.Contains(x, y) {
			d--
		}
		return true
	})
	return d
}

// Stabbed reports whether any rectangle contains (x, y).
func (m Map) Stabbed(x, y float64) bool { return m.CountStab(x, y) > 0 }

// ReportStab returns the rectangles containing (x, y), in
// (xLo, xHi, yLo, yHi) order. Per level: candidates opening at or
// before x, pruned by the max-right-endpoint augmentation to those
// whose x-extent reaches x, then filtered on the y-extent —
// O(log n + kx log(n/kx + 1)) for kx rectangles stabbed in x alone. A
// tombstoned rectangle appears once live and once as a tombstone, so
// per-rectangle signed aggregation leaves exactly the live matches.
func (m Map) ReportStab(x, y float64) []Rect {
	pos := math.Inf(1)
	// Fully condensed map (fresh from Build or Merge): one pure level,
	// nothing to cancel — append matches directly, no aggregation map.
	if s, ok := m.lad.Single(); ok {
		candidates := s.report.UpTo(Rect{XLo: x, XHi: pos, YLo: pos, YHi: pos})
		hits := candidates.AugFilter(func(maxXHi float64) bool { return maxXHi >= x })
		var out []Rect
		if kx := hits.Size(); kx > 0 {
			out = make([]Rect, 0, kx) // the matches are a subset of the kx hits
		}
		hits.ForEach(func(r Rect, _ struct{}) bool {
			if r.YLo <= y && y <= r.YHi {
				out = append(out, r)
			}
			return true
		})
		return out
	}
	counts := make(map[Rect]int64)
	m.lad.EachSide(func(sign int64, s static) {
		candidates := s.report.UpTo(Rect{XLo: x, XHi: pos, YLo: pos, YHi: pos})
		hits := candidates.AugFilter(func(maxXHi float64) bool { return maxXHi >= x })
		hits.ForEach(func(r Rect, _ struct{}) bool {
			if r.YLo <= y && y <= r.YHi {
				counts[r] += sign
			}
			return true
		})
	})
	buf := m.lad.Buf()
	if !buf.IsEmpty() {
		neg := math.Inf(-1)
		lo := Rect{XLo: neg, XHi: neg, YLo: neg, YHi: neg}
		hi := Rect{XLo: x, XHi: pos, YLo: pos, YHi: pos}
		buf.Adds.ForEachRange(lo, hi, func(r Rect, _ struct{}) bool {
			if r.Contains(x, y) {
				counts[r]++
			}
			return true
		})
		buf.Dels.ForEachRange(lo, hi, func(r Rect, _ struct{}) bool {
			if r.Contains(x, y) {
				counts[r]--
			}
			return true
		})
	}
	out := make([]Rect, 0, len(counts))
	for r, c := range counts {
		if c > 0 {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, cmpXLo)
	return out
}

func cmpXLo(a, b Rect) int {
	switch {
	case lessXLo(a, b):
		return -1
	case lessXLo(b, a):
		return 1
	default:
		return 0
	}
}

// Rects materializes all rectangles in (xLo, xHi, yLo, yHi) order.
func (m Map) Rects() []Rect {
	entries := m.lad.Entries(backend)
	out := make([]Rect, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// Validate checks the ladder invariants (carry propagation, buffer
// contract, level capacities) and the structural invariants of every
// level's three constituent trees, including that every node's nested
// maps hold exactly the subtree's rectangles (for tests). O(n log n).
func (m Map) Validate() error {
	if err := m.lad.Validate(backend); err != nil {
		return err
	}
	sameKeys := func(a, b []Rect) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	ysEq := func(a, b ySet) bool {
		if a.byLo.Size() != b.byLo.Size() {
			return false
		}
		return sameKeys(a.byLo.Keys(), b.byLo.Keys()) && sameKeys(a.byHi.Keys(), b.byHi.Keys())
	}
	var err error
	m.lad.EachSide(func(_ int64, s static) {
		if err != nil {
			return
		}
		err = s.opens.Validate(ysEq)
		if err == nil {
			err = s.closes.Validate(ysEq)
		}
		if err == nil {
			err = s.report.Validate(func(a, b float64) bool { return a == b })
		}
	})
	return err
}
