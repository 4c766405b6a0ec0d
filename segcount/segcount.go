// Package segcount implements segment queries from the follow-up paper
// "Parallel Range, Segment and Rectangle Queries with Augmented Maps"
// (Sun & Blelloch, arXiv:1803.08621, §4): maintain a set of axis-parallel
// (horizontal) segments in the plane and, for a vertical query segment
// x = q, yLo <= y <= yHi, count or report the segments crossing it. A
// window variant counts/reports the segments intersecting an axis-parallel
// query rectangle.
//
// Two nested-augmented-map structures back the queries, both direct
// instantiations of pam.AugMap:
//
//   - SegCount (the paper's §4 structure): two maps keyed by segment
//     endpoints in x — one by left endpoints ("opens"), one by right
//     endpoints ("closes") — whose augmented values are *nested count
//     maps*: the subtree's segments keyed by y, combined by parallel
//     persistent map union. (The paper stores one endpoint map augmented
//     with a pair of count maps; splitting the pair into two maps is the
//     same factoring the overlap package uses for its complement ranks.)
//     A segment [xl, xh] at height y crosses the vertical line x iff
//     xl <= x <= xh, so with C(m, p) counting segments of a nested map m
//     whose y lies in the query range,
//
//     count = C(opens with xl <= x) - C(closes with xh < x)
//
//     and both terms are AugProject prefix sums projecting each nested
//     map through an O(log n) rank difference: O(log^2 n) per query.
//
//   - A by-y map for reporting: segments keyed by y, augmented with an
//     interval-map pair over their x-extents ((xl, xh, y) order with
//     max-xh augmentation, plus the (xh, xl, y) order for complement
//     ranks — the §5.1 interval-map idea nested as an augmented value).
//     A window query AugProjects over the y-range, stabbing each of the
//     O(log n) covered interval maps: O(log^2 n) counts and
//     O(log^2 n + k log(n/k + 1)) output-sensitive reports.
//
// Segments are closed on both endpoints and behave as a set: exact
// duplicates collapse. All maps are persistent — snapshots taken before
// a Merge remain valid — and Build and Merge run in parallel.
package segcount

import (
	"math"
	"slices"

	"repro/internal/dynamic"
	"repro/internal/parallel"
	"repro/pam"
)

// Segment is a closed horizontal segment [XLo, XHi] at height Y.
type Segment struct {
	XLo, XHi, Y float64
}

// CrossesLine reports whether the segment crosses the vertical line at x.
func (s Segment) CrossesLine(x float64) bool { return s.XLo <= x && x <= s.XHi }

// IntersectsWindow reports whether the segment intersects the closed
// window [xLo, xHi] x [yLo, yHi].
func (s Segment) IntersectsWindow(xLo, xHi, yLo, yHi float64) bool {
	return s.Y >= yLo && s.Y <= yHi && s.XLo <= xHi && s.XHi >= xLo
}

// The three key orders. Ties break lexicographically on the remaining
// coordinates so distinct segments always compare distinct and ±Inf
// sentinels bound exactly the prefixes the queries need.

func lessYX(a, b Segment) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	return a.XHi < b.XHi
}

func lessXLo(a, b Segment) bool {
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	if a.XHi != b.XHi {
		return a.XHi < b.XHi
	}
	return a.Y < b.Y
}

func lessXHi(a, b Segment) bool {
	if a.XHi != b.XHi {
		return a.XHi < b.XHi
	}
	if a.XLo != b.XLo {
		return a.XLo < b.XLo
	}
	return a.Y < b.Y
}

// yKey orders the nested count maps by (Y, XLo, XHi) with no augmentation;
// counting in a y-range is a Rank difference.
type yKey struct{}

func (yKey) Less(a, b Segment) bool              { return lessYX(a, b) }
func (yKey) Id() struct{}                        { return struct{}{} }
func (yKey) Base(Segment, struct{}) struct{}     { return struct{}{} }
func (yKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

// yMap is the nested count map: the subtree's segments keyed by y.
type yMap = pam.AugMap[Segment, struct{}, struct{}, yKey]

// yRangeCount counts entries of a nested map with yLo <= Y <= yHi.
func yRangeCount(in yMap, yLo, yHi float64) int64 {
	hi := in.Rank(Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)})   // #(Y <= yHi)
	lo := in.Rank(Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)}) // #(Y < yLo)
	return hi - lo
}

// loKey orders segments by (XLo, XHi, Y) augmented with the maximum
// right endpoint — the interval-map augmentation of §5.1.
type loKey struct{}

func (loKey) Less(a, b Segment) bool             { return lessXLo(a, b) }
func (loKey) Id() float64                        { return math.Inf(-1) }
func (loKey) Base(s Segment, _ struct{}) float64 { return s.XHi }
func (loKey) Combine(x, y float64) float64       { return max(x, y) }

type loMap = pam.AugMap[Segment, struct{}, float64, loKey]

// hiKey orders segments by (XHi, XLo, Y), unaugmented (complement rank).
type hiKey struct{}

func (hiKey) Less(a, b Segment) bool              { return lessXHi(a, b) }
func (hiKey) Id() struct{}                        { return struct{}{} }
func (hiKey) Base(Segment, struct{}) struct{}     { return struct{}{} }
func (hiKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

type hiMap = pam.AugMap[Segment, struct{}, struct{}, hiKey]

// xSet is the nested x-extent interval structure augmenting the by-y
// map: the subtree's segments in left-endpoint order with max-right
// augmentation, plus in right-endpoint order for the complement rank.
type xSet struct {
	byLo loMap
	byHi hiMap
}

func (s xSet) union(o xSet) xSet {
	return xSet{byLo: s.byLo.Union(o.byLo), byHi: s.byHi.Union(o.byHi)}
}

// countOverlapping counts segments whose x-extent meets [xLo, xHi] in
// O(log n): those starting at or before xHi minus those ending before
// xLo (the two miss-sets are disjoint, so inclusion-exclusion is exact).
func (s xSet) countOverlapping(xLo, xHi float64) int64 {
	startAtOrBefore := s.byLo.Rank(Segment{XLo: xHi, XHi: math.Inf(1), Y: math.Inf(1)})
	endBefore := s.byHi.Rank(Segment{XHi: xLo, XLo: math.Inf(-1), Y: math.Inf(-1)})
	return startAtOrBefore - endBefore
}

// reportOverlapping appends the segments whose x-extent meets [xLo, xHi]:
// candidates starting at or before xHi, pruned by the max-right-endpoint
// augmentation to those reaching xLo — O(log n + k log(n/k + 1)).
func (s xSet) reportOverlapping(xLo, xHi float64, out []Segment) []Segment {
	candidates := s.byLo.UpTo(Segment{XLo: xHi, XHi: math.Inf(1), Y: math.Inf(1)})
	hits := candidates.AugFilter(func(maxHi float64) bool { return maxHi >= xLo })
	hits.ForEach(func(seg Segment, _ struct{}) bool {
		out = append(out, seg)
		return true
	})
	return out
}

// byYEntry: the reporting map — segments keyed by y, augmented with the
// nested xSet of the subtree, combined by persistent parallel union.
type byYEntry struct{}

func (byYEntry) Less(a, b Segment) bool { return lessYX(a, b) }
func (byYEntry) Id() xSet               { return xSet{} }
func (byYEntry) Base(s Segment, _ struct{}) xSet {
	return xSet{byLo: loMap{}.Insert(s, struct{}{}), byHi: hiMap{}.Insert(s, struct{}{})}
}
func (byYEntry) Combine(x, y xSet) xSet { return x.union(y) }

// opensEntry: segments keyed by left endpoint, augmented with the nested
// count map of the subtree keyed by y.
type opensEntry struct{}

func (opensEntry) Less(a, b Segment) bool { return lessXLo(a, b) }
func (opensEntry) Id() yMap               { return yMap{} }
func (opensEntry) Base(s Segment, _ struct{}) yMap {
	return yMap{}.Insert(s, struct{}{})
}
func (opensEntry) Combine(x, y yMap) yMap { return x.Union(y) }

// closesEntry: the same nested count maps keyed by right endpoint.
type closesEntry struct{}

func (closesEntry) Less(a, b Segment) bool { return lessXHi(a, b) }
func (closesEntry) Id() yMap               { return yMap{} }
func (closesEntry) Base(s Segment, _ struct{}) yMap {
	return yMap{}.Insert(s, struct{}{})
}
func (closesEntry) Combine(x, y yMap) yMap { return x.Union(y) }

type byYMap = pam.AugMap[Segment, struct{}, xSet, byYEntry]
type opensMap = pam.AugMap[Segment, struct{}, yMap, opensEntry]
type closesMap = pam.AugMap[Segment, struct{}, yMap, closesEntry]

// static is the immutable bulk structure one ladder level holds: the
// three constituent maps, built and merged in parallel.
type static struct {
	byY    byYMap
	opens  opensMap
	closes closesMap
}

// build constructs the three maps over the items in parallel; proto
// supplies the options.
func (s static) build(items []pam.KV[Segment, struct{}]) static {
	var out static
	parallel.Do3(
		func() { out.byY = s.byY.Build(items, nil) },
		func() { out.opens = s.opens.Build(items, nil) },
		func() { out.closes = s.closes.Build(items, nil) },
	)
	return out
}

// union merges two static structures with parallel persistent union.
func (s static) union(o static) static {
	var out static
	parallel.Do3(
		func() { out.byY = s.byY.Union(o.byY) },
		func() { out.opens = s.opens.Union(o.opens) },
		func() { out.closes = s.closes.Union(o.closes) },
	)
	return out
}

// bufKey orders buffered segments in the canonical (y, xLo, xHi) order,
// unaugmented.
type bufKey struct{}

func (bufKey) Less(a, b Segment) bool              { return lessYX(a, b) }
func (bufKey) Id() struct{}                        { return struct{}{} }
func (bufKey) Base(Segment, struct{}) struct{}     { return struct{}{} }
func (bufKey) Combine(struct{}, struct{}) struct{} { return struct{}{} }

// ladder is the dynamization engine instance (see internal/dynamic).
type ladder = dynamic.Ladder[Segment, struct{}, static, bufKey]

// backend drives the generic ladder with this package's static
// structure; the by-y map is the canonical key order.
var backend = &dynamic.Backend[Segment, struct{}, static]{
	Build:   func(proto static, items []pam.KV[Segment, struct{}]) static { return proto.build(items) },
	Entries: func(s static) []pam.KV[Segment, struct{}] { return s.byY.Entries() },
	Size:    func(s static) int64 { return s.byY.Size() },
	Find:    func(s static, k Segment) (struct{}, bool) { return s.byY.Find(k) },
	Less:    lessYX,
	ValEq:   nil,
}

// Map is a persistent segment-query structure. The zero value is empty
// and usable. As with rangetree, the union-valued augmentations make
// single-segment tree updates linear in the worst case, so the
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

// New returns an empty segment map with the given options.
func New(opts pam.Options) Map {
	return Map{lad: dynamic.New[Segment, struct{}, static, bufKey](static{
		byY:    pam.NewAugMap[Segment, struct{}, xSet, byYEntry](opts),
		opens:  pam.NewAugMap[Segment, struct{}, yMap, opensEntry](opts),
		closes: pam.NewAugMap[Segment, struct{}, yMap, closesEntry](opts),
	})}
}

// Build returns a map (with m's options) over the given segments
// (duplicates collapse). O(n log^2 n) work, polylogarithmic span; the
// three constituent maps build in parallel.
func (m Map) Build(segs []Segment) Map {
	items := make([]pam.KV[Segment, struct{}], len(segs))
	for i, s := range segs {
		items[i] = pam.KV[Segment, struct{}]{Key: s}
	}
	return Map{lad: m.lad.WithStatic(backend, m.lad.Proto().build(items))}
}

// Insert returns a map with the segment added (a duplicate is a no-op).
// Amortized O(polylog n): the segment lands in the ladder's write
// buffer, which carries down the geometric levels with parallel
// rebuilds.
func (m Map) Insert(s Segment) Map {
	return Map{lad: m.lad.Insert(backend, s, struct{}{}, nil)}
}

// Delete returns a map without the segment; deleting an absent segment
// is a no-op. Amortized O(polylog n).
func (m Map) Delete(s Segment) Map {
	return Map{lad: m.lad.Delete(backend, s)}
}

// Pending returns the number of updates in the ladder's write buffer,
// bounded by the write-buffer capacity (dynamic.BufCap by default;
// 0 after Build or Merge).
func (m Map) Pending() int64 { return m.lad.Pending() }

// LevelRecordCounts reports the record count of each ladder level
// (diagnostics for the geometric-growth tests).
func (m Map) LevelRecordCounts() []int64 { return m.lad.LevelRecordCounts() }

// Contains reports whether the segment is present.
func (m Map) Contains(s Segment) bool { return m.lad.Contains(backend, s) }

// Merge returns the union of two segment maps (parallel, persistent),
// condensing both sides' ladders first; the result is fully condensed.
func (m Map) Merge(other Map) Map {
	a, b := m.lad.Condense(backend), other.lad.Condense(backend)
	return Map{lad: m.lad.WithStatic(backend, a.union(b))}
}

// Size returns the number of distinct segments.
func (m Map) Size() int64 { return m.lad.Size() }

// IsEmpty reports whether the map is empty.
func (m Map) IsEmpty() bool { return m.Size() == 0 }

// bufDelta folds the write buffer's contribution to a per-segment
// aggregate over the y-range: +1 for each buffered insert matching
// pred, −1 for each matching tombstone. O(dynamic.BufCap) = O(1)
// records scanned.
func (m Map) bufDelta(yLo, yHi float64, pred func(Segment) bool) int64 {
	buf := m.lad.Buf()
	if buf.IsEmpty() {
		return 0
	}
	lo := Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)}
	hi := Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)}
	var d int64
	buf.Adds.ForEachRange(lo, hi, func(s Segment, _ struct{}) bool {
		if pred(s) {
			d++
		}
		return true
	})
	buf.Dels.ForEachRange(lo, hi, func(s Segment, _ struct{}) bool {
		if pred(s) {
			d--
		}
		return true
	})
	return d
}

// countCrossingIn counts the crossing segments of one static structure:
// segments opened at or before x minus segments closed before x, each
// an AugProjectKV prefix sum over nested count maps (boundary segments
// are counted directly, allocation free — a singleton nested map
// contributes 1 exactly when its segment's y is in range).
func countCrossingIn(s static, x, yLo, yHi float64) int64 {
	neg := math.Inf(-1)
	countOne := func(seg Segment, _ struct{}) int64 {
		if seg.Y >= yLo && seg.Y <= yHi {
			return 1
		}
		return 0
	}
	count := func(in yMap) int64 { return yRangeCount(in, yLo, yHi) }
	add := func(a, b int64) int64 { return a + b }
	opened := pam.AugProjectKV(s.opens,
		Segment{XLo: neg, XHi: neg, Y: neg},
		Segment{XLo: x, XHi: math.Inf(1), Y: math.Inf(1)},
		countOne, count, add, 0)
	closed := pam.AugProjectKV(s.closes,
		Segment{XHi: neg, XLo: neg, Y: neg},
		Segment{XHi: x, XLo: neg, Y: neg},
		countOne, count, add, 0)
	return opened - closed
}

// CountCrossing counts the segments crossing the vertical query segment
// at x spanning [yLo, yHi], via the paper's SegCount endpoint maps,
// summing the signed contributions of every ladder level plus the
// write buffer's correction. Worst-case O(log^3 n).
func (m Map) CountCrossing(x, yLo, yHi float64) int64 {
	var count int64
	m.lad.EachSide(func(sign int64, s static) { count += sign * countCrossingIn(s, x, yLo, yHi) })
	return count + m.bufDelta(yLo, yHi, func(s Segment) bool { return s.CrossesLine(x) })
}

// CountLine counts the segments crossing the full vertical line at x.
func (m Map) CountLine(x float64) int64 {
	return m.CountCrossing(x, math.Inf(-1), math.Inf(1))
}

// CountWindow counts the segments intersecting the closed window
// [xLo, xHi] x [yLo, yHi], AugProjecting each level's by-y map over the
// y-range and stabbing each covered nested interval structure, plus the
// write buffer's correction. Worst-case O(log^3 n).
func (m Map) CountWindow(xLo, xHi, yLo, yHi float64) int64 {
	var count int64
	m.lad.EachSide(func(sign int64, s static) {
		count += sign * pam.AugProjectKV(s.byY,
			Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)},
			Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)},
			func(seg Segment, _ struct{}) int64 {
				if seg.XLo <= xHi && seg.XHi >= xLo {
					return 1
				}
				return 0
			},
			func(in xSet) int64 { return in.countOverlapping(xLo, xHi) },
			func(a, b int64) int64 { return a + b },
			0)
	})
	return count + m.bufDelta(yLo, yHi, func(s Segment) bool {
		return s.IntersectsWindow(xLo, xHi, yLo, yHi)
	})
}

// ReportWindow returns the segments intersecting the closed window, in
// (y, xLo, xHi) order. Each level reports its matches
// output-sensitively; a tombstoned segment appears once live and once
// as a tombstone, so per-segment signed aggregation leaves exactly the
// live matches.
func (m Map) ReportWindow(xLo, xHi, yLo, yHi float64) []Segment {
	// Fully condensed map (fresh from Build or Merge): one pure level,
	// nothing to cancel — append matches directly, no aggregation map.
	if s, ok := m.lad.Single(); ok {
		out := pam.AugProjectKV(s.byY,
			Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)},
			Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)},
			func(seg Segment, _ struct{}) []Segment {
				if seg.XLo <= xHi && seg.XHi >= xLo {
					return []Segment{seg}
				}
				return nil
			},
			func(in xSet) []Segment { return in.reportOverlapping(xLo, xHi, nil) },
			func(a, b []Segment) []Segment { return append(a, b...) },
			nil)
		sortYX(out)
		return out
	}
	counts := make(map[Segment]int64)
	m.lad.EachSide(func(sign int64, s static) {
		pam.AugProjectKV(s.byY,
			Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)},
			Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)},
			func(seg Segment, _ struct{}) struct{} {
				if seg.XLo <= xHi && seg.XHi >= xLo {
					counts[seg] += sign
				}
				return struct{}{}
			},
			func(in xSet) struct{} {
				for _, seg := range in.reportOverlapping(xLo, xHi, nil) {
					counts[seg] += sign
				}
				return struct{}{}
			},
			func(a, b struct{}) struct{} { return a },
			struct{}{})
	})
	buf := m.lad.Buf()
	if !buf.IsEmpty() {
		lo := Segment{Y: yLo, XLo: math.Inf(-1), XHi: math.Inf(-1)}
		hi := Segment{Y: yHi, XLo: math.Inf(1), XHi: math.Inf(1)}
		buf.Adds.ForEachRange(lo, hi, func(s Segment, _ struct{}) bool {
			if s.IntersectsWindow(xLo, xHi, yLo, yHi) {
				counts[s]++
			}
			return true
		})
		buf.Dels.ForEachRange(lo, hi, func(s Segment, _ struct{}) bool {
			if s.IntersectsWindow(xLo, xHi, yLo, yHi) {
				counts[s]--
			}
			return true
		})
	}
	out := make([]Segment, 0, len(counts))
	for seg, c := range counts {
		if c > 0 {
			out = append(out, seg)
		}
	}
	sortYX(out)
	return out
}

func sortYX(segs []Segment) {
	slices.SortFunc(segs, func(a, b Segment) int {
		switch {
		case lessYX(a, b):
			return -1
		case lessYX(b, a):
			return 1
		default:
			return 0
		}
	})
}

// ReportCrossing returns the segments crossing the vertical query
// segment at x spanning [yLo, yHi], in (y, xLo, xHi) order, with
// ReportWindow's output-sensitive cost.
func (m Map) ReportCrossing(x, yLo, yHi float64) []Segment {
	return m.ReportWindow(x, x, yLo, yHi)
}

// ReportLine returns the segments crossing the full vertical line at x.
func (m Map) ReportLine(x float64) []Segment {
	return m.ReportCrossing(x, math.Inf(-1), math.Inf(1))
}

// Segments materializes all segments in (y, xLo, xHi) order.
func (m Map) Segments() []Segment {
	entries := m.lad.Entries(backend)
	out := make([]Segment, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// Validate checks the ladder invariants (carry propagation, buffer
// contract, level capacities) and the structural invariants of every
// level's three constituent trees, including that every node's nested
// maps hold exactly the subtree's segments (for tests). O(n log n).
func (m Map) Validate() error {
	if err := m.lad.Validate(backend); err != nil {
		return err
	}
	sameKeys := func(a, b []Segment) bool {
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
	yEq := func(a, b yMap) bool {
		return a.Size() == b.Size() && sameKeys(a.Keys(), b.Keys())
	}
	var err error
	m.lad.EachSide(func(_ int64, s static) {
		if err != nil {
			return
		}
		err = s.byY.Validate(func(a, b xSet) bool {
			if a.byLo.Size() != b.byLo.Size() || a.byLo.AugVal() != b.byLo.AugVal() {
				return false
			}
			return sameKeys(a.byLo.Keys(), b.byLo.Keys()) && sameKeys(a.byHi.Keys(), b.byHi.Keys())
		})
		if err == nil {
			err = s.opens.Validate(yEq)
		}
		if err == nil {
			err = s.closes.Validate(yEq)
		}
	})
	return err
}
