// Benchmarks regenerating the paper's evaluation (§6) as testing.B
// harnesses — one family per table and figure. cmd/pambench runs the
// same experiments with full tables and thread sweeps; these benches
// measure the central operation of each at a fixed laptop scale, so
// `go test -bench=. -benchmem` gives the whole evaluation in one run.
//
// Naming: BenchmarkTableN_* / BenchmarkFig6x_* matches the experiment
// index in DESIGN.md.
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/baseline/btree"
	"repro/internal/baseline/llrb"
	"repro/internal/baseline/naiverect"
	"repro/internal/baseline/naiveseg"
	"repro/internal/baseline/seqrangetree"
	"repro/internal/baseline/skiplist"
	"repro/internal/baseline/sortedarray"
	"repro/internal/baseline/sortrebuild"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/workload"
	"repro/interval"
	"repro/invindex"
	"repro/pam"
	"repro/rangetree"
	"repro/segcount"
	"repro/serve"
	"repro/stabbing"
)

const benchN = 100_000 // paper: 10^8; scaled for the suite

type sumMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]

func addv(a, b int64) int64 { return a + b }

func benchItems(seed uint64, n int) []pam.KV[uint64, int64] {
	ks, vs := workload.KeyValues(seed, n, uint64(2*n))
	out := make([]pam.KV[uint64, int64], n)
	for i := range out {
		out[i] = pam.KV[uint64, int64]{Key: ks[i], Val: vs[i]}
	}
	return out
}

func benchSumMap(seed uint64, n int) sumMap {
	return pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}).
		Build(benchItems(seed, n), addv)
}

// ---------------------------------------------------------------- Table 1

func BenchmarkTable1_RangeSumBuild(b *testing.B) {
	items := benchItems(1, benchN)
	m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Build(items, addv)
	}
	b.ReportMetric(float64(benchN), "elems/op")
}

func BenchmarkTable1_RangeSumQuery(b *testing.B) {
	m := benchSumMap(1, benchN)
	los := workload.Keys(2, 1024, uint64(2*benchN))
	span := uint64(2 * benchN / 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := los[i%len(los)]
		_ = m.AugRange(lo, lo+span)
	}
}

// ---------------------------------------------------------------- Table 2

// Table 2 is about work bounds; the bench exposes the output-size
// dependence of union, its headline bound m log(n/m + 1).
func BenchmarkTable2_UnionWorkBound(b *testing.B) {
	big := benchSumMap(1, benchN)
	for _, m := range []int{100, 10_000, benchN} {
		small := benchSumMap(uint64(m)+7, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = big.UnionWith(small, addv)
			}
		})
	}
}

// ---------------------------------------------------------------- Table 3

func BenchmarkTable3_UnionEqual(b *testing.B) {
	t1 := benchSumMap(1, benchN)
	t2 := benchSumMap(2, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t1.UnionWith(t2, addv)
	}
}

func BenchmarkTable3_UnionSkewed(b *testing.B) {
	t1 := benchSumMap(1, benchN)
	t2 := benchSumMap(2, benchN/1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t1.UnionWith(t2, addv)
	}
}

func BenchmarkTable3_Find(b *testing.B) {
	m := benchSumMap(1, benchN)
	keys := workload.Keys(3, 4096, uint64(2*benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Find(keys[i%len(keys)])
	}
}

func BenchmarkTable3_Insert(b *testing.B) {
	items := benchItems(4, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		b.StartTimer()
		for _, e := range items[:10_000] {
			m.InsertInPlace(e.Key, e.Val)
		}
	}
	b.ReportMetric(10_000, "inserts/op")
}

func BenchmarkTable3_Build(b *testing.B) {
	items := benchItems(5, benchN)
	m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Build(items, addv)
	}
}

func BenchmarkTable3_Filter(b *testing.B) {
	m := benchSumMap(1, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Filter(func(k uint64, _ int64) bool { return k%2 == 0 })
	}
}

func BenchmarkTable3_MultiInsert(b *testing.B) {
	m := benchSumMap(1, benchN)
	batch := benchItems(6, benchN/1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.MultiInsert(batch, addv)
	}
}

func BenchmarkTable3_Range(b *testing.B) {
	m := benchSumMap(1, benchN)
	los := workload.Keys(7, 1024, uint64(2*benchN))
	span := uint64(2 * benchN / 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := los[i%len(los)]
		_ = m.Range(lo, lo+span)
	}
}

func BenchmarkTable3_AugLeft(b *testing.B) {
	m := benchSumMap(1, benchN)
	keys := workload.Keys(8, 1024, uint64(2*benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.AugLeft(keys[i%len(keys)])
	}
}

func BenchmarkTable3_AugRange(b *testing.B) {
	m := benchSumMap(1, benchN)
	keys := workload.Keys(9, 1024, uint64(2*benchN))
	span := uint64(2 * benchN / 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := keys[i%len(keys)]
		_ = m.AugRange(lo, lo+span)
	}
}

// AugRange without augmentation: extract the range and scan it — the
// paper's "non-augmented PAM (augmented functions)" rows.
func BenchmarkTable3_AugRangeByScan(b *testing.B) {
	m := pam.NewMap[uint64, int64](pam.Options{}).Build(benchItems(1, benchN), nil)
	keys := workload.Keys(9, 1024, uint64(2*benchN))
	span := uint64(2 * benchN / 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := keys[i%len(keys)]
		var s int64
		m.Range(lo, lo+span).ForEach(func(_ uint64, v int64) bool { s += v; return true })
	}
}

func BenchmarkTable3_AugFilter(b *testing.B) {
	m := pam.NewAugMap[uint64, int64, int64, pam.MaxEntry[uint64, int64]](pam.Options{}).
		Build(benchItems(1, benchN), nil)
	for _, k := range []int{benchN / 1000, benchN / 100} {
		th := int64(1000 - k*1000/benchN) // values uniform in [0,1000)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.AugFilter(func(a int64) bool { return a >= th })
			}
		})
	}
}

func BenchmarkTable3_FilterPlainForComparison(b *testing.B) {
	m := pam.NewMap[uint64, int64](pam.Options{}).Build(benchItems(1, benchN), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Filter(func(_ uint64, v int64) bool { return v >= 999 })
	}
}

func BenchmarkTable3_STLUnionTree(b *testing.B) {
	t1, t2 := &llrb.Tree{}, &llrb.Tree{}
	for _, e := range benchItems(1, benchN) {
		t1.Insert(e.Key, e.Val)
	}
	for _, e := range benchItems(2, benchN) {
		t2.Insert(e.Key, e.Val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = llrb.UnionInto(t1, t2)
	}
}

func BenchmarkTable3_STLUnionArray(b *testing.B) {
	toPairs := func(items []pam.KV[uint64, int64]) []sortedarray.Pair {
		out := make([]sortedarray.Pair, len(items))
		for i, e := range items {
			out[i] = sortedarray.Pair{Key: e.Key, Val: e.Val}
		}
		return out
	}
	a1 := sortedarray.Build(toPairs(benchItems(1, benchN)))
	a2 := sortedarray.Build(toPairs(benchItems(2, benchN)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sortedarray.Union(a1, a2)
	}
}

func BenchmarkTable3_STLInsert(b *testing.B) {
	items := benchItems(4, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := &llrb.Tree{}
		b.StartTimer()
		for _, e := range items[:10_000] {
			t.Insert(e.Key, e.Val)
		}
	}
	b.ReportMetric(10_000, "inserts/op")
}

func BenchmarkTable3_MCSTLMultiInsert(b *testing.B) {
	base := make([]sortedarray.Pair, benchN)
	for i, e := range benchItems(1, benchN) {
		base[i] = sortedarray.Pair{Key: e.Key, Val: e.Val}
	}
	batch := make([]sortedarray.Pair, benchN/1000)
	for i, e := range benchItems(2, benchN/1000) {
		batch[i] = sortedarray.Pair{Key: e.Key, Val: e.Val}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sortrebuild.FromPairs(base)
		s.MultiInsert(batch)
	}
}

// ---------------------------------------------------------------- Table 4

// Space benchmark: reports the sharing percentage of persistent union as
// a custom metric (allocations tracked by -benchmem tell the same story).
func BenchmarkTable4_UnionSharing(b *testing.B) {
	mkCore := func(seed uint64, n int) core.Tree[uint64, int64, int64, pam.SumEntry[uint64, int64]] {
		items := make([]core.Entry[uint64, int64], n)
		for i, e := range benchItems(seed, n) {
			items[i] = core.Entry[uint64, int64]{Key: e.Key, Val: e.Val}
		}
		return core.New[uint64, int64, int64, pam.SumEntry[uint64, int64]](core.Config{}).Build(items, addv)
	}
	t1 := mkCore(1, benchN)
	t2 := mkCore(2, benchN/1000)
	var last coreSum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = t1.UnionWith(t2, addv)
	}
	b.StopTimer()
	// The sharing metric is a property of one union result; computing it
	// per iteration would dominate wall-clock without being timed.
	unshared := t1.Size() + t2.Size() + last.Size()
	actual := core.CountUniqueNodes(t1, t2, last)
	b.ReportMetric(100*(1-float64(actual)/float64(unshared)), "%shared")
}

// ---------------------------------------------------------------- Table 5

func benchIntervals(n int) []interval.Interval {
	raw := workload.Intervals(11, n, float64(n), float64(n)/1000)
	out := make([]interval.Interval, n)
	for i, iv := range raw {
		out[i] = interval.Interval{Lo: iv.Lo, Hi: iv.Hi}
	}
	return out
}

func BenchmarkTable5_IntervalBuild(b *testing.B) {
	ivs := benchIntervals(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interval.New(pam.Options{}).Build(ivs)
	}
}

func BenchmarkTable5_IntervalStab(b *testing.B) {
	m := interval.New(pam.Options{}).Build(benchIntervals(benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Stab(float64(i % benchN))
	}
}

func BenchmarkTable5_IntervalStabNaive(b *testing.B) {
	raw := workload.Intervals(11, 10_000, 10_000, 10)
	ivs := make([]naiveIv, len(raw))
	for i, iv := range raw {
		ivs[i] = naiveIv{iv.Lo, iv.Hi}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := float64(i % 10_000)
		hit := false
		for _, iv := range ivs {
			if iv.lo <= p && p <= iv.hi {
				hit = true
				break
			}
		}
		_ = hit
	}
}

type naiveIv struct{ lo, hi float64 }

func benchPoints(n int) []rangetree.Weighted {
	raw := workload.Points(12, n, float64(n), 100)
	out := make([]rangetree.Weighted, n)
	for i, p := range raw {
		out[i] = rangetree.Weighted{Point: rangetree.Point{X: p.X, Y: p.Y}, W: p.W}
	}
	return out
}

func BenchmarkTable5_RangeTreeBuild(b *testing.B) {
	pts := benchPoints(benchN / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rangetree.New(pam.Options{}).Build(pts)
	}
}

func BenchmarkTable5_RangeTreeQuerySum(b *testing.B) {
	n := benchN / 10
	t := rangetree.New(pam.Options{}).Build(benchPoints(n))
	w := float64(n) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = t.QuerySum(rangetree.Rect{XLo: x, XHi: x + w, YLo: x, YHi: x + w})
	}
}

func BenchmarkTable5_RangeTreeReportAll(b *testing.B) {
	n := benchN / 10
	t := rangetree.New(pam.Options{}).Build(benchPoints(n))
	w := float64(n) / 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = t.ReportAll(rangetree.Rect{XLo: x, XHi: x + w, YLo: x, YHi: x + w})
	}
}

func BenchmarkTable5_SeqRangeTreeBuild(b *testing.B) {
	raw := workload.Points(12, benchN/10, float64(benchN/10), 100)
	pts := make([]seqrangetree.Point, len(raw))
	for i, p := range raw {
		pts[i] = seqrangetree.Point{X: p.X, Y: p.Y, W: p.W}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seqrangetree.Build(pts)
	}
}

// ---------------------------------------------------------------- Table 6

func benchCorpus() ([]invindex.Triple, workload.CorpusSpec) {
	spec := workload.DefaultCorpus(benchN, 13)
	occ := spec.Generate()
	triples := make([]invindex.Triple, len(occ))
	for i, o := range occ {
		triples[i] = invindex.Triple{Word: o.Word, Doc: invindex.DocID(o.Doc), W: invindex.Weight(o.W)}
	}
	return triples, spec
}

func BenchmarkTable6_IndexBuild(b *testing.B) {
	triples, _ := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = invindex.Build(triples)
	}
	b.ReportMetric(float64(len(triples)), "tokens/op")
}

func BenchmarkTable6_IndexQueryTop10(b *testing.B) {
	triples, spec := benchCorpus()
	ix := invindex.Build(triples)
	queries := spec.QueryWords(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		and := ix.QueryAnd(q[0], q[1])
		_ = invindex.TopK(and, 10)
	}
}

// ---------------------------------------------------------------- Fig 6a

func BenchmarkFig6a_PamMultiInsertLoad(b *testing.B) {
	items := benchItems(14, benchN)
	const batches = 10
	bs := benchN / batches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		for j := 0; j < batches; j++ {
			m.MultiInsertInPlace(items[j*bs:(j+1)*bs], addv)
		}
	}
	b.ReportMetric(float64(benchN), "inserts/op")
}

func BenchmarkFig6a_SkiplistLoad(b *testing.B) {
	ks, vs := workload.KeyValues(14, benchN, uint64(2*benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := skiplist.New()
		for j := range ks {
			l.Insert(ks[j], vs[j])
		}
	}
	b.ReportMetric(float64(benchN), "inserts/op")
}

func BenchmarkFig6a_BtreeLoad(b *testing.B) {
	ks, vs := workload.KeyValues(14, benchN, uint64(2*benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := btree.New()
		for j := range ks {
			t.Insert(ks[j], vs[j])
		}
	}
	b.ReportMetric(float64(benchN), "inserts/op")
}

// ---------------------------------------------------------------- Fig 6b

func BenchmarkFig6b_PamFind(b *testing.B) {
	m := benchSumMap(15, benchN)
	reads := workload.ReadStream(16, 4096, workload.Keys(15, benchN, uint64(2*benchN)), false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Find(reads[i%len(reads)])
	}
}

func BenchmarkFig6b_SkiplistFind(b *testing.B) {
	ks, vs := workload.KeyValues(15, benchN, uint64(2*benchN))
	l := skiplist.New()
	for j := range ks {
		l.Insert(ks[j], vs[j])
	}
	reads := workload.ReadStream(16, 4096, ks, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Find(reads[i%len(reads)])
	}
}

func BenchmarkFig6b_BtreeFind(b *testing.B) {
	ks, vs := workload.KeyValues(15, benchN, uint64(2*benchN))
	t := btree.New()
	for j := range ks {
		t.Insert(ks[j], vs[j])
	}
	reads := workload.ReadStream(16, 4096, ks, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Find(reads[i%len(reads)])
	}
}

// ---------------------------------------------------------------- Fig 6c

func BenchmarkFig6c_UnionBySize(b *testing.B) {
	big := benchSumMap(17, benchN)
	for m := 100; m <= benchN; m *= 10 {
		small := benchSumMap(uint64(m), m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = big.UnionWith(small, addv)
			}
		})
	}
}

func BenchmarkFig6c_BuildBySize(b *testing.B) {
	for n := 100; n <= benchN; n *= 10 {
		items := benchItems(uint64(n), n)
		m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Build(items, addv)
			}
		})
	}
}

// ---------------------------------------------------------------- Fig 6d

func BenchmarkFig6d_IntervalBuildByThreads(b *testing.B) {
	ivs := benchIntervals(benchN)
	for _, th := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", th), func(b *testing.B) {
			old := parallel.Parallelism()
			parallel.SetParallelism(th)
			defer parallel.SetParallelism(old)
			for i := 0; i < b.N; i++ {
				_ = interval.New(pam.Options{}).Build(ivs)
			}
		})
	}
}

// ---------------------------------------------------------------- Fig 6e

func BenchmarkFig6e_RangeTreeBuildBySize(b *testing.B) {
	for n := 1000; n <= benchN/10; n *= 10 {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("pam/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = rangetree.New(pam.Options{}).Build(pts)
			}
		})
		raw := workload.Points(12, n, float64(n), 100)
		spts := make([]seqrangetree.Point, n)
		for i, p := range raw {
			spts[i] = seqrangetree.Point{X: p.X, Y: p.Y, W: p.W}
		}
		b.Run(fmt.Sprintf("seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = seqrangetree.Build(spts)
			}
		})
	}
}

// ------------------------------------------ arXiv:1803.08621: segment & rectangle queries

func benchSegments(n int) []segcount.Segment {
	raw := workload.Segments(13, n, float64(n), float64(n)/1000)
	out := make([]segcount.Segment, n)
	for i, s := range raw {
		out[i] = segcount.Segment{XLo: s.XLo, XHi: s.XHi, Y: s.Y}
	}
	return out
}

func BenchmarkSegRect_SegCountBuild(b *testing.B) {
	segs := benchSegments(benchN / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = segcount.New(pam.Options{}).Build(segs)
	}
}

func BenchmarkSegRect_SegCountCrossing(b *testing.B) {
	n := benchN / 10
	m := segcount.New(pam.Options{}).Build(benchSegments(n))
	w := float64(n) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = m.CountCrossing(x, x-w, x+w)
	}
}

func BenchmarkSegRect_SegReportWindow(b *testing.B) {
	n := benchN / 10
	m := segcount.New(pam.Options{}).Build(benchSegments(n))
	w := float64(n) / 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = m.ReportWindow(x, x+w, x, x+w)
	}
}

func BenchmarkSegRect_SegCountNaive(b *testing.B) {
	raw := workload.Segments(13, 10_000, 10_000, 10)
	segs := make([]naiveseg.Segment, len(raw))
	for i, s := range raw {
		segs[i] = naiveseg.Segment{XLo: s.XLo, XHi: s.XHi, Y: s.Y}
	}
	set := naiveseg.Build(segs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % 10_000)
		_ = set.CountCrossing(x, x-1000, x+1000)
	}
}

func benchRects(n int) []stabbing.Rect {
	raw := workload.Rects(14, n, float64(n), float64(n)/1000)
	out := make([]stabbing.Rect, n)
	for i, r := range raw {
		out[i] = stabbing.Rect{XLo: r.XLo, XHi: r.XHi, YLo: r.YLo, YHi: r.YHi}
	}
	return out
}

func BenchmarkSegRect_StabBuild(b *testing.B) {
	rects := benchRects(benchN / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stabbing.New(pam.Options{}).Build(rects)
	}
}

func BenchmarkSegRect_StabCount(b *testing.B) {
	n := benchN / 10
	m := stabbing.New(pam.Options{}).Build(benchRects(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = m.CountStab(x, x)
	}
}

func BenchmarkSegRect_StabReport(b *testing.B) {
	n := benchN / 10
	m := stabbing.New(pam.Options{}).Build(benchRects(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = m.ReportStab(x, x)
	}
}

func BenchmarkSegRect_StabCountNaive(b *testing.B) {
	raw := workload.Rects(14, 10_000, 10_000, 10)
	rects := make([]naiverect.Rect, len(raw))
	for i, r := range raw {
		rects[i] = naiverect.Rect{XLo: r.XLo, XHi: r.XHi, YLo: r.YLo, YHi: r.YHi}
	}
	set := naiverect.Build(rects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % 10_000)
		_ = set.CountStab(x, x)
	}
}

// ------------------------------------------------- Dynamic updates

// Update-throughput benchmarks for the dynamic (logarithmic-method
// ladder) nested-augmentation structures: persistent single-element
// Insert into a pre-built structure, carries included, so the reported
// ns/op is the amortized cost the complexity test bounds. The
// ByRebuild variant is the naive alternative — a full rebuild per
// update — that the layering exists to beat.

func BenchmarkDynamic_RangeTreeInsert(b *testing.B) {
	n := benchN / 10
	t := rangetree.New(pam.Options{}).Build(benchPoints(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Insert(rangetree.Point{X: float64(i%n) + 0.25, Y: float64(i / n)}, 1)
	}
}

func BenchmarkDynamic_RangeTreeDeleteInsert(b *testing.B) {
	// One delete + one re-insert of the same point per iteration, so
	// the tree stays at size n and every delete hits a live point
	// (deleting into an emptied tree would be a no-op).
	n := benchN / 10
	pts := benchPoints(n)
	t := rangetree.New(pam.Options{}).Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%n]
		t = t.Delete(p.Point)
		t = t.Insert(p.Point, p.W)
	}
}

func BenchmarkDynamic_RangeTreeInsertByRebuild(b *testing.B) {
	// The linear baseline at a tenth of the scale: one seqrangetree
	// index rebuild per insert (its index builds lazily, so a query per
	// iteration forces the rebuild this baseline exists to show).
	raw := workload.Points(12, benchN/100, float64(benchN/100), 100)
	pts := make([]seqrangetree.Point, len(raw))
	for i, p := range raw {
		pts[i] = seqrangetree.Point{X: p.X, Y: p.Y, W: p.W}
	}
	t := seqrangetree.Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Insert(seqrangetree.Point{X: float64(i), Y: float64(i), W: 1})
		_ = t.QuerySum(float64(i), float64(i)+1, 0, 1)
	}
}

func BenchmarkDynamic_SegCountInsert(b *testing.B) {
	n := benchN / 10
	m := segcount.New(pam.Options{}).Build(benchSegments(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i%n) + 0.25
		m = m.Insert(segcount.Segment{XLo: x, XHi: x + 50, Y: float64(i / n)})
	}
}

func BenchmarkDynamic_StabbingInsert(b *testing.B) {
	n := benchN / 10
	m := stabbing.New(pam.Options{}).Build(benchRects(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i%n) + 0.25
		m = m.Insert(stabbing.Rect{XLo: x, XHi: x + 20, YLo: x, YHi: x + 20})
	}
}

func BenchmarkDynamic_SegCountQueryWhileBuffered(b *testing.B) {
	// Query cost with pending updates spread across the ladder: the
	// layered read path (O(log n) levels plus the constant write
	// buffer).
	n := benchN / 10
	m := segcount.New(pam.Options{}).Build(benchSegments(n))
	for i := 0; i < n/20; i++ {
		x := float64(i) + 0.25
		m = m.Insert(segcount.Segment{XLo: x, XHi: x + 50, Y: float64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % n)
		_ = m.CountCrossing(x, x, x+100)
	}
}

// BenchmarkDynamicQueryTail is the worst-case-latency acceptance
// benchmark: p50/p99 CountLine latency under a sustained insert stream
// at n = 64k into the ladder engine, whose queries scan at most
// dynamic.BufCap buffered records plus O(log n) polylog level queries.
// `pambench -json` commits the same numbers to the perf trajectory.
func BenchmarkDynamicQueryTail(b *testing.B) {
	const n = 1 << 16
	report := func(b *testing.B, run func(n, updates int) experiments.TailStats) {
		var last experiments.TailStats
		for i := 0; i < b.N; i++ {
			last = run(n, n/4)
		}
		b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns/query")
		b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns/query")
		b.ReportMetric(float64(last.Mean.Nanoseconds()), "mean-ns/query")
	}
	b.Run("ladder", func(b *testing.B) { report(b, experiments.QueryTailLadder) })
}

// ------------------------------------------------- Grain sweep

// Granularity sweep for the parallel bulk operations: Union, Build,
// and MapReduce across Options.Grain values bracketing
// core.DefaultGrain, at an elevated parallelism level so fork overhead
// is visible even on small machines. Too-small grains pay
// fork/scheduling overhead; too-large grains serialize. The committed
// constants were chosen from this sweep (see the PR); re-run with
//
//	go test -bench BenchmarkGrainSweep -benchmem .
func BenchmarkGrainSweep(b *testing.B) {
	grains := []int64{64, 256, 1024, 4096, 16384}
	withGrain := func(g int64, seed uint64, n int) sumMap {
		return pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{Grain: g}).
			Build(benchItems(seed, n), addv)
	}
	atParallelism := func(b *testing.B, p int, f func()) {
		old := parallel.Parallelism()
		parallel.SetParallelism(p)
		defer parallel.SetParallelism(old)
		b.ResetTimer()
		f()
	}
	b.Run("Union", func(b *testing.B) {
		for _, g := range grains {
			t1, t2 := withGrain(g, 1, benchN), withGrain(g, 2, benchN)
			b.Run(fmt.Sprintf("grain=%d", g), func(b *testing.B) {
				atParallelism(b, 4, func() {
					for i := 0; i < b.N; i++ {
						_ = t1.UnionWith(t2, addv)
					}
				})
			})
		}
	})
	b.Run("Build", func(b *testing.B) {
		items := benchItems(5, benchN)
		for _, g := range grains {
			m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{Grain: g})
			b.Run(fmt.Sprintf("grain=%d", g), func(b *testing.B) {
				atParallelism(b, 4, func() {
					for i := 0; i < b.N; i++ {
						_ = m.Build(items, addv)
					}
				})
			})
		}
	})
	b.Run("MapReduce", func(b *testing.B) {
		for _, g := range grains {
			m := withGrain(g, 1, benchN)
			b.Run(fmt.Sprintf("grain=%d", g), func(b *testing.B) {
				atParallelism(b, 4, func() {
					for i := 0; i < b.N; i++ {
						_ = pam.MapReduce(m,
							func(_ uint64, v int64) int64 { return v },
							func(x, y int64) int64 { return x + y },
							0)
					}
				})
			})
		}
	})
}

// BenchmarkParallelScaling measures the two headline bulk operations at
// parallelism 1, 2, and 4 so the speedup (or its absence on small
// machines — compare runtime.NumCPU in the output environment) is part
// of the recorded trajectory. The same sweep backs the *_par entries of
// BENCH_PRn.json; see the bench fidelity note in README.md.
func BenchmarkParallelScaling(b *testing.B) {
	atParallelism := func(b *testing.B, p int, f func()) {
		old := parallel.Parallelism()
		parallel.SetParallelism(p)
		defer parallel.SetParallelism(old)
		b.ResetTimer()
		f()
	}
	items := benchItems(1, benchN)
	mk := func(seed uint64) sumMap {
		return pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}).
			Build(benchItems(seed, benchN), addv)
	}
	t1, t2 := mk(1), mk(2)
	empty := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Build/par=%d", p), func(b *testing.B) {
			atParallelism(b, p, func() {
				for i := 0; i < b.N; i++ {
					_ = empty.Build(items, addv)
				}
			})
		})
		b.Run(fmt.Sprintf("Union/par=%d", p), func(b *testing.B) {
			atParallelism(b, p, func() {
				for i := 0; i < b.N; i++ {
					_ = t1.UnionWith(t2, addv)
				}
			})
		})
	}
}

// ---- the serving layer (serve): PR 4 --------------------------------

func serveBenchStore(b *testing.B, shards int) *serve.Store[uint64, int64, int64, pam.SumEntry[uint64, int64]] {
	s, err := serve.NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		pam.Options{}, shards, seq.Mix64)
	if err != nil {
		b.Fatalf("NewHashStore: %v", err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkServe_WriteThroughput measures batched write throughput
// against shard count: each iteration is one 64-op batch, submitted by
// concurrent writer goroutines through the sequencer and shard
// mailboxes. The ops/s metric is the one recorded in BENCH_PRn.json.
func BenchmarkServe_WriteThroughput(b *testing.B) {
	const batchLen = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := serveBenchStore(b, shards)
			var ctr atomic.Uint64
			b.SetParallelism(4) // 4×GOMAXPROCS writer goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]serve.Op[uint64, int64], batchLen)
				for pb.Next() {
					base := ctr.Add(1) * batchLen
					for j := range batch {
						batch[j] = serve.Put((base+uint64(j))%(1<<20), int64(j))
					}
					s.Apply(batch)
				}
			})
			b.ReportMetric(float64(b.N)*batchLen/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkServe_SnapshotFindUnderWrites measures the serving read
// path — Snapshot + routed Find — while a background writer streams
// 64-op batches into the store.
func BenchmarkServe_SnapshotFindUnderWrites(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := serveBenchStore(b, shards)
			for i := 0; i < 1<<14; i += 64 {
				batch := make([]serve.Op[uint64, int64], 64)
				for j := range batch {
					batch[j] = serve.Put(uint64(i+j), int64(j))
				}
				s.Apply(batch)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				batch := make([]serve.Op[uint64, int64], 64)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					for j := range batch {
						batch[j] = serve.Put(uint64(i*64+j)%(1<<14), int64(j))
					}
					s.Apply(batch)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := s.Snapshot()
				v.Find(uint64(i) % (1 << 14))
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}

// BenchmarkServe_PointQueryUnderWrites is the spatial serving path:
// Snapshot + cross-shard QuerySum on the sharded ladder-backed range
// tree while a background writer streams point inserts.
func BenchmarkServe_PointQueryUnderWrites(b *testing.B) {
	s := serve.NewPointStore(pam.Options{}, []float64{256, 512, 768})
	b.Cleanup(s.Close)
	pts := workload.Points(77, 1<<13, 1024, 100)
	batch := make([]serve.PointOp, 0, 64)
	for _, p := range pts {
		batch = append(batch, serve.InsertPoint(rangetree.Point{X: p.X, Y: p.Y}, p.W))
		if len(batch) == cap(batch) {
			s.Apply(batch)
			batch = batch[:0]
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := float64(i % 1024)
			s.Insert(rangetree.Point{X: x, Y: float64((i * 7) % 1024)}, 1)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := s.Snapshot()
		x := float64(i % 512)
		v.QuerySum(rangetree.Rect{XLo: x, XHi: x + 256, YLo: 0, YHi: 512})
	}
	b.StopTimer()
	close(stop)
	<-done
}
