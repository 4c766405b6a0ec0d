package experiments

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/parallel"
	"repro/pam"
	"repro/rangetree"
	"repro/segcount"
	"repro/stabbing"
)

// scanSink keeps the scan benchmarks' fold from being dead-code
// eliminated.
var scanSink int64

// bench measures one operation with the testing harness (usable outside
// go test) and records ns/op and allocs/op.
func bench(op string, n int, f func(b *testing.B)) BenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	return BenchResult{
		Op:          op,
		N:           n,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// runPerfSuite is the curated operation list behind `pambench -json`:
// the core map operations, the static query structures, the dynamic
// update paths, and the dynamic query-tail percentiles. Sizes are
// laptop-scale so the whole suite runs in a couple of minutes.
func runPerfSuite() []BenchResult {
	const (
		coreN = 100_000
		geomN = 10_000
		tailN = 1 << 16
		tailU = tailN / 4
	)
	var out []BenchResult

	type sumMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	add := func(a, b int64) int64 { return a + b }
	mkSum := func(seed uint64, n int) sumMap {
		return pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}).
			Build(perfItems(seed, n), add)
	}

	items := perfItems(1, coreN)
	out = append(out, bench("rangesum_build", coreN, func(b *testing.B) {
		m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		for i := 0; i < b.N; i++ {
			_ = m.Build(items, add)
		}
	}))

	m1 := mkSum(1, coreN)
	span := uint64(2 * coreN / 100)
	out = append(out, bench("rangesum_query", coreN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := uint64(i%coreN) * 2
			_ = m1.AugRange(lo, lo+span)
		}
	}))

	m2 := mkSum(2, coreN)
	out = append(out, bench("union_equal", coreN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m1.UnionWith(m2, add)
		}
	}))

	// Parallel scaling of the two headline bulk paths (the same sweep as
	// BenchmarkParallelScaling): recorded per explicit parallelism level
	// so the trajectory JSON shows speedup — or honestly shows its
	// absence when num_cpu/gomaxprocs is 1.
	for _, p := range []int{1, 2, 4} {
		old := parallel.Parallelism()
		parallel.SetParallelism(p)
		out = append(out, bench("rangesum_build_par"+strconv.Itoa(p), coreN, func(b *testing.B) {
			m := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
			for i := 0; i < b.N; i++ {
				_ = m.Build(items, add)
			}
		}))
		out = append(out, bench("union_equal_par"+strconv.Itoa(p), coreN, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m1.UnionWith(m2, add)
			}
		}))
		parallel.SetParallelism(old)
	}

	// A small batch into a large map, the shape of a serve shard flush: a
	// 64-key MultiInsert of fresh keys into m1. Its work, m·log2(n/m+1),
	// is under the grain, so it runs without a fork at any parallelism,
	// and allocates only the path nodes it copies and the blocks it
	// rebuilds. A fork costs a goroutine, a WaitGroup and two closures,
	// and a closure built where nothing forks costs one too, so allocs/op
	// shows either coming back even where ns/op is noise.
	// multiinsert_small_compressed runs the same batch into a compressed
	// copy of m1, as a kv shard flush does: it adds the packed blocks'
	// merge and re-encode.
	small := make([]pam.KV[uint64, int64], 64)
	for i := range small {
		k := uint64(i) * (2 * coreN / uint64(len(small)))
		for m1.Contains(k) {
			k++
		}
		small[i] = pam.KV[uint64, int64]{Key: k, Val: int64(i)}
	}
	for _, p := range []int{1, 2} {
		old := parallel.Parallelism()
		parallel.SetParallelism(p)
		out = append(out, bench("multiinsert_small_par"+strconv.Itoa(p), coreN, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m1.MultiInsert(small, nil)
			}
		}))
		parallel.SetParallelism(old)
	}
	m1c := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{Compress: pam.CompressUint64()}).
		Build(items, add)
	out = append(out, bench("multiinsert_small_compressed", coreN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m1c.MultiInsert(small, nil)
		}
	}))

	out = append(out, bench("find", coreN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m1.Find(uint64(i % (2 * coreN)))
		}
	}))

	// Compressed leaf blocks (PR 10): space per entry of a 1M-entry
	// uint64→int64 map — blocked baseline vs difference-encoded packed
	// blocks — and the full ordered-scan cost over both layouts (the
	// block cursor decodes packed blocks on the fly; the gate holds the
	// compressed scan to the envelope).
	const spaceN = 1 << 20
	spaceItems := perfItems(9, spaceN)
	flatSpace := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}).
		Build(spaceItems, add)
	compSpace := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{Compress: pam.CompressUint64()}).
		Build(spaceItems, add)
	out = append(out,
		BenchResult{Op: "bytes_per_entry", N: spaceN,
			BytesPerEntry: flatSpace.Tree().SpaceStats().BytesPerEntry},
		BenchResult{Op: "bytes_per_entry_compressed", N: spaceN,
			BytesPerEntry: compSpace.Tree().SpaceStats().BytesPerEntry},
	)
	scan := func(op string, m sumMap) BenchResult {
		return bench(op, spaceN, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var s int64
				m.ForEach(func(_ uint64, v int64) bool { s += v; return true })
				scanSink = s
			}
		})
	}
	out = append(out,
		scan("block_scan_throughput", flatSpace),
		scan("block_scan_throughput_compressed", compSpace),
	)

	pts := perfPoints(geomN)
	out = append(out, bench("rangetree_build", geomN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rangetree.New(pam.Options{}).Build(pts)
		}
	}))

	segs := perfSegs(geomN)
	out = append(out, bench("segcount_build", geomN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = segcount.New(pam.Options{}).Build(segs)
		}
	}))

	sc := segcount.New(pam.Options{}).Build(segs)
	out = append(out, bench("segcount_count_crossing", geomN, func(b *testing.B) {
		w := float64(geomN) / 10
		for i := 0; i < b.N; i++ {
			x := float64(i % geomN)
			_ = sc.CountCrossing(x, x-w, x+w)
		}
	}))

	rt := rangetree.New(pam.Options{}).Build(pts)
	out = append(out, bench("dynamic_rangetree_insert", geomN, func(b *testing.B) {
		t := rt
		for i := 0; i < b.N; i++ {
			t = t.Insert(rangetree.Point{X: float64(i%geomN) + 0.25, Y: float64(i / geomN)}, 1)
		}
	}))

	out = append(out, bench("dynamic_segcount_insert", geomN, func(b *testing.B) {
		m := sc
		for i := 0; i < b.N; i++ {
			x := float64(i%geomN) + 0.25
			m = m.Insert(segcount.Segment{XLo: x, XHi: x + 50, Y: float64(i / geomN)})
		}
	}))

	st := stabbing.New(pam.Options{}).Build(perfRects(geomN))
	out = append(out, bench("dynamic_stabbing_insert", geomN, func(b *testing.B) {
		m := st
		for i := 0; i < b.N; i++ {
			x := float64(i%geomN) + 0.25
			m = m.Insert(stabbing.Rect{XLo: x, XHi: x + 20, YLo: x, YHi: x + 20})
		}
	}))

	// The serving layer (PR 4): batched write throughput per shard
	// count, and the read tail under a sustained write stream.
	const serveOps = 1 << 17
	for _, nsh := range serveShardCounts() {
		ops := ServeWriteThroughput(nsh, serveOps)
		out = append(out, BenchResult{
			Op:      "serve_write_" + strconv.Itoa(nsh) + "shard",
			N:       serveOps,
			NsPerOp: 1e9 / ops,
		})
	}
	runtime.GC()
	out = append(out, tailResult("serve_read_under_writes", 2048,
		ServeReadUnderWrites(min(4, 2*runtime.NumCPU()), 2048)))

	// Async pipeline (PR 7): per-batch commit latency of sustained
	// pipelined fire-and-forget writes, in-memory and with the WAL on
	// (the gap is the group-commit fsync each async ack waits for).
	runtime.GC()
	out = append(out, tailResult("serve_write_async_4shard", serveOps,
		ServeAsyncWriteLatency(4, serveOps)))
	runtime.GC()
	out = append(out, tailResult("serve_write_async_wal_4shard", serveOps,
		DurableAsyncWriteLatency(4, serveOps)))

	// Durability (PR 6): the same write shape with the WAL on (the gap
	// to serve_write_4shard is the logging overhead), the cost of an
	// incremental checkpoint capturing 64 updates against a 100k-entry
	// base, and recovery time from that checkpoint plus a WAL tail.
	out = append(out, BenchResult{
		Op:      "serve_write_wal_4shard",
		N:       serveOps,
		NsPerOp: 1e9 / DurableWriteThroughput(4, serveOps),
	})
	out = append(out, BenchResult{
		Op:      "checkpoint_incremental",
		N:       coreN,
		NsPerOp: float64(CheckpointIncremental(coreN, 64, 8).Nanoseconds()),
	})
	out = append(out, BenchResult{
		Op:      "recovery_replay",
		N:       coreN,
		NsPerOp: float64(RecoveryReplay(coreN, 256, 8).Nanoseconds()),
	})
	// Self-healing durability (PR 8): recovery from a compacted base —
	// the chain collapsed to the live set — against recovery_replay's
	// incremental chain plus WAL tail.
	out = append(out, BenchResult{
		Op:      "recovery_replay_compacted",
		N:       coreN,
		NsPerOp: float64(RecoveryReplayCompacted(coreN, 8).Nanoseconds()),
	})

	// Background carries + replicas (PR 9): the sustained-write
	// update-latency tail of the spatial store (pipelined async insert
	// batches, per-batch commit latency) with ladder carries off the
	// shard goroutine vs inline — the p99 is the headline, because a
	// deep inline carry stalls the shard and spikes every queued batch
	// at once — and replica read throughput from published per-shard
	// views. NsPerOp of the tail entries is the p99 itself so the gate
	// tracks what the optimization targets.
	const carryOps = 1 << 18
	runtime.GC()
	bgTail := PointUpdateTail(2, carryOps)
	runtime.GC()
	syncTail := PointUpdateTail(0, carryOps)
	out = append(out,
		BenchResult{
			Op: "update_tail_p99", N: carryOps,
			NsPerOp: float64(bgTail.P99.Nanoseconds()),
			P50Ns:   float64(bgTail.P50.Nanoseconds()),
			P99Ns:   float64(bgTail.P99.Nanoseconds()),
		},
		BenchResult{
			Op: "update_tail_p99_synccarry", N: carryOps,
			NsPerOp: float64(syncTail.P99.Nanoseconds()),
			P50Ns:   float64(syncTail.P50.Nanoseconds()),
			P99Ns:   float64(syncTail.P99.Nanoseconds()),
		},
	)
	runtime.GC()
	out = append(out, BenchResult{
		Op:      "replica_read_throughput",
		N:       1 << 19,
		NsPerOp: 1e9 / ReplicaReadThroughput(min(4, runtime.NumCPU()), 4, 1<<19),
	})

	// Let the allocations of the ns/op entries above get collected
	// before the latency-percentile run, so their GC debt doesn't
	// bleed into the tail.
	runtime.GC()
	out = append(out, tailResult("dynamic_querytail_ladder", tailN, QueryTailLadder(tailN, tailU)))
	return out
}
