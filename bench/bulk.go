package main

import (
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/workload"
	"repro/pam"
)

// The bulk workload is the library alone, as in the paper's §6: one
// closed-loop driver at fork-join parallelism nproc builds two maps,
// unions them, applies a multi-insert and a multi-delete, then serves
// range-sum requests from the result. It exercises internal/core
// join/build/union and internal/parallel on flat leaves and leaves serve
// idle.

type (
	sumMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	kv     = pam.KV[uint64, int64]
)

func newSumMap(opts pam.Options) sumMap {
	return pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
}

func add(a, b int64) int64 { return a + b }

// sink keeps query results alive so the compiler cannot drop the calls.
var sink int64

// kvPairs draws n uniform keys in [0, space) with values from the seed.
func kvPairs(seed uint64, n int, space uint64) []kv {
	ks, vs := workload.KeyValues(seed, n, space)
	out := make([]kv, n)
	for i := range out {
		out[i] = kv{Key: ks[i], Val: vs[i]}
	}
	return out
}

// bulkInputs are one run's seeded inputs; every round repeats them, so
// every round's result is the same map.
type bulkInputs struct {
	a, b, ins []kv
	del       []uint64
	los       []uint64 // lower key of every AugRange of a round
	span      uint64   // keys spanned by one AugRange: 1% of the key space
}

func newBulkInputs(cfg config) bulkInputs {
	r := seq.NewRNG(cfg.seed)
	span := cfg.bulkSpace / 100
	return bulkInputs{
		a:    kvPairs(r.At(1), cfg.bulkN, cfg.bulkSpace),
		b:    kvPairs(r.At(2), cfg.bulkN, cfg.bulkSpace),
		ins:  kvPairs(r.At(3), cfg.bulkUpdate, cfg.bulkSpace),
		del:  workload.Keys(r.At(4), cfg.bulkUpdate, cfg.bulkSpace),
		los:  workload.Keys(r.At(5), cfg.bulkRequests*cfg.queries, cfg.bulkSpace-span),
		span: span,
	}
}

// prefixOracle is the expected round result as sorted keys and prefix sums
// of their values, computed from the inputs without the library.
type prefixOracle struct {
	keys []uint64
	pre  []int64 // pre[i] is the sum of the first i values
}

func newPrefixOracle(in bulkInputs) prefixOracle {
	all := make([]kv, 0, len(in.a)+len(in.b)+len(in.ins))
	all = append(append(append(all, in.a...), in.b...), in.ins...)
	slices.SortFunc(all, func(x, y kv) int {
		switch {
		case x.Key < y.Key:
			return -1
		case x.Key > y.Key:
			return 1
		}
		return 0
	})
	del := slices.Clone(in.del)
	slices.Sort(del)
	o := prefixOracle{pre: []int64{0}}
	d := 0
	for i := 0; i < len(all); {
		k, v := all[i].Key, int64(0)
		for ; i < len(all) && all[i].Key == k; i++ {
			v += all[i].Val
		}
		for d < len(del) && del[d] < k {
			d++
		}
		if d < len(del) && del[d] == k {
			continue
		}
		o.keys = append(o.keys, k)
		o.pre = append(o.pre, o.pre[len(o.pre)-1]+v)
	}
	return o
}

func (o prefixOracle) size() int64  { return int64(len(o.keys)) }
func (o prefixOracle) total() int64 { return o.pre[len(o.pre)-1] }

// rangeSum is the sum of the values with lo <= key <= hi.
func (o prefixOracle) rangeSum(lo, hi uint64) int64 {
	i := sort.Search(len(o.keys), func(j int) bool { return o.keys[j] >= lo })
	j := sort.Search(len(o.keys), func(j int) bool { return o.keys[j] > hi })
	return o.pre[j] - o.pre[i]
}

// roundStats is one round's timings.
type roundStats struct {
	build       [2]time.Duration
	union       time.Duration
	insert, del time.Duration
	keys        int             // keys through build, union, insert and delete
	requests    []time.Duration // range request latencies
	allocs      int64           // tree nodes allocated, when opts.Stats is set
}

// ops is the time spent in the bulk operations, without the requests.
func (s roundStats) ops() time.Duration {
	return s.build[0] + s.build[1] + s.union + s.insert + s.del
}

// bulkRound runs one round and checks its result against the oracle when
// one is given. It returns the round's final map.
func bulkRound(cfg config, in bulkInputs, opts pam.Options, o *prefixOracle, r *result, tr *tracer, round int64) (sumMap, roundStats) {
	var st roundStats
	var allocs0 int64
	if opts.Stats != nil {
		allocs0 = opts.Stats.Allocated.Load()
	}
	t0 := time.Now()
	ma := newSumMap(opts).Build(in.a, add)
	t1 := time.Now()
	mb := newSumMap(opts).Build(in.b, add)
	t2 := time.Now()
	u := ma.UnionWith(mb, add)
	t3 := time.Now()
	u = u.MultiInsert(in.ins, add)
	t4 := time.Now()
	u = u.MultiDelete(in.del)
	t5 := time.Now()
	st.build = [2]time.Duration{t1.Sub(t0), t2.Sub(t1)}
	st.union, st.insert, st.del = t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	st.keys = len(in.a) + len(in.b) + int(ma.Size()+mb.Size()) + len(in.ins) + len(in.del)
	if opts.Stats != nil {
		st.allocs = opts.Stats.Allocated.Load() - allocs0
	}

	q := cfg.queries
	firsts := make([]int64, cfg.bulkRequests)
	starts := make([]time.Time, cfg.bulkRequests+1)
	for i := range firsts {
		starts[i] = time.Now()
		los := in.los[i*q : (i+1)*q]
		firsts[i] = u.AugRange(los[0], los[0]+in.span)
		for _, lo := range los[1:] {
			sink += u.AugRange(lo, lo+in.span)
		}
	}
	starts[cfg.bulkRequests] = time.Now()
	st.requests = make([]time.Duration, cfg.bulkRequests)
	for i := range st.requests {
		st.requests[i] = starts[i+1].Sub(starts[i])
	}

	if tr != nil {
		root := tr.add("bulk.round", t0, starts[cfg.bulkRequests], -1, round)
		tr.add("core.build", t0, t1, root, round)
		tr.add("core.build", t1, t2, root, round)
		tr.add("core.union", t2, t3, root, round)
		tr.add("core.multiinsert", t3, t4, root, round)
		tr.add("core.multidelete", t4, t5, root, round)
		for i := range st.requests {
			tr.add("range", starts[i], starts[i+1], root, round)
		}
	}

	r.attempted.Add(int64(5 + cfg.bulkRequests))
	if o != nil {
		r.check(u.Size() == o.size(), "round %d: size %d, want %d", round, u.Size(), o.size())
		r.check(u.AugVal() == o.total(), "round %d: AugVal %d, want %d", round, u.AugVal(), o.total())
		for i, got := range firsts {
			lo := in.los[i*q]
			if want := o.rangeSum(lo, lo+in.span); got != want {
				r.fail("round %d: AugRange(%d, %d) = %d, want %d", round, lo, lo+in.span, got, want)
			}
		}
		r.attempted.Add(int64(len(firsts)))
	}
	return u, st
}

func runBulk(cfg config, r *result, tr *tracer) error {
	opts := pam.Options{}
	var in bulkInputs
	var round int64
	// Set-up is generating the seeded inputs plus one cold round.
	err := timeSetups(r, cfg, func(int) error {
		in = newBulkInputs(cfg)
		bulkRound(cfg, in, opts, nil, r, nil, round)
		round++
		return nil
	}, func() error { return nil })
	if err != nil {
		return err
	}
	oracle := newPrefixOracle(in)

	for end := time.Now().Add(cfg.warmup); time.Now().Before(end); round++ {
		bulkRound(cfg, in, opts, &oracle, r, nil, round)
	}

	// phase runs rounds until d has passed and returns their stats.
	phase := func(d time.Duration, opts pam.Options, tr *tracer) (stats []roundStats, last sumMap) {
		runtime.GC()
		for end := time.Now().Add(d); time.Now().Before(end) || len(stats) == 0; round++ {
			u, st := bulkRound(cfg, in, opts, &oracle, r, tr, round)
			stats, last = append(stats, st), u
		}
		return stats, last
	}
	rate := func(stats []roundStats) float64 {
		var rates []float64
		for _, s := range stats {
			rates = append(rates, float64(s.keys)/s.ops().Seconds())
		}
		return median(rates)
	}

	if tr != nil {
		ref, _ := phase(cfg.measure/2, opts, nil)
		var counters pam.Stats
		traced := opts
		traced.Stats = &counters
		gcw := startGCWindow()
		smp := startSampler(nil)
		stats, last := phase(cfg.measure/2, traced, tr)
		smp.finish()
		bulkLayers(cfg, r, tr, stats, last)
		runtimeLayers(r, gcw, smp)
		r.set("trace.overhead_pct", 100*(rate(ref)-rate(stats))/rate(ref))
		r.set("parallel.speedup", bulkSpeedup(cfg, in, opts, r, &round))
		return nil
	}

	stats, last := phase(cfg.measure, opts, nil)
	r.set("throughput_ops_s", rate(stats))
	r.note("throughput_ops_s: keys through build/union/multi-insert/multi-delete per second, median of %d rounds", len(stats))
	var reqs, writes []float64
	for _, s := range stats {
		reqs = append(reqs, durs(s.requests)...)
		writes = append(writes, float64(s.insert+s.del))
	}
	r.setPct("read_p50_us", reqs, 0.5, 1e-3)
	r.setPct("read_p95_us", reqs, 0.95, 1e-3)
	r.set("write_p50_ms", median(writes)/1e6)
	r.note("write_p50_ms: MultiInsert plus MultiDelete of %d keys each, median of %d rounds", cfg.bulkUpdate, len(writes))

	r.set("bytes_per_entry", heapPerEntry(last.Size(), func() { last = sumMap{} }))
	return nil
}

// bulkLayers sets the per-layer metrics of a traced bulk phase.
func bulkLayers(cfg config, r *result, tr *tracer, stats []roundStats, final sumMap) {
	ms := func(name string) float64 { return mean(tr.durations(name)) / 1e6 }
	r.set("core.build_ms", ms("core.build"))
	r.set("core.union_ms", ms("core.union"))
	r.set("core.multiinsert_ms", ms("core.multiinsert"))
	r.set("core.multidelete_ms", ms("core.multidelete"))
	var allocs, keys float64
	for _, s := range stats {
		allocs += float64(s.allocs)
		keys += float64(s.keys)
	}
	r.set("core.allocs_per_key", ratio(allocs, keys))
	reqs := tr.durations("range")
	r.set("core.augrange_ns", mean(reqs)/float64(cfg.queries))
	r.setPct("req.range_p50_us", reqs, 0.5, 1e-3)
	r.setPct("req.range_p99_us", reqs, 0.99, 1e-3)
	space := final.Tree().SpaceStats()
	r.set("core.compression_ratio", ratio(float64(space.LogicalBytes), float64(space.PhysicalBytes)))
}

// bulkSpeedup times rounds alternately at parallelism 1 and nproc and
// returns the ratio of their median round times (bulk operations only).
func bulkSpeedup(cfg config, in bulkInputs, opts pam.Options, r *result, round *int64) float64 {
	p := parallel.Parallelism()
	defer parallel.SetParallelism(p)
	var one, all []float64
	for i := 0; i < cfg.speedupRounds; i++ {
		for _, par := range []int{1, p} {
			parallel.SetParallelism(par)
			runtime.GC()
			_, st := bulkRound(cfg, in, opts, nil, r, nil, *round)
			*round++
			if par == 1 {
				one = append(one, float64(st.ops()))
			} else {
				all = append(all, float64(st.ops()))
			}
		}
	}
	r.note("parallel.speedup: parallelism 1 vs %d, %d rounds each", p, cfg.speedupRounds)
	return ratio(median(one), median(all))
}

// heapPerEntry measures the live heap held by a structure of n entries:
// the live heap with it, minus the live heap after release drops the last
// reference, divided by n.
func heapPerEntry(n int64, release func()) float64 {
	with := liveHeap()
	release()
	without := liveHeap()
	if n == 0 || without > with {
		return 0
	}
	return float64(with-without) / float64(n)
}
