package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/pam"
	"repro/rangetree"
	"repro/serve"
)

// The layer ladder applies one seeded stream of uniform-key batches
// sequentially at each layer in turn, so a layer's cost is the difference
// between its rung and the rung below. Map rungs: core tree, pam map,
// one-shard Store, one-shard DurableStore on MemFS, then on the real
// filesystem (with a checkpoint and a reopen of the result). Point rungs:
// rangetree, one-shard PointStore, one-shard DurablePointStore on the real
// filesystem; the rangetree rung's result also serves range counts.

// ladderTolerance is how much faster than the rung below a rung may read
// before the run stops: past it the measurement, not the layer, is wrong.
const ladderTolerance = 0.25

// ladderReps is how many times the in-memory rungs repeat after one
// discarded pass that warms the allocator; the median counts.
const ladderReps = 5

func runLadder(cfg config, r *result) error {
	rng := seq.NewRNG(cfg.seed).Split(99)
	n := cfg.ladderOps / cfg.batch * cfg.batch
	batches := n / cfg.batch
	kvs := make([]kv, n)
	pts := make([]rangetree.Point, n)
	for i := range kvs {
		kvs[i] = kv{Key: rng.AtRange(uint64(i), cfg.kvSpace), Val: int64(i % 1000)}
		pts[i] = rangetree.Point{X: rng.Split(1).AtFloat(uint64(i)), Y: rng.Split(2).AtFloat(uint64(i))}
	}
	kvBatch := func(b int) []kv { return kvs[b*cfg.batch : (b+1)*cfg.batch] }
	entries := make([]core.Entry[uint64, int64], n)
	for i, e := range kvs {
		entries[i] = core.Entry[uint64, int64]{Key: e.Key, Val: e.Val}
	}
	opBatch := func(b int) []mapOp {
		ops := make([]mapOp, cfg.batch)
		for j, e := range kvBatch(b) {
			ops[j] = serve.Put(e.Key, e.Val)
		}
		return ops
	}
	ptBatch := func(b int) []serve.PointOp {
		ops := make([]serve.PointOp, cfg.batch)
		for j, p := range pts[b*cfg.batch : (b+1)*cfg.batch] {
			ops[j] = serve.InsertPoint(p, 1)
		}
		return ops
	}
	// perOp times f, which applies every batch, and returns ns per op.
	perOp := func(f func() error) (float64, error) {
		runtime.GC()
		start := time.Now()
		err := f()
		return float64(time.Since(start)) / float64(n), err
	}
	applyAll := func(apply func([]mapOp) (uint64, error)) error {
		for b := 0; b < batches; b++ {
			if _, err := apply(opBatch(b)); err != nil {
				return err
			}
		}
		return nil
	}

	rungs := map[string][]float64{}
	for rep := -1; rep < ladderReps; rep++ {
		keep := func(rung string, t float64) {
			if rep >= 0 {
				rungs[rung] = append(rungs[rung], t)
			}
		}
		t, _ := perOp(func() error {
			t := newSumMap(pam.Options{}).Tree()
			for b := 0; b < batches; b++ {
				t = t.MultiInsert(entries[b*cfg.batch:(b+1)*cfg.batch], nil)
			}
			sink += t.Size()
			return nil
		})
		keep("core", t)
		t, _ = perOp(func() error {
			m := newSumMap(pam.Options{})
			for b := 0; b < batches; b++ {
				m = m.MultiInsert(kvBatch(b), nil)
			}
			sink += m.Size()
			return nil
		})
		keep("pam", t)
		st, err := serve.NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 1, seq.Mix64)
		if err != nil {
			return err
		}
		t, err = perOp(func() error { return applyAll(st.Apply) })
		st.Close()
		if err != nil {
			return err
		}
		keep("serve", t)
		mem, err := openLadderStore(serve.NewMemFS())
		if err != nil {
			return err
		}
		t, err = perOp(func() error { return applyAll(mem.Apply) })
		if cerr := mem.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		keep("wal_mem", t)
	}
	med := map[string]float64{}
	for name, xs := range rungs {
		med[name] = median(xs)
	}

	// The filesystem rungs run once: each batch waits for its own fsync,
	// which the counting filesystem confirms.
	syncedEach := func(fs *countingFS, rung string) {
		syncs := len(fs.counts().walSyncs)
		r.check(syncs >= batches, "ladder: %s made %d WAL syncs for %d synchronous batches", rung, syncs, batches)
	}
	dir, err := scratchDir(cfg, "ladder-map")
	if err != nil {
		return err
	}
	osfs := &countingFS{FS: serve.OSFS{Dir: dir}}
	dur, err := openLadderStore(osfs)
	if err != nil {
		return err
	}
	if med["wal_fsync"], err = perOp(func() error { return applyAll(dur.Apply) }); err != nil {
		dur.Close()
		return err
	}
	syncedEach(osfs, "wal_fsync")
	start := time.Now()
	_, err = dur.Checkpoint()
	r.set("ladder.checkpoint_ms", float64(time.Since(start))/1e6)
	if cerr := dur.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	start = time.Now()
	dur, err = openLadderStore(serve.OSFS{Dir: dir})
	r.set("ladder.recovery_ms", float64(time.Since(start))/1e6)
	if err != nil {
		return err
	}
	v, err := dur.Snapshot()
	if err != nil {
		return err
	}
	r.check(v.Size() == newSumMap(pam.Options{}).MultiInsert(kvs, nil).Size(), "ladder reopen: %d entries", v.Size())
	if err := dur.Close(); err != nil {
		return err
	}

	var tree rangetree.Tree
	for rep := 0; rep < 3; rep++ {
		t, _ := perOp(func() error {
			tree = rangetree.New(pam.Options{})
			for _, p := range pts {
				tree = tree.Insert(p, 1)
			}
			sink += tree.Size()
			return nil
		})
		rungs["rangetree"] = append(rungs["rangetree"], t)
		ps := serve.NewPointStore(pam.Options{}, nil)
		t, err := perOp(func() error {
			for b := 0; b < batches; b++ {
				if _, err := ps.Apply(ptBatch(b)); err != nil {
					return err
				}
			}
			return nil
		})
		ps.Close()
		if err != nil {
			return err
		}
		rungs["pointstore"] = append(rungs["pointstore"], t)
	}
	med["rangetree"], med["pointstore"] = median(rungs["rangetree"]), median(rungs["pointstore"])
	queryLayers(r, tree, rng.Split(3))
	pdir, err := scratchDir(cfg, "ladder-points")
	if err != nil {
		return err
	}
	pfs := &countingFS{FS: serve.OSFS{Dir: pdir}}
	pst, err := serve.OpenDurablePointStore(pam.Options{}, nil, serve.DurableConfig{FS: pfs})
	if err != nil {
		return err
	}
	med["pointstore_wal"], err = perOp(func() error {
		for b := 0; b < batches; b++ {
			if _, err := pst.Apply(ptBatch(b)); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := pst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	syncedEach(pfs, "pointstore_wal")

	for _, name := range []string{"core", "pam", "serve", "wal_mem", "wal_fsync", "rangetree", "pointstore", "pointstore_wal"} {
		r.set("ladder."+name+"_ns_op", med[name])
	}
	r.set("pam.wrapper_ns_op", med["pam"]-med["core"])
	chains := [][]string{{"core", "pam", "serve", "wal_mem", "wal_fsync"}, {"rangetree", "pointstore", "pointstore_wal"}}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			below, rung := med[chain[i-1]], med[chain[i]]
			if i > 1 || chain[0] != "core" {
				r.set("ladder."+chain[i]+"_delta_ns_op", rung-below)
			}
			r.check(rung >= below*(1-ladderTolerance), "ladder: %s at %.0f ns/op is faster than %s at %.0f ns/op", chain[i], rung, chain[i-1], below)
		}
	}
	r.note("ladder: %d ops in %d-op batches per rung; in-memory map rungs median of %d, point rungs of 3", n, cfg.batch, ladderReps)
	return nil
}

// ladderRects is how many rectangles queryLayers counts over.
const ladderRects = 1024

// queryLayers times QueryCount over seeded squares holding about 1% of the
// rangetree rung's uniform points, and reports the shape of the dynamic
// ladder under the tree.
func queryLayers(r *result, tree rangetree.Tree, rng seq.RNG) {
	const side = 0.1
	rects := make([]rangetree.Rect, ladderRects)
	for i := range rects {
		x, y := rng.AtFloat(uint64(2*i))*(1-side), rng.AtFloat(uint64(2*i+1))*(1-side)
		rects[i] = rangetree.Rect{XLo: x, XHi: x + side, YLo: y, YHi: y + side}
	}
	runtime.GC()
	start := time.Now()
	for _, rect := range rects {
		sink += tree.QueryCount(rect)
	}
	r.set("rangetree.querycount_us", float64(time.Since(start))/1e3/ladderRects)
	r.set("dynamic.levels", float64(len(tree.LevelRecordCounts())))
	r.set("dynamic.buffer_pending", float64(tree.Pending()))
}

func openLadderStore(fs serve.FS) (*sumDurable, error) {
	st, err := serve.OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		pam.Options{}, 1, seq.Mix64, pam.Uint64Codec(), serve.DurableConfig{FS: fs})
	if err != nil {
		return nil, fmt.Errorf("ladder store: %w", err)
	}
	return st, nil
}
