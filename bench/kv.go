package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/seq"
	"repro/pam"
	"repro/serve"
)

// The kv workload is the serving stack: a 4-shard durable hash store with
// compressed leaves on the real filesystem, an open-loop writer next to a
// paced reader that mixes gets, range sums and scans, then a closed-loop
// capacity phase, an explicit checkpoint and compaction, and a reopen. It
// runs replica views, snapshot markers, compressed-block probes and
// cursors, admit, sequence, flush, resolve, WAL, fsync, checkpoints,
// compaction and recovery — everything bulk leaves idle.

type (
	sumDurable = serve.DurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	mapOp      = serve.Op[uint64, int64]
)

const (
	kvShards     = 4
	preloadBatch = 1 << 16 // ops per set-up batch
)

// User bytes per op, for write amplification: a put carries a key and a
// value, a delete a key.
const (
	putBytes = 16
	delBytes = 8
)

// kvGen derives every input of the workload from the seed, by index: the
// preloaded entries, the writer's batches and the reader's requests.
type kvGen struct {
	cfg                         config
	stride                      uint64 // key space per preloaded key
	pre, kind, key, val, reqRNG seq.RNG
}

func newKVGen(cfg config) kvGen {
	r := seq.NewRNG(cfg.seed)
	return kvGen{cfg: cfg, stride: cfg.kvSpace / uint64(cfg.kvN),
		pre: r.Split(1), kind: r.Split(2), key: r.Split(3), val: r.Split(4), reqRNG: r.Split(5)}
}

// preKey is the i-th preloaded key. There is one per stride-wide slot, so
// the preloaded keys are distinct and spread over the whole key space.
func (g kvGen) preKey(i int) uint64 {
	return uint64(i)*g.stride + g.pre.AtRange(uint64(i), g.stride)
}

func (g kvGen) preVal(i int) int64 { return int64(g.val.AtRange(uint64(^i), 1000)) }

func (g kvGen) preload() [][]mapOp {
	var out [][]mapOp
	for lo := 0; lo < g.cfg.kvN; lo += preloadBatch {
		hi := min(lo+preloadBatch, g.cfg.kvN)
		b := make([]mapOp, 0, hi-lo)
		for i := lo; i < hi; i++ {
			b = append(b, serve.Put(g.preKey(i), g.preVal(i)))
		}
		out = append(out, b)
	}
	return out
}

// batch is writer batch i: 90% puts of keys uniform over the key space,
// 10% deletes of preloaded keys.
func (g kvGen) batch(i int) ([]mapOp, batchSize) {
	ops := make([]mapOp, g.cfg.batch)
	var sz batchSize
	for j := range ops {
		x := uint64(i*g.cfg.batch + j)
		if g.kind.AtRange(x, 10) == 0 {
			ops[j] = serve.Del[uint64, int64](g.preKey(int(g.key.AtRange(x, uint64(g.cfg.kvN)))))
			sz.bytes += delBytes
		} else {
			ops[j] = serve.Put(g.key.AtRange(x, g.cfg.kvSpace), int64(g.val.AtRange(x, 1000)))
			sz.bytes += putBytes
		}
	}
	sz.ops = len(ops)
	return ops, sz
}

// getKeys fills out with the preloaded keys get request i looks up.
func (g kvGen) getKeys(i int, out []uint64) []uint64 {
	out = out[:0]
	for j := 0; j < g.cfg.queries; j++ {
		out = append(out, g.preKey(int(g.reqRNG.AtRange(uint64(i*g.cfg.queries+j), uint64(g.cfg.kvN)))))
	}
	return out
}

// span is the key range of range or scan request i, covering about
// kvSpanKeys preloaded entries.
func (g kvGen) span(i int) (lo, hi uint64) {
	width := uint64(g.cfg.kvSpanKeys) * g.stride
	lo = g.reqRNG.AtRange(uint64(^i), g.cfg.kvSpace-width)
	return lo, lo + width - 1
}

// readKinds is the reader's request mix, by request index: get, range and
// scan in the ratio 6:1:1.
var readKinds = [8]string{"get", "get", "get", "get", "get", "get", "range", "scan"}

// readReq offsets read request ids from write batch ids in the trace.
func readReq(i int) int64 { return 1<<40 + int64(i) }

// kvBench is one run of the workload.
type kvBench struct {
	cfg   config
	g     kvGen
	st    *sumDurable
	r     *result
	acked acks
	reads int // read requests sent so far

	fs      *countingFS
	fs0     fsCounts // fs counters when the traced half began
	fsPhase fsCounts // fs activity during the traced half

	keys        []uint64 // get scratch, reader goroutine only
	scanEntries int      // entries visited by traced core scans
}

// phase runs the open-loop writer for d next to the reader and returns the
// writer's batches and the reader's latencies.
func (k *kvBench) phase(d time.Duration, tr *tracer) ([]writeRec, map[string][]float64) {
	var lat map[string][]float64
	recs := writePhase(k.cfg, d, len(k.acked), k.g.batch, k.st.ApplyAsync,
		func(until time.Time) { lat = k.read(until, tr) })
	k.acked.record(k.r, recs)
	for _, w := range recs {
		addWriteSpans(tr, w)
	}
	return recs, lat
}

// read is the reader: the 6:1:1 mix at up to kvReadRate requests per
// second until the deadline. It returns the requests' latencies in
// nanoseconds by kind.
func (k *kvBench) read(until time.Time, tr *tracer) map[string][]float64 {
	kind := func(i int) string { return readKinds[i%len(readKinds)] }
	every := time.Duration(float64(time.Second) / k.cfg.kvReadRate)
	first := k.reads
	lats := pacedReads(every, until, first, func(i int) { k.r.op(k.request(kind(i), i, tr)) })
	k.reads += len(lats)
	out := map[string][]float64{}
	for i, l := range lats {
		out[kind(first+i)] = append(out[kind(first+i)], float64(l))
	}
	return out
}

// request runs read request i of the given kind. When traced it records the
// request's spans and then repeats its probes or scan directly on each
// shard's core tree, so the core layer's own cost is measured apart from
// the store's routing and merging.
func (k *kvBench) request(kind string, i int, tr *tracer) error {
	req := readReq(i)
	switch kind {
	case "get":
		k.keys = k.g.getKeys(i, k.keys)
		s := time.Now()
		v, err := k.st.ReaderView()
		if err != nil {
			return err
		}
		rv := time.Now()
		for _, key := range k.keys {
			if val, ok := v.Find(key); ok {
				sink += val
			}
		}
		e := time.Now()
		if tr != nil {
			root := tr.add("get", s, e, -1, req)
			tr.add("serve.readerview", s, rv, root, req)
			tr.add("serve.find", rv, e, root, req)
			c := time.Now()
			for _, key := range k.keys {
				if val, ok := v.Shard(int(seq.Mix64(key) % kvShards)).Tree().Find(key); ok {
					sink += val
				}
			}
			tr.add("core.find", c, time.Now(), -1, req)
		}
	case "range":
		lo, hi := k.g.span(i)
		s := time.Now()
		v, err := k.st.Snapshot()
		if err != nil {
			return err
		}
		sn := time.Now()
		sink += v.AugRange(lo, hi)
		e := time.Now()
		root := tr.add("range", s, e, -1, req)
		tr.add("serve.snapshot", s, sn, root, req)
		tr.add("serve.augrange", sn, e, root, req)
	case "scan":
		lo, hi := k.g.span(i)
		s := time.Now()
		v, err := k.st.ReaderView()
		if err != nil {
			return err
		}
		rv := time.Now()
		v.ForEachRange(lo, hi, func(_ uint64, val int64) bool { sink += val; return true })
		e := time.Now()
		if tr != nil {
			root := tr.add("scan", s, e, -1, req)
			tr.add("serve.readerview", s, rv, root, req)
			tr.add("serve.scan", rv, e, root, req)
			c := time.Now()
			for sh := 0; sh < v.NumShards(); sh++ {
				v.Shard(sh).Tree().ForEachRange(lo, hi, func(_ uint64, val int64) bool {
					sink += val
					k.scanEntries++
					return true
				})
			}
			tr.add("core.scan", c, time.Now(), -1, req)
		}
	}
	return nil
}

// measure runs the measured phase with tracing off and sets the end-to-end
// read and write metrics, or, when traced, runs it as an untraced half and
// a traced half, sets the per-layer metrics from the traced half and
// compares the halves' median write latency for trace.overhead_pct. It
// returns the traced half's write batches (none untraced).
func (k *kvBench) measure(tr *tracer) []writeRec {
	if tr == nil {
		recs, lat := k.phase(k.cfg.measure, nil)
		all := append(append(lat["get"], lat["range"]...), lat["scan"]...)
		k.r.setPct("read_p50_us", all, 0.5, 1e-3)
		k.r.setPct("read_p95_us", all, 0.95, 1e-3)
		setWriteP50(k.r, recs)
		return nil
	}
	ref, _ := k.phase(k.cfg.measure/2, nil)
	k.fs0 = k.fs.counts()
	gcw := startGCWindow()
	smp := startSampler(k.st.Stats)
	recs, lat := k.phase(k.cfg.measure/2, tr)
	smp.finish()
	k.fsPhase = k.fs.counts().sub(k.fs0)
	for _, kind := range []string{"get", "range", "scan"} {
		k.r.setPct("req."+kind+"_p50_us", lat[kind], 0.5, 1e-3)
		k.r.setPct("req."+kind+"_p99_us", lat[kind], 0.99, 1e-3)
	}
	readLayers(k.r, tr, k.cfg.queries, k.scanEntries)
	writeLayers(k.r, tr, recs)
	runtimeLayers(k.r, gcw, smp)
	spaceLayers(k.r, k.st)
	refP50, p50 := writeP50(ref), writeP50(recs)
	k.r.set("trace.overhead_pct", 100*(p50-refP50)/refP50)
	return recs
}

// verify compares the store's snapshot with the oracle: the preloaded
// entries with every acknowledged batch replayed in issue order, which is
// sequence order for one writer. It returns the snapshot's size and sum.
func (k *kvBench) verify() (int64, int64) {
	want := make(map[uint64]int64, k.cfg.kvN)
	for i := 0; i < k.cfg.kvN; i++ {
		want[k.g.preKey(i)] = k.g.preVal(i)
	}
	for i, ok := range k.acked {
		if !ok {
			continue
		}
		b, _ := k.g.batch(i)
		for _, o := range b {
			if o.Kind == serve.OpPut {
				want[o.Key] = o.Val
			} else {
				delete(want, o.Key)
			}
		}
	}
	var wantSum int64
	for _, v := range want {
		wantSum += v
	}
	v, err := k.st.Snapshot()
	if err != nil {
		k.r.op(err)
		return 0, 0
	}
	seen, bad := 0, 0
	for sh := 0; sh < v.NumShards(); sh++ {
		v.Shard(sh).ForEach(func(key uint64, val int64) bool {
			seen++
			if w, ok := want[key]; !ok || w != val {
				bad++
			}
			return true
		})
	}
	k.r.check(bad == 0 && seen == len(want), "final snapshot: %d entries, %d differ from the oracle's %d", seen, bad, len(want))
	k.r.check(v.Size() == int64(len(want)) && v.AugVal() == wantSum, "final snapshot: size %d sum %d, oracle %d %d", v.Size(), v.AugVal(), len(want), wantSum)
	return v.Size(), v.AugVal()
}

// spaceLayers reports the shards' leaf layout from a snapshot.
func spaceLayers(r *result, st *sumDurable) {
	v, err := st.Snapshot()
	if err != nil {
		r.op(err)
		return
	}
	var logical, physical int64
	for sh := 0; sh < v.NumShards(); sh++ {
		s := v.Shard(sh).Tree().SpaceStats()
		logical += s.LogicalBytes
		physical += s.PhysicalBytes
	}
	r.set("core.compression_ratio", ratio(float64(logical), float64(physical)))
}

// checkpointLayers times an explicit checkpoint and compaction.
func checkpointLayers(r *result, st *sumDurable, traced bool) {
	start := time.Now()
	cs, err := st.Checkpoint()
	ckpt := time.Since(start)
	r.op(err)
	start = time.Now()
	_, err = st.Compact()
	compact := time.Since(start)
	r.op(err)
	if traced {
		r.set("serve.checkpoint_ms", float64(ckpt)/1e6)
		r.set("serve.checkpoint_records", float64(cs.Records))
		r.set("serve.checkpoint_bytes", float64(cs.Bytes))
		r.set("serve.compact_ms", float64(compact)/1e6)
	}
}

// scratchDir returns a fresh directory under the run's scratch directory.
func scratchDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func runKV(cfg config, r *result, tr *tracer) error {
	open := func(fs serve.FS) (*sumDurable, error) {
		return serve.OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
			pam.Options{Compress: pam.CompressUint64()}, kvShards, seq.Mix64, pam.Uint64Codec(),
			serve.DurableConfig{FS: fs, CheckpointEvery: cfg.checkpointEvery, CompactEvery: cfg.compactEvery})
	}

	// Set-up: open an empty store, preload it, take the base checkpoint.
	g := newKVGen(cfg)
	pre := g.preload()
	var st *sumDurable
	var fs *countingFS
	var dir string
	err := timeSetups(r, cfg, func(i int) error {
		var err error
		if dir, err = scratchDir(cfg, fmt.Sprintf("kv-%d", i)); err != nil {
			return err
		}
		fs = &countingFS{FS: serve.OSFS{Dir: dir}}
		if st, err = open(fs); err != nil {
			return err
		}
		for _, b := range pre {
			if _, err := st.Apply(b); err != nil {
				return err
			}
		}
		_, err = st.Checkpoint()
		return err
	}, func() error { return st.Close() })
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	pre = nil

	k := &kvBench{cfg: cfg, g: g, st: st, r: r, fs: fs}
	k.phase(cfg.warmup, nil)
	traced := k.measure(tr)

	capRecs := capacity(cfg, cfg.kvCapacity, len(k.acked), g.batch, st.ApplyAsync)
	k.acked.record(r, capRecs)
	r.set("throughput_ops_s", capacityRate(capRecs))
	r.note("throughput_ops_s: acknowledged write ops per second with %d batches in flight, %d batches", cfg.inflight, cfg.kvCapacity)
	checkpointLayers(r, st, tr != nil)
	syncTail(r, &k.acked, g.batch, st.Apply)
	if tr != nil {
		fsLayers(r, k.fsPhase, fs.counts().sub(k.fs0), traced)
	}
	size, sum := k.verify()

	r.set("bytes_per_entry", heapPerEntry(size, func() {
		r.op(st.Close())
		st, k.st = nil, nil
	}))

	// Each reopen of the closed store must reproduce it.
	err = reopens(cfg, r, tr != nil, func(i int) (time.Duration, error) {
		start := time.Now()
		s2, err := open(serve.OSFS{Dir: dir})
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		v, err := s2.Snapshot()
		r.op(err)
		r.check(v.Size() == size && v.AugVal() == sum, "reopen %d: size %d sum %d, want %d %d", i, v.Size(), v.AugVal(), size, sum)
		if tr != nil {
			rec := s2.Recovery()
			r.set("serve.recovery_chain_records", float64(rec.ChainRecords))
			r.set("serve.recovery_wal_batches", float64(rec.WALBatches))
		}
		return d, s2.Close()
	})
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}
