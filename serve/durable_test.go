package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

type durSumStore = DurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]]

func openDurSum(fs FS, shards, every int, tuning ...Tuning) (*durSumStore, error) {
	return openDurSumOpts(pam.Options{}, fs, shards, every, tuning...)
}

// openDurSumOpts is openDurSum with explicit map options — the crash
// harness uses it to run half its schedules over compressed leaf blocks
// (recovery must reopen with the same options the store was built
// with).
func openDurSumOpts(opts pam.Options, fs FS, shards, every int, tuning ...Tuning) (*durSumStore, error) {
	cfg := DurableConfig{FS: fs, CheckpointEvery: every}
	if len(tuning) > 0 {
		cfg.Tuning = tuning[0]
	}
	return OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		opts, shards, mixHash, pam.Uint64Codec(), cfg)
}

// applyAll applies a batch and fails the test on any durability error.
func applyAll(t *testing.T, d *durSumStore, ops []kvop) uint64 {
	t.Helper()
	seq, err := d.Apply(ops)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return seq
}

// TestDurableStoreRoundTrip runs the full lifecycle on a real directory
// (OSFS): write, checkpoint, write more, close, reopen, verify that the
// recovered contents equal the acknowledged history, then keep writing.
func TestDurableStoreRoundTrip(t *testing.T) {
	fs := OSFS{Dir: t.TempDir()}
	d, err := openDurSum(fs, 3, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := map[uint64]int64{}
	put := func(k uint64, v int64) {
		if _, err := d.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
		oracle[k] = v
	}
	del := func(k uint64) {
		if _, err := d.Delete(k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		delete(oracle, k)
	}
	for i := uint64(0); i < 200; i++ {
		put(i, int64(i)*3)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		del(i * 4)
	}
	put(1000, -7)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d, err = openDurSum(fs, 3, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	v, _ := d.Snapshot()
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, want %d", got, want)
	}
	for k, want := range oracle {
		if got, ok := v.Find(k); !ok || got != want {
			t.Fatalf("recovered Find(%d) = %d,%v, want %d", k, got, ok, want)
		}
	}
	// The store is live after recovery and continues the sequence.
	seq, err := d.Put(2000, 5)
	if err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	if seq != v.Seq() {
		t.Fatalf("post-recovery seq = %d, want %d (sequence must resume)", seq, v.Seq())
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("post-recovery Checkpoint: %v", err)
	}
}

// TestDurableStoreAutoCheckpoint checks CheckpointEvery triggers and
// that reopening after only automatic checkpoints recovers everything.
func TestDurableStoreAutoCheckpoint(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 20; i++ {
		if _, err := d.Put(i, int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	d.settleCheckpoints()
	if err := d.Err(); err != nil {
		t.Fatalf("automatic checkpoint failed: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := fs.List()
	ckpts, _ := parseDurableDir(names)
	if len(ckpts) == 0 {
		t.Fatalf("no automatic checkpoint written; files: %v", names)
	}
	d, err = openDurSum(fs, 2, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	v, _ := d.Snapshot()
	if v.Seq() != 20 || v.Size() != 20 {
		t.Fatalf("recovered Seq/Size = %d/%d, want 20/20", v.Seq(), v.Size())
	}
}

// TestDurableAutoCheckpointCompact covers CheckpointEvery and Compact on
// both flavours: automatic checkpoints fire on the checkpointer without
// a background error, Compact leaves exactly one checkpoint file and no
// WAL generation below it, and a reopen recovers the oracle from that
// single base plus the WAL tail.
func TestDurableAutoCheckpointCompact(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 2, DurableConfig{CheckpointEvery: 4})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			oracle := map[uint64]int64{}
			put := func(i uint64) {
				if _, err := d.put(i, int64(i+1)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				oracle[i] = int64(i + 1)
			}
			for i := uint64(0); i < 30; i++ {
				put(i)
			}
			d.settleCheckpoints()
			if err := d.Err(); err != nil {
				t.Fatalf("automatic checkpoint failed: %v", err)
			}
			names, _ := fs.List()
			if ckpts, _ := parseDurableDir(names); len(ckpts) == 0 {
				t.Fatalf("no automatic checkpoint written; files: %v", names)
			}
			cs, err := d.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if !cs.Base || cs.Seq != 30 {
				t.Fatalf("Compact stats %+v, want a base at seq 30", cs)
			}
			names, _ = fs.List()
			ckpts, gens := parseDurableDir(names)
			if len(ckpts) != 1 || ckpts[0] != cs.Index {
				t.Fatalf("Compact left checkpoint files %v, want only %d", ckpts, cs.Index)
			}
			for _, g := range gens {
				if g < cs.Index {
					t.Fatalf("Compact left superseded WAL generation %d", g)
				}
			}
			put(30) // replayed from the WAL on reopen
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			d2, err := fl.open(NewMemFSFrom(fs.DurableState()), 2, DurableConfig{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if rec := d2.Recovery(); rec.ChainFiles != 1 || rec.WALBatches != 1 {
				t.Fatalf("recovery %+v, want one chain file and one WAL batch", rec)
			}
			seq, got := d2.contents()
			if seq != 31 || !maps.Equal(got, oracle) {
				t.Fatalf("recovered seq %d, %d entries; want 31, %d", seq, len(got), len(oracle))
			}
		})
	}
}

// TestDurableRebalanceNoop pins that embedding the store does not let a
// caller change a durable store's routing, which is part of its on-disk
// schema: Rebalance on an open store of either flavour returns
// (false, nil), a point store's splits stay put even under skew, and a
// reopen recovers exactly the written contents.
func TestDurableRebalanceNoop(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 2, DurableConfig{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var splits []float64
			if ps, ok := d.durableLifecycle.(*DurablePointStore); ok {
				splits = ps.Splits()
			}
			oracle := map[uint64]int64{}
			for i := uint64(0); i < 60; i++ { // skewed: most points right of the split
				if _, err := d.put(i, int64(i)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				oracle[i] = int64(i)
			}
			if ok, err := d.Rebalance(); ok || err != nil {
				t.Fatalf("Rebalance on a durable store = %v, %v; want false, nil", ok, err)
			}
			if ps, ok := d.durableLifecycle.(*DurablePointStore); ok && !slices.Equal(ps.Splits(), splits) {
				t.Fatalf("Rebalance moved the splits: %v -> %v", splits, ps.Splits())
			}
			if _, err := d.put(1000, 7); err != nil {
				t.Fatalf("Put after Rebalance: %v", err)
			}
			oracle[1000] = 7
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			d2, err := fl.open(NewMemFSFrom(fs.DurableState()), 2, DurableConfig{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if _, got := d2.contents(); !maps.Equal(got, oracle) {
				t.Fatalf("recovered %d entries, oracle %d", len(got), len(oracle))
			}
		})
	}
}

// TestDurableCheckpointIncremental is the cost-bound acceptance test: a
// checkpoint after k single-key updates to an n-entry store writes
// O(k · polylog n) tree records — the structure-sharing delta — not the
// O(n / B) records of the base, and a checkpoint with no intervening
// writes writes none at all.
func TestDurableCheckpointIncremental(t *testing.T) {
	const n = 1 << 15
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	for lo := 0; lo < n; lo += 1024 {
		ops := make([]kvop, 1024)
		for i := range ops {
			ops[i] = kvop{Kind: OpPut, Key: uint64(lo + i), Val: int64(lo + i)}
		}
		applyAll(t, d, ops)
	}
	full, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("full checkpoint: %v", err)
	}
	if full.Records == 0 {
		t.Fatal("base checkpoint wrote no records")
	}

	empty, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if empty.Records != 0 {
		t.Fatalf("checkpoint with no intervening writes wrote %d records", empty.Records)
	}

	rng := rand.New(rand.NewSource(11))
	const k = 16
	for i := 0; i < k; i++ {
		applyAll(t, d, []kvop{{Kind: OpPut, Key: uint64(rng.Intn(2 * n)), Val: int64(i)}})
	}
	delta, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("delta checkpoint: %v", err)
	}
	// Per update: ≤ ~log n interior path copies plus a few leaf blocks
	// (same bound as the core-level TestEncodeDeltaPolylog).
	bound := k * int(4*math.Log2(n)+8)
	if delta.Records > bound {
		t.Fatalf("delta checkpoint after %d updates wrote %d records, bound %d (base: %d)",
			k, delta.Records, bound, full.Records)
	}
	if delta.Records >= full.Records/4 {
		t.Fatalf("delta checkpoint wrote %d records vs %d for the base — not incremental",
			delta.Records, full.Records)
	}
}

// TestDurableCompressedRoundTrip is the compressed-layout durability
// acceptance test: a store with Options.Compress checkpoints, keeps
// writing (so recovery also replays a WAL tail), crashes, and comes
// back byte-identical — packing is canonical, so re-encoding each
// recovered shard from a fresh record set must reproduce exactly the
// bytes the pre-crash store would have written.
func TestDurableCompressedRoundTrip(t *testing.T) {
	const shards = 3
	opts := pam.Options{Compress: pam.CompressUint64()}
	fs := NewMemFS()
	d, err := openDurSumOpts(opts, fs, shards, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := map[uint64]int64{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		k := uint64(rng.Intn(300))
		if rng.Intn(5) == 0 {
			if _, err := d.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(oracle, k)
		} else {
			v := int64(rng.Intn(1000)) - 500
			if _, err := d.Put(k, v); err != nil {
				t.Fatalf("Put: %v", err)
			}
			oracle[k] = v
		}
		if i == 250 || i == 400 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	// The writes after i=400 live only in the WAL tail.
	encodeShards := func(v View[uint64, int64, int64, pam.SumEntry[uint64, int64]]) [][]byte {
		out := make([][]byte, shards)
		for i := 0; i < shards; i++ {
			rs := pam.NewRecordSet[uint64, int64, int64]()
			out[i], _, _ = v.Shard(i).EncodeDelta(rs, pam.Uint64Codec(), nil)
		}
		return out
	}
	v1, _ := d.Snapshot()
	want := encodeShards(v1)
	d.Close() // no crash needed: DurableState below simulates losing the process anyway

	d2, err := openDurSumOpts(opts, NewMemFSFrom(fs.DurableState()), shards, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	v2, _ := d2.Snapshot()
	if v2.Seq() != v1.Seq() || v2.Size() != v1.Size() {
		t.Fatalf("recovered Seq/Size = %d/%d, want %d/%d", v2.Seq(), v2.Size(), v1.Seq(), v1.Size())
	}
	for k, wantV := range oracle {
		if got, ok := v2.Find(k); !ok || got != wantV {
			t.Fatalf("recovered Find(%d) = %d,%v, want %d", k, got, ok, wantV)
		}
	}
	for i := 0; i < shards; i++ {
		sh := v2.Shard(i)
		if sh.Size() > 0 && !sh.Tree().Compressed() {
			t.Fatalf("recovered shard %d is not compressed", i)
		}
	}
	got := encodeShards(v2)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("shard %d: recovered encoding differs from pre-crash encoding (%d vs %d bytes)",
				i, len(got[i]), len(want[i]))
		}
	}
	if probs, err := d2.Verify(); err != nil || len(probs) > 0 {
		t.Fatalf("Verify after recovery: %v / %v", probs, err)
	}
	// Liveness: the recovered compressed store keeps writing.
	if _, err := d2.Put(1<<40, 7); err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	if _, err := d2.Checkpoint(); err != nil {
		t.Fatalf("post-recovery Checkpoint: %v", err)
	}
}

// TestDurablePointStoreRoundTrip checks the point store's checkpoints
// and WAL replay across a clean restart.
func TestDurablePointStoreRoundTrip(t *testing.T) {
	fs := NewMemFS()
	open := func() *DurablePointStore {
		d, err := OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return d
	}
	d := open()
	oracle := map[rangetree.Point]int64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		p := rangetree.Point{X: float64(rng.Intn(16)), Y: float64(rng.Intn(16))}
		if rng.Intn(4) == 0 {
			if _, err := d.Delete(p); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(oracle, p)
		} else {
			if _, err := d.Insert(p, 1); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			oracle[p]++
		}
		if i == 150 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d = open()
	defer d.Close()
	v, _ := d.Snapshot()
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, want %d", got, want)
	}
	for _, p := range v.ReportAll(everything) {
		if w, ok := oracle[p.Point]; !ok || w != p.W {
			t.Fatalf("recovered point (%v, %d), oracle %d,%v", p.Point, p.W, w, ok)
		}
	}
	var sum int64
	for _, w := range oracle {
		sum += w
	}
	if got := v.QuerySum(everything); got != sum {
		t.Fatalf("recovered QuerySum = %d, want %d", got, sum)
	}
}

// ptCkptFile frames a point checkpoint payload (everything between the
// magic and the digest) as the encoder does, so crafted content passes
// the CRC and digest checks and reaches the run decoder.
func ptCkptFile(payload []byte) []byte {
	file := append([]byte(ptCkptMagic), payload...)
	digest := sha256.Sum256(file)
	file = append(file, digest[:]...)
	return binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(file))
}

// TestDurablePointCheckpointRejects hands the point checkpoint decoder
// of a store split at x = 8 files whose integrity checks pass but whose
// runs are not a point set the encoder could have written. Each must
// fail with ErrCorruptFile, and none may panic.
func TestDurablePointCheckpointRejects(t *testing.T) {
	pt := func(x, y float64, w int64) rangetree.Weighted {
		return rangetree.Weighted{Point: rangetree.Point{X: x, Y: y}, W: w}
	}
	// payload is seq 7, the shard count, and one run per argument.
	payload := func(shards int, runs ...[]rangetree.Weighted) []byte {
		p := binary.AppendUvarint(nil, 7)
		p = binary.AppendUvarint(p, uint64(shards))
		for _, run := range runs {
			p = appendPointRun(p, run)
		}
		return p
	}
	good := []rangetree.Weighted{pt(1, 1, 3), pt(1, 2, -4), pt(2, 0, 5)}
	proto := rangetree.New(pam.Options{})

	seq, trees, records, err := decodePointCheckpoint(proto, []float64{8}, ptCkptFile(payload(2, good, nil)))
	if err != nil || seq != 7 || records != 3 || !slices.Equal(trees[0].Points(), good) || trees[1].Size() != 0 {
		t.Fatalf("valid file: seq %d, records %d, err %v", seq, records, err)
	}

	// A run claiming 1000 points over the bytes of one.
	onePoint := appendPointRun(nil, good[:1])[1:]
	overCount := append(binary.AppendUvarint(payload(2), 1000), onePoint...)
	// A weight varint cut short: the continuation bit is set on the
	// last byte of the file's last run.
	cutVarint := payload(2, nil, []rangetree.Weighted{pt(9, 0, 3)})
	cutVarint[len(cutVarint)-1] |= 0x80

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"x descending", payload(2, []rangetree.Weighted{pt(2, 0, 1), pt(1, 0, 1)}, nil)},
		{"y descending at equal x", payload(2, nil, []rangetree.Weighted{pt(9, 2, 1), pt(9, 1, 1)})},
		{"duplicate point", payload(2, []rangetree.Weighted{pt(1, 1, 1), pt(1, 1, 2)}, nil)},
		{"NaN x", payload(2, nil, []rangetree.Weighted{pt(math.NaN(), 1, 1)})},
		{"NaN y", payload(2, nil, []rangetree.Weighted{pt(9, 1, 1), pt(10, math.NaN(), 1)})},
		{"count beyond the bytes", overCount},
		{"weight varint cut short", cutVarint},
		{"point right of its shard", payload(2, []rangetree.Weighted{pt(1, 1, 1), pt(8, 0, 1)}, nil)},
		{"point left of its shard", payload(2, nil, []rangetree.Weighted{pt(7, 9, 1), pt(9, 0, 1)})},
		{"trailing bytes", append(payload(2, good, nil), 0)},
		{"missing shard run", payload(2, good)},
		{"shard count mismatch", payload(3, good, nil, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := decodePointCheckpoint(proto, []float64{8}, ptCkptFile(tc.payload)); !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("decode = %v, want ErrCorruptFile", err)
			}
		})
	}
}

// pointWorkload runs a fixed mix of inserts and deletes through a
// 2-shard durable point store on fs and returns the live points.
func pointWorkload(t *testing.T, fs FS) (*DurablePointStore, map[rangetree.Point]int64) {
	t.Helper()
	d, err := OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: fs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := map[rangetree.Point]int64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		ops := make([]PointOp, 8)
		for j := range ops {
			p := rangetree.Point{X: float64(rng.Intn(16)), Y: float64(rng.Intn(16))}
			if rng.Intn(4) == 0 {
				ops[j] = DeletePoint(p)
				delete(oracle, p)
			} else {
				w := int64(1 + rng.Intn(5))
				ops[j] = InsertPoint(p, w)
				oracle[p] += w
			}
		}
		if _, err := d.Apply(ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	return d, oracle
}

// TestDurablePointCheckpointFlushCap checks that a point checkpoint
// stores the point set, not the ladder that holds it: the same writes,
// checkpointed once under a flush capacity of 4 and once under the
// default, leave differently shaped ladders but byte-identical files.
func TestDurablePointCheckpointFlushCap(t *testing.T) {
	run := func(flushCap int) (file []byte, shape []int64) {
		old := dynamic.SetFlushCap(flushCap)
		defer dynamic.SetFlushCap(old)
		fs := NewMemFS()
		d, _ := pointWorkload(t, fs)
		defer d.Close()
		v, err := d.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		cs, err := d.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if file, err = fs.ReadFile(ckptName(cs.Index)); err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		return file, v.Shard(0).LevelRecordCounts()
	}
	small, smallShape := run(4)
	def, defShape := run(dynamic.BufCap)
	if slices.Equal(smallShape, defShape) {
		t.Fatalf("both flush capacities left ladder shape %v; the test needs different ones", defShape)
	}
	if !bytes.Equal(small, def) {
		t.Fatalf("checkpoint files differ: %d bytes under flush cap 4, %d under the default", len(small), len(def))
	}
}

// TestDurablePointReopenAcrossFlushCap compacts a point store under a
// flush capacity of 4 and reopens it under the default. The compaction
// dropped the WAL, so the checkpoint is the only copy of the points,
// and the reopen must take it whole: every point, nothing quarantined.
func TestDurablePointReopenAcrossFlushCap(t *testing.T) {
	fs := NewMemFS()
	old := dynamic.SetFlushCap(4)
	restore := sync.OnceFunc(func() { dynamic.SetFlushCap(old) })
	defer restore()
	d, oracle := pointWorkload(t, fs)
	if _, err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	restore()

	d2, err := OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: NewMemFSFrom(fs.DurableState())})
	if err != nil {
		t.Fatalf("reopen under the default flush cap: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery(); len(rec.Quarantined) != 0 || rec.WALBatches != 0 || rec.ChainRecords != len(oracle) {
		t.Fatalf("recovery %+v, want %d points from the checkpoint alone", rec, len(oracle))
	}
	v, _ := d2.Snapshot()
	got := map[rangetree.Point]int64{}
	for _, p := range v.ReportAll(everything) {
		got[p.Point] = p.W
	}
	if !maps.Equal(got, oracle) {
		t.Fatalf("reopened store holds %d points, want %d", len(got), len(oracle))
	}
	for i := 0; i < v.NumShards(); i++ {
		if err := v.Shard(i).Validate(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// TestDurableWALDebrisAndDamage tells crash debris from damage at the
// end of the newest WAL generation, on both flavours. Ten acknowledged
// batches are reopened four ways. A flipped payload byte in the fifth
// frame is damage, and so is a flipped high byte of its length, which
// makes the frame claim more bytes than the file holds while complete
// frames follow it: the open fails with ErrCorruptFile naming the file
// and the frame's offset, and leaves the bytes as they were. A file cut
// inside its last frame is a torn write: the nine batches before it
// recover and the tail is trimmed. Zeros after the last frame are
// unwritten space: all ten batches recover.
func TestDurableWALDebrisAndDamage(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 2, DurableConfig{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := uint64(0); i < 10; i++ {
				if _, err := d.put(i, int64(i)+1); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			state := fs.DurableState()
			wal := state[walName(0)]
			var frames []int // offset of each frame
			for off := 0; off < len(wal); off += 8 + int(binary.LittleEndian.Uint32(wal[off:])) {
				frames = append(frames, off)
			}
			if len(frames) != 10 {
				t.Fatalf("%s holds %d frames, want 10", walName(0), len(frames))
			}
			reopen := func(data []byte) (*durableHandle, *MemFS, error) {
				files := maps.Clone(state)
				files[walName(0)] = data
				fs2 := NewMemFSFrom(files)
				d2, err := fl.open(fs2, 2, DurableConfig{})
				return d2, fs2, err
			}
			// check reopens data and wants entries 0..n-1 and a WAL file
			// trimmed to the end of the last of them.
			check := func(data []byte, n int) {
				t.Helper()
				d2, fs2, err := reopen(data)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer d2.Close()
				if _, got := d2.contents(); len(got) != n || (n > 0 && got[uint64(n-1)] != int64(n)) {
					t.Fatalf("reopen recovered %v, want entries 0..%d", got, n-1)
				}
				if rec := d2.Recovery(); len(rec.Quarantined) != 0 || rec.Repaired {
					t.Fatalf("recovery %+v reports damage in crash debris", rec)
				}
				end := len(wal)
				if n < len(frames) {
					end = frames[n]
				}
				if got, _ := fs2.ReadFile(walName(0)); !bytes.Equal(got, wal[:end]) {
					t.Fatalf("%s is %d bytes after the reopen, want its %d-byte valid prefix", walName(0), len(got), end)
				}
			}

			for _, dc := range []struct {
				name string
				at   int // the byte of the fifth frame that is flipped
			}{
				{"flip", frames[5] - 1},   // its last payload byte
				{"length", frames[4] + 3}, // the high byte of its length
			} {
				t.Run(dc.name, func(t *testing.T) {
					bad := bytes.Clone(wal)
					bad[dc.at] ^= 0x01
					d2, fs2, err := reopen(bad)
					if err == nil {
						_, got := d2.contents()
						d2.Close()
						t.Fatalf("reopen succeeded with %d of 10 entries", len(got))
					}
					if !errors.Is(err, ErrCorruptFile) || !strings.Contains(err.Error(), walName(0)) ||
						!strings.Contains(err.Error(), fmt.Sprintf("byte %d", frames[4])) {
						t.Fatalf("reopen = %v, want ErrCorruptFile naming %s at byte %d", err, walName(0), frames[4])
					}
					if got, _ := fs2.ReadFile(walName(0)); !bytes.Equal(got, bad) {
						t.Fatal("the failed reopen changed the damaged file")
					}
				})
			}
			t.Run("torn", func(t *testing.T) { check(wal[:len(wal)-3], 9) })
			t.Run("zeroed", func(t *testing.T) {
				zeroed := append(bytes.Clone(wal), make([]byte, 64)...)
				if rep, err := VerifyFiles(NewMemFSFrom(map[string][]byte{walName(0): zeroed})); err != nil || len(rep.Corrupt) != 0 {
					t.Fatalf("VerifyFiles on a zero-filled newest tail: %+v, %v", rep, err)
				}
				check(zeroed, 10)
			})
		})
	}
}

// walFaultFS wraps a MemFS, counts the files Append opened that are
// still open, and fails every Write while failing is set.
type walFaultFS struct {
	*MemFS
	failing atomic.Bool
	open    atomic.Int64
}

var errWALWrite = errors.New("injected WAL write error")

func (w *walFaultFS) Append(name string) (File, error) {
	f, err := w.MemFS.Append(name)
	if err != nil {
		return nil, err
	}
	w.open.Add(1)
	return &walFaultFile{File: f, fs: w}, nil
}

// walFaultFile is one handle Append opened.
type walFaultFile struct {
	File
	fs     *walFaultFS
	closed bool
}

func (f *walFaultFile) Write(p []byte) (int, error) {
	if f.fs.failing.Load() {
		return 0, errWALWrite
	}
	return f.File.Write(p)
}

func (f *walFaultFile) Close() error {
	if !f.closed {
		f.closed = true
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

// TestDurableWALClosesAfterWriteError fails a WAL write and checks that
// Close still closes the open generation file and returns the write
// error: a store whose log failed must not keep a file open after Close.
func TestDurableWALClosesAfterWriteError(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := &walFaultFS{MemFS: NewMemFS()}
			d, err := fl.open(fs, 2, DurableConfig{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if _, err := d.put(1, 10); err != nil {
				t.Fatalf("put: %v", err)
			}
			if n := fs.open.Load(); n != 1 {
				t.Fatalf("%d WAL files open after the first put, want 1", n)
			}
			fs.failing.Store(true)
			if _, err := d.put(2, 20); !errors.Is(err, errWALWrite) {
				t.Fatalf("put during failing writes = %v, want the injected error", err)
			}
			if err := d.Close(); !errors.Is(err, errWALWrite) {
				t.Fatalf("Close = %v, want the injected error", err)
			}
			if n := fs.open.Load(); n != 0 {
				t.Fatalf("%d WAL files still open after Close", n)
			}
		})
	}
}
