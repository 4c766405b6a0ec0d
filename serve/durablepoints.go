package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/pam"
	"repro/rangetree"
)

// Durable PointStore: the durable core of durable.go — the same WAL,
// recovery, retention, and scrub/repair lifecycle as DurableStore — with
// the second checkpoint format, pointFormat: each file stores every
// shard's live points, one sorted run per shard, instead of an
// incremental record chain. A range tree is a function of its point
// set, so recovery rebuilds each shard with the parallel bulk
// rangetree.Tree.Build into a condensed ladder, as Build and Merge
// return it. The ladder's shape is not stored: after a reopen,
// LevelRecordCounts and Pending differ from their values before it,
// while points, weights and every query answer are equal. Every point
// checkpoint is therefore a standalone base: recovery decodes only the
// newest intact one (quarantining corrupt ones and falling back to an
// older checkpoint plus a longer WAL replay), a checkpoint drops the
// files it supersedes minus the KeepGenerations fallback window, and
// CompactEvery never fires (a base has nothing to compact).
//
// Checkpoint file format:
//
//	"PAMPTCK3" | uvarint seq | uvarint shards | shards × run |
//	32-byte sha256(everything before) | u32le crc32(everything before)
//	run: uvarint count | count × (f64le x | f64le y | varint w)
//
// The points of a run are strictly ascending in the tree's (x, y)
// order, no coordinate is NaN, and every point lies in its shard's x
// range; the decoder rejects a file that breaks any of these rules. The sha256 is the file's content digest — the
// point-store analogue of the chain store's Merkle root: recomputed and
// verified on decode and by the scrubber, reported in
// CheckpointStats.Digest as the cross-replica comparison and external
// tamper-evidence anchor.

const ptCkptMagic = "PAMPTCK3"

// pointOpEnc encodes one PointOp for WAL records.
var pointOpEnc = opCodec[PointOp]{
	append: func(buf []byte, op PointOp) []byte {
		buf = append(buf, byte(op.Kind))
		buf = pam.AppendFloat64(buf, op.P.X)
		buf = pam.AppendFloat64(buf, op.P.Y)
		if op.Kind == OpPut {
			buf = binary.AppendVarint(buf, op.W)
		}
		return buf
	},
	at: func(data []byte) (PointOp, int, error) {
		var op PointOp
		if len(data) < 17 {
			return op, 0, ErrCorruptFile
		}
		op.Kind = OpKind(data[0])
		if op.Kind != OpPut && op.Kind != OpDelete {
			return op, 0, ErrCorruptFile
		}
		x, _, err := pam.Float64At(data[1:])
		if err != nil {
			return op, 0, err
		}
		y, _, err := pam.Float64At(data[9:])
		if err != nil {
			return op, 0, err
		}
		op.P = rangetree.Point{X: x, Y: y}
		used := 17
		if op.Kind == OpPut {
			w, n, err := pam.VarintAt(data[17:])
			if err != nil {
				return op, 0, err
			}
			op.W = w
			used += n
		}
		return op, used, nil
	},
}

func appendPointRun(buf []byte, run []rangetree.Weighted) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(run)))
	for _, p := range run {
		buf = pam.AppendFloat64(buf, p.X)
		buf = pam.AppendFloat64(buf, p.Y)
		buf = binary.AppendVarint(buf, p.W)
	}
	return buf
}

// pointRunAt decodes one run and checks that the encoder could have
// written it: no NaN coordinate, and points strictly ascending by
// (x, y), so none repeats.
func pointRunAt(data []byte) ([]rangetree.Weighted, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, ErrCorruptFile
	}
	used := n
	// Every point is at least 17 bytes; a larger count is corruption,
	// not an allocation request.
	if count > uint64(len(data)-used)/17 {
		return nil, 0, ErrCorruptFile
	}
	run := make([]rangetree.Weighted, count)
	for i := range run {
		if len(data)-used < 17 {
			return nil, 0, ErrCorruptFile
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[used:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[used+8:]))
		w, n := binary.Varint(data[used+16:])
		if n <= 0 || math.IsNaN(x) || math.IsNaN(y) {
			return nil, 0, ErrCorruptFile
		}
		if i > 0 {
			if prev := run[i-1]; !(prev.X < x || prev.X == x && prev.Y < y) {
				return nil, 0, ErrCorruptFile
			}
		}
		run[i] = rangetree.Weighted{Point: rangetree.Point{X: x, Y: y}, W: w}
		used += 16 + n
	}
	return run, used, nil
}

// ptCkptSeq parses just a point checkpoint's magic and sequence number,
// CRC unchecked — recovery's bound on the highest sequence the
// directory ever covered.
func ptCkptSeq(data []byte) (uint64, bool) {
	if len(data) < len(ptCkptMagic) || string(data[:len(ptCkptMagic)]) != ptCkptMagic {
		return 0, false
	}
	seq, n := binary.Uvarint(data[len(ptCkptMagic):])
	return seq, n > 0
}

// ptCkptBody is the codec-independent integrity check of one point
// checkpoint — magic, trailing CRC, and the whole-file digest — and
// returns the payload between the magic and the digest.
func ptCkptBody(data []byte) ([]byte, error) {
	if len(data) < len(ptCkptMagic)+sha256.Size+4 || string(data[:len(ptCkptMagic)]) != ptCkptMagic {
		return nil, ErrCorruptFile
	}
	body := data[: len(data)-4 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, ErrCorruptFile
	}
	payload := body[:len(body)-sha256.Size]
	if sha256.Sum256(payload) != [sha256.Size]byte(body[len(payload):]) {
		return nil, ErrDigestMismatch
	}
	return payload[len(ptCkptMagic):], nil
}

// decodePointCheckpoint decodes one standalone point checkpoint file of
// a store partitioned at splits, verifying the CRC and the whole-file
// digest, and returns its sequence number, the shard trees rebuilt from
// their points, and the point count.
func decodePointCheckpoint(proto rangetree.Tree, splits []float64, data []byte) (uint64, []rangetree.Tree, int, error) {
	p, err := ptCkptBody(data)
	if err != nil {
		return 0, nil, 0, err
	}
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, 0, ErrCorruptFile
	}
	p = p[n:]
	nShards, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, 0, ErrCorruptFile
	}
	p = p[n:]
	shards := len(splits) + 1
	if nShards != uint64(shards) {
		return 0, nil, 0, fmt.Errorf("%w: checkpoint has %d shards, store has %d", ErrCorruptFile, nShards, shards)
	}
	route := pointRouter(splits)
	runs := make([][]rangetree.Weighted, shards)
	for i := range runs {
		run, used, err := pointRunAt(p)
		if err != nil {
			return 0, nil, 0, err
		}
		// A run ascends by x, so its two ends bound its x range.
		if len(run) > 0 && (route(PointOp{P: run[0].Point}) != i || route(PointOp{P: run[len(run)-1].Point}) != i) {
			return 0, nil, 0, ErrCorruptFile
		}
		runs[i], p = run, p[used:]
	}
	if len(p) != 0 {
		return 0, nil, 0, ErrCorruptFile
	}
	trees := make([]rangetree.Tree, shards)
	records := 0
	for i, run := range runs {
		trees[i] = proto.Build(run)
		records += len(run)
	}
	return seq, trees, records, nil
}

// pointFormat is DurablePointStore's ckptFormat: standalone PAMPTCK3
// files, each its own base, so it keeps no chain state.
type pointFormat struct {
	opts   pam.Options
	splits []float64
}

func (pointFormat) header(data []byte) (uint64, bool, bool) {
	seq, ok := ptCkptSeq(data)
	return seq, true, ok
}

func (pointFormat) encode(states []rangetree.Tree, seq uint64, _ bool) ([]byte, CheckpointStats, func()) {
	file := append([]byte(nil), ptCkptMagic...)
	file = binary.AppendUvarint(file, seq)
	file = binary.AppendUvarint(file, uint64(len(states)))
	records := 0
	for _, t := range states {
		pts := t.Points()
		records += len(pts)
		file = appendPointRun(file, pts)
	}
	digest := sha256.Sum256(file)
	file = append(file, digest[:]...)
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(file))
	cs := CheckpointStats{Records: records, Digest: digest, Base: true, ChainRecords: records}
	return file, cs, func() {}
}

func (f pointFormat) decode() chainDecoder[rangetree.Tree] {
	c := &pointChain{proto: rangetree.New(f.opts), splits: f.splits, states: make([]rangetree.Tree, len(f.splits)+1)}
	for i := range c.states {
		c.states[i] = rangetree.New(f.opts)
	}
	return c
}

func (pointFormat) check() func([]byte) error {
	return func(data []byte) error {
		_, err := ptCkptBody(data)
		return err
	}
}

// pointChain decodes a point checkpoint chain, which is a single base.
type pointChain struct {
	proto   rangetree.Tree
	splits  []float64
	states  []rangetree.Tree
	records int
}

func (c *pointChain) next(data []byte) (uint64, error) {
	seq, states, records, err := decodePointCheckpoint(c.proto, c.splits, data)
	if err == nil {
		c.states, c.records = states, records
	}
	return seq, err
}

func (c *pointChain) resume() ([]rangetree.Tree, int, error) { return c.states, c.records, nil }

// DurablePointStore is a PointStore made durable by the engine
// DurableStore uses — the WAL and checkpoints of every shard's live
// points. The same opts and splits must be passed at every reopen. See
// DurableStore for the acknowledgment and recovery guarantees — they
// are identical, including quarantine, fallback, and scrub/repair.
// Apply, ApplyAsync, Insert, InsertAsync, Delete, DeleteAsync,
// Snapshot, ReaderView, Stats, Splits, and NumShards are the embedded
// PointStore's; through the durable engine a future resolves, and
// Apply returns nil, only after the batch's WAL record is fsynced.
type DurablePointStore struct {
	*pointStore
	*durable[PointOp, rangetree.Tree]
}

// OpenDurablePointStore opens (or creates) a durable point store on
// cfg.FS, recovering the newest intact checkpoint plus the WAL suffix.
// A corrupt checkpoint is quarantined; recovery falls back to an older
// one (within DurableConfig.KeepGenerations) and refuses to open if the
// surviving files cannot cover the acknowledged sequence prefix.
// CompactEvery is ignored: point checkpoints are already full rewrites,
// so every checkpoint bounds recovery the way a compaction does.
func OpenDurablePointStore(opts pam.Options, splits []float64, cfg DurableConfig) (*DurablePointStore, error) {
	cf := pointFormat{opts: opts, splits: splits}
	d, states, next, err := openDurable(cfg, pointOpEnc, cf, pointRouter(splits), applyPointOps)
	if err != nil {
		return nil, err
	}
	s := newPointStoreAt(opts, splits, states, next, d.hooks(), cfg.Tuning)
	return &DurablePointStore{pointStore: s, durable: d.start(s.eng, cfg)}, nil
}

// Rebalance does nothing and returns (false, nil), or ErrClosed after
// Close: a durable store's routing is part of its on-disk schema and
// never changes.
func (d *DurablePointStore) Rebalance() (bool, error) { return false, d.pointStore.eng.closedErr() }

// Close stops the scrubber, the shard goroutines, the carry workers,
// and the checkpointer, and flushes the WAL. In-flight futures resolve
// (durably committed) before Close returns; subsequent writes return
// ErrClosed.
func (d *DurablePointStore) Close() error { return d.close(d.pointStore.Close) }
