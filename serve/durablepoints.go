package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

// dynLevelState is one serialized ladder rung (see rangetree.State).
type dynLevelState = dynamic.LevelState[rangetree.Point, int64]

// Durable PointStore: the durable core of durable.go — the same WAL,
// recovery, retention, and scrub/repair lifecycle as DurableStore — with
// the second checkpoint format, pointFormat: each file serializes every
// shard's full ladder state (rangetree.State) instead of an incremental
// record chain. The ladder's level structures are nested-augmentation
// composites that are rebuilt by the parallel bulk Build on recovery,
// preserving the exact rung boundaries (and so the amortization state
// of the logarithmic method). Every point checkpoint is therefore a
// standalone base: recovery decodes only the newest intact one
// (quarantining corrupt ones and falling back to an older checkpoint
// plus a longer WAL replay), a checkpoint drops the files it supersedes
// minus the KeepGenerations fallback window, and the compaction
// policies never fire (a base has nothing to compact).
//
// Checkpoint file format:
//
//	"PAMPTCK2" | uvarint seq | uvarint shards | shards × ladder state |
//	32-byte sha256(everything before) | u32le crc32(everything before)
//
// with each ladder state encoded as
//
//	uvarint flushCap | run(bufAdds) | run(bufDels) |
//	uvarint numLevels | numLevels × (run(adds) | run(dels))
//	run: uvarint count | count × (f64le x | f64le y | varint w)
//
// The sha256 is the file's content digest — the point-store analogue of
// the chain store's Merkle root: recomputed and verified on decode and
// by the scrubber, reported in CheckpointStats.Digest as the
// cross-replica comparison and external tamper-evidence anchor.

const ptCkptMagic = "PAMPTCK2"

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

func appendPointRun(buf []byte, run []pam.KV[rangetree.Point, int64]) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(run)))
	for _, e := range run {
		buf = pam.AppendFloat64(buf, e.Key.X)
		buf = pam.AppendFloat64(buf, e.Key.Y)
		buf = binary.AppendVarint(buf, e.Val)
	}
	return buf
}

func pointRunAt(data []byte) ([]pam.KV[rangetree.Point, int64], int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, ErrCorruptFile
	}
	used := n
	// Every entry is at least 17 bytes; a larger count is corruption,
	// not an allocation request.
	if count > uint64(len(data)-used)/17 {
		return nil, 0, ErrCorruptFile
	}
	run := make([]pam.KV[rangetree.Point, int64], count)
	for i := range run {
		x, _, err := pam.Float64At(data[used:])
		if err != nil {
			return nil, 0, err
		}
		y, _, err := pam.Float64At(data[used+8:])
		if err != nil {
			return nil, 0, err
		}
		w, n, err := pam.VarintAt(data[used+16:])
		if err != nil {
			return nil, 0, err
		}
		run[i] = pam.KV[rangetree.Point, int64]{Key: rangetree.Point{X: x, Y: y}, Val: w}
		used += 16 + n
	}
	return run, used, nil
}

func appendLadderState(buf []byte, st rangetree.State) []byte {
	buf = binary.AppendUvarint(buf, uint64(st.FlushCap))
	buf = appendPointRun(buf, st.BufAdds)
	buf = appendPointRun(buf, st.BufDels)
	buf = binary.AppendUvarint(buf, uint64(len(st.Levels)))
	for _, lv := range st.Levels {
		buf = appendPointRun(buf, lv.Adds)
		buf = appendPointRun(buf, lv.Dels)
	}
	return buf
}

func ladderStateAt(data []byte) (rangetree.State, int, error) {
	var st rangetree.State
	cap64, n := binary.Uvarint(data)
	if n <= 0 || cap64 > 1<<31 {
		return st, 0, ErrCorruptFile
	}
	st.FlushCap = int64(cap64)
	used := n
	var err error
	if st.BufAdds, n, err = pointRunAt(data[used:]); err != nil {
		return st, 0, err
	}
	used += n
	if st.BufDels, n, err = pointRunAt(data[used:]); err != nil {
		return st, 0, err
	}
	used += n
	numLevels, n := binary.Uvarint(data[used:])
	if n <= 0 || numLevels > uint64(len(data)-used) {
		return st, 0, ErrCorruptFile
	}
	used += n
	st.Levels = make([]dynLevelState, numLevels)
	for i := range st.Levels {
		if st.Levels[i].Adds, n, err = pointRunAt(data[used:]); err != nil {
			return st, 0, err
		}
		used += n
		if st.Levels[i].Dels, n, err = pointRunAt(data[used:]); err != nil {
			return st, 0, err
		}
		used += n
	}
	return st, used, nil
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

// ladderRecords counts the ladder records one shard state serializes.
func ladderRecords(st rangetree.State) int {
	n := len(st.BufAdds) + len(st.BufDels)
	for _, lv := range st.Levels {
		n += len(lv.Adds) + len(lv.Dels)
	}
	return n
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

// decodePointCheckpoint decodes one standalone point checkpoint file,
// verifying the CRC and the whole-file digest, and returns its sequence
// number, shard trees, and ladder record count.
func decodePointCheckpoint(proto rangetree.Tree, shards int, data []byte) (uint64, []rangetree.Tree, int, error) {
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
	if nShards != uint64(shards) {
		return 0, nil, 0, fmt.Errorf("%w: checkpoint has %d shards, store has %d", ErrCorruptFile, nShards, shards)
	}
	states := make([]rangetree.Tree, shards)
	records := 0
	for i := range states {
		st, used, err := ladderStateAt(p)
		if err != nil {
			return 0, nil, 0, err
		}
		p = p[used:]
		// Rehydrate rebuilds per level and validates the ladder
		// invariants, so a crafted file cannot produce a broken tree.
		t, err := proto.Rehydrate(st)
		if err != nil {
			return 0, nil, 0, err
		}
		states[i] = t
		records += ladderRecords(st)
	}
	if len(p) != 0 {
		return 0, nil, 0, ErrCorruptFile
	}
	return seq, states, records, nil
}

// pointFormat is DurablePointStore's ckptFormat: standalone PAMPTCK2
// files, each its own base, so it keeps no chain state.
type pointFormat struct {
	opts   pam.Options
	shards int
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
		st := t.Dehydrate()
		records += ladderRecords(st)
		file = appendLadderState(file, st)
	}
	digest := sha256.Sum256(file)
	file = append(file, digest[:]...)
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(file))
	cs := CheckpointStats{Records: records, Digest: digest, Base: true, ChainRecords: records, LiveRecords: records}
	return file, cs, func() {}
}

func (f pointFormat) decode() chainDecoder[rangetree.Tree] {
	c := &pointChain{proto: rangetree.New(f.opts), states: make([]rangetree.Tree, f.shards)}
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
	states  []rangetree.Tree
	records int
}

func (c *pointChain) next(data []byte) (uint64, error) {
	seq, states, records, err := decodePointCheckpoint(c.proto, len(c.states), data)
	if err == nil {
		c.states, c.records = states, records
	}
	return seq, err
}

func (c *pointChain) resume() ([]rangetree.Tree, int, error) { return c.states, c.records, nil }

// DurablePointStore is a PointStore made durable by the engine
// DurableStore uses — the WAL and full ladder checkpoints. The same
// opts and splits must be passed at every reopen. See DurableStore for
// the acknowledgment and recovery guarantees — they are identical,
// including quarantine, fallback, and scrub/repair. Apply, ApplyAsync,
// Insert, InsertAsync, Delete, DeleteAsync, Snapshot, ReaderView,
// Stats, Splits, PendingCarries, and NumShards are the embedded
// PointStore's; through the durable
// engine a future resolves, and Apply returns nil, only after the
// batch's WAL record is fsynced.
type DurablePointStore struct {
	*pointStore
	*durable[PointOp, rangetree.Tree]
}

// OpenDurablePointStore opens (or creates) a durable point store on
// cfg.FS, recovering the newest intact checkpoint plus the WAL suffix.
// A corrupt checkpoint is quarantined; recovery falls back to an older
// one (within DurableConfig.KeepGenerations) and refuses to open if the
// surviving files cannot cover the acknowledged sequence prefix.
// CompactEvery and CompactDeadRatio are ignored: point checkpoints are
// already full rewrites, so every checkpoint bounds recovery the way a
// compaction does.
func OpenDurablePointStore(opts pam.Options, splits []float64, cfg DurableConfig) (*DurablePointStore, error) {
	cf := pointFormat{opts: opts, shards: len(splits) + 1}
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

// Close stops the scrubber, the shard goroutines, and the carry
// workers, and flushes the WAL. In-flight futures resolve (durably
// committed) before Close returns; subsequent writes return ErrClosed.
func (d *DurablePointStore) Close() error { return d.close(d.pointStore.Close) }
