package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pam"
)

// Durable serving: one durability engine — the durable core below,
// embedded by both DurableStore and DurablePointStore next to their
// store — that glues the sequencer-granularity WAL (wal.go) and a
// checkpoint format by a recovery protocol restoring exactly an
// acknowledged-closed prefix of the write sequence, with compaction
// (bounded recovery), root digests (tamper evidence), and a scrub/repair
// pipeline (self-healing, scrub.go) on top. Each lifecycle step is
// implemented once; a flavour plugs in only its WAL op codec and its
// checkpoint format (ckptFormat). There are two formats: DurableStore
// writes the incremental PAMCKPT2 record chain described below, and
// DurablePointStore writes standalone PAMPTCK3 files of every shard's
// live points, each file its own base (durablepoints.go).
//
// On-disk layout (one flat FS namespace per store):
//
//	ckpt-%06d   checkpoint files — a chain: a base holding the whole
//	            state, then increments on top of it
//	wal-%06d    WAL generation g: the batches sequenced between
//	            checkpoint g and checkpoint g+1
//	*.tmp       scratch for atomic publication (write + sync + rename);
//	            a crash leaves at worst a stale tmp, never a torn
//	            published file — recovery sweeps them
//	*.quarantine  corrupt files set aside (never deleted) by recovery or
//	              the scrubber; ignored by every other code path
//
// Checkpoint file format (DurableStore):
//
//	"PAMCKPT2" | uvarint seq | uvarint shards | uvarint firstID |
//	uvarint numRecords | records | shards × (uvarint rootID |
//	32-byte root digest) | u32le crc32(everything before)
//
// The records are the structure-sharing delta encoding of
// internal/core: each file carries only the tree records created since
// the previous checkpoint (firstID states where the chain must resume;
// a mismatch means a missing or reordered file). A file whose firstID
// is 1 is a base: it starts a fresh chain and everything before it is
// superseded — Compact writes bases. Each shard root carries its Merkle
// digest (sha256, chained through children's digests by internal/core);
// decode recomputes every digest bottom-up and rejects the file on
// mismatch, so any bit flip — in a key, value, aux, or child reference
// — is a detected error, not silent corruption, even past the CRC.
//
// Recovery decodes the newest intact chain (newest base onward), takes
// the last file's shard states, replays the WAL generations from the
// last checkpoint on top, and resumes the chain (a DurableStore reseeds
// its encoder's record set from the decoded table, so checkpoints stay
// incremental across restarts). A corrupt chain file is quarantined and
// recovery falls back to the prefix before it (or an older base) plus
// WAL replay; the gapless-sequence check and the highest-known-sequence
// bound guarantee the fallback never silently loses an acknowledged
// batch — if the surviving files cannot cover the sequence, open fails
// loudly.
//
// Crash-safety invariants:
//
//   - Apply acknowledges only after the batch's WAL record is fsynced;
//     WAL order equals sequence order (the engine's logAppend hook runs
//     under the sequencer lock), so the durable batches always form a
//     gapless prefix extending past every acknowledged batch.
//   - A checkpoint (and a compaction) is published by rename after a
//     full sync; a crash mid-publish leaves the previous chain + WAL
//     intact. Superseded checkpoint files and WAL generations are
//     deleted only after the new file is published, so a crash at any
//     point leaves either the old chain whole or the new base
//     recoverable.
//   - WAL generations are flushed strictly in order, so only the newest
//     generation can end in crash debris (a torn frame, or unwritten
//     zeroed space), and the debris holds no acknowledged batch:
//     recovery trims it. Any other bad frame is damage, and the open
//     fails with ErrCorruptFile instead of dropping what follows it.

// Errors recovery and the decoders return. All file parsing is
// defensive: corrupt bytes yield an error, never a panic.
var (
	// ErrCorruptFile reports a checkpoint or WAL file whose contents
	// fail the checksum or framing checks.
	ErrCorruptFile = errors.New("serve: corrupt durable file")
	// ErrBrokenChain reports a checkpoint chain with a missing or
	// out-of-order incremental file (firstID mismatch).
	ErrBrokenChain = errors.New("serve: broken checkpoint chain")
	// ErrDigestMismatch reports a checkpoint whose recomputed Merkle
	// root digest differs from the stored one: the records decoded but
	// their content is not what was written — tampering or corruption
	// that slipped past the CRC.
	ErrDigestMismatch = errors.New("serve: checkpoint root digest mismatch")
	// ErrUnrecoverable reports that the surviving files cannot cover the
	// acknowledged sequence prefix: corrupt files were quarantined and
	// neither an older checkpoint nor the WAL reaches the highest
	// sequence number the directory is known to have held. Nothing is
	// lost silently; the quarantined files remain for inspection.
	ErrUnrecoverable = errors.New("serve: recovery cannot cover the acknowledged prefix")
)

const (
	ckptMagic        = "PAMCKPT2"
	ckptTmpName      = "ckpt.tmp"
	walTmpName       = "wal.tmp"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantine"
)

func ckptName(idx int) string { return fmt.Sprintf("ckpt-%06d", idx) }

// DurableConfig configures the durability layer of a store.
type DurableConfig struct {
	// FS is the filesystem holding this store's files (required). Use
	// OSFS{Dir: ...} for a real directory, MemFS for fault injection.
	FS FS
	// CheckpointEvery, when positive, takes an automatic checkpoint
	// after every that-many acknowledged batches. Automatic checkpoints
	// run on a checkpointer goroutine of their own, so writes keep
	// resolving while one is encoded and written; a request made while
	// one is already pending merges into it, so at most one is pending
	// and one running. A failed automatic checkpoint does not fail any
	// write (the batches are already durable in the WAL); the error is
	// surfaced by Err.
	CheckpointEvery int
	// CompactEvery, when positive, compacts the chain (rewrites the
	// live state as a fresh base checkpoint and drops the superseded
	// tail) after every that-many automatic checkpoints since the last
	// base. The compaction runs on the checkpointer goroutine, right
	// after the automatic checkpoint that makes it due. It bounds both
	// the chain length and recovery time.
	CompactEvery int
	// KeepGenerations is how many WAL generations at or below the newest
	// checkpoint are retained (minimum and default 1) instead of being
	// dropped as superseded. The retained generations let recovery fall
	// back past that many corrupt chain-tail files without losing
	// acknowledged batches. Compact ignores it: a base supersedes
	// everything before it.
	KeepGenerations int
	// ScrubEvery, when positive, starts a background scrubber that
	// re-reads and verifies every sealed durable file (checkpoint CRCs,
	// Merkle root digests, WAL framing) at that interval, quarantines
	// corrupt files, and repairs by compacting the live state into a
	// fresh base. Results surface through ScrubStats and Err.
	ScrubEvery time.Duration
	// Tuning configures the async write pipeline of the underlying
	// store (mailbox bounds, backpressure, flush size, carries).
	Tuning Tuning
}

// CheckpointStats reports what one checkpoint (or compaction) wrote.
type CheckpointStats struct {
	// Seq is the checkpoint's position in the write sequence: it covers
	// exactly the batches sequenced below Seq.
	Seq uint64
	// Index is the checkpoint file's chain index.
	Index int
	// Records is the number of new tree records written — the
	// incremental delta. After k updates to an n-entry store this is
	// O(k · polylog n), not O(n): blocks shared with the previous
	// checkpoint are referenced, not rewritten. For a compaction it is
	// the full live record count. For a point store, whose every
	// checkpoint is a base, it is the number of points written.
	Records int
	// Bytes is the checkpoint file's size.
	Bytes int
	// Digest is the checkpoint's root digest — the hash of the per-shard
	// Merkle roots. Two stores (replicas, or the same store before and
	// after recovery) hold identical content iff their digests match,
	// making it the cheap cross-replica comparison and external
	// tamper-evidence anchor (record it somewhere the disk can't touch).
	Digest [sha256.Size]byte
	// Base reports whether this file starts a fresh chain (firstID 1):
	// true for Compact, false for incremental checkpoints (except the
	// first checkpoint of an empty store, which is naturally a base).
	Base bool
	// ChainRecords is the total record count of the on-disk chain after
	// this checkpoint — what recovery will decode.
	ChainRecords int
}

// RecoveryStats reports what OpenDurableStore (or OpenDurablePointStore)
// read and repaired to reach the recovered state.
type RecoveryStats struct {
	// ChainFiles is the number of checkpoint files decoded.
	ChainFiles int
	// ChainRecords is the number of tree records decoded from the chain.
	// After a compaction this is O(live records) regardless of how many
	// updates the store ever processed — the bounded-recovery guarantee.
	// For a point store it is the number of points decoded.
	ChainRecords int
	// WALBatches is the number of batches replayed from the log.
	WALBatches int
	// Quarantined lists files found corrupt and renamed aside (their
	// new names, ending in ".quarantine").
	Quarantined []string
	// Repaired reports that recovery quarantined corrupt files and
	// still reached a state covering every acknowledged batch, via an
	// older checkpoint and/or WAL replay.
	Repaired bool
}

// ckptFormat is the checkpoint half of a durable flavour: how shard
// states of type T are written to ckpt-* files and read back. The core
// calls encode, and runs its commit, under the checkpoint lock.
type ckptFormat[T any] interface {
	// header parses a file's sequence number and whether the file is a
	// base, without checking its CRC.
	header(data []byte) (seq uint64, base, ok bool)
	// encode builds the checkpoint of states at seq — a base when fresh
	// — and its stats (the caller fills Seq, Index, and Bytes). commit
	// makes the file the chain's new tail; the caller runs it only once
	// the file is published, so a failed attempt leaves the chain as it
	// was.
	encode(states []T, seq uint64, fresh bool) (file []byte, cs CheckpointStats, commit func())
	// decode starts decoding one chain at its base (recovery).
	decode() chainDecoder[T]
	// check starts verifying one chain at its base (the scrub pass): the
	// returned function is fed the chain's files in order.
	check() func(data []byte) error
}

// chainDecoder decodes one checkpoint chain, fed its files in order.
type chainDecoder[T any] interface {
	// next decodes the chain's next file and returns its sequence number.
	next(data []byte) (uint64, error)
	// resume returns the shard states as of the last decoded file (empty
	// states when none was) and the records decoded, and makes this
	// chain the one the format's next checkpoint continues.
	resume() (states []T, records int, err error)
}

// durable is the durability engine both durable stores embed: the FS,
// WAL, checkpoint lock and policy, checkpointer, scrubber, sticky
// background error, and recovery report of one store, over the
// flavour's op type O and shard-state type T. All its methods are safe
// for concurrent use.
type durable[O, T any] struct {
	fs  FS
	w   *wal[O]
	cf  ckptFormat[T]
	eng *engine[O, T]

	ckptMu     sync.Mutex // serializes checkpoints; guards cf's chain state and ckptsSince
	ckptsSince int        // incremental checkpoints since the current base

	every     uint64
	batches   atomic.Uint64
	ckpt      *checkpointer // nil unless every > 0
	compEvery int
	keep      int

	// epoch is bumped whenever the file set changes underneath a scrub
	// pass (checkpoint, compaction, quarantine); a pass that observes a
	// bump discards its verdicts instead of acting on stale reads.
	epoch atomic.Uint64

	recovery RecoveryStats
	scrub    *scrubber

	errMu sync.Mutex
	bgErr error
}

// DurableStore wraps a hash-partitioned Store with a write-ahead log
// and incremental block checkpoints. Apply acknowledges a batch only
// once its WAL record is fsynced (group commit across concurrent
// writers); OpenDurableStore recovers the latest checkpoint plus the
// WAL suffix — a gapless prefix of the write sequence containing every
// batch ever acknowledged, possibly followed by durable-but-unobserved
// batches that crashed mid-acknowledgment. Apply, ApplyAsync, Put,
// PutAsync, Delete, DeleteAsync, Snapshot, ReaderView, Stats,
// NumShards, and Rebalance (a no-op: hash stores never rebalance) are
// the embedded Store's; through the durable engine a future resolves,
// and Apply returns nil, only after the batch's WAL record is fsynced.
//
// The same opts, shard count, hash, and codec must be passed at every
// reopen; they are the store's schema, not part of the files. All
// methods are safe for concurrent use.
type DurableStore[K, V, A any, E pam.Aug[K, V, A]] struct {
	*hashStore[K, V, A, E]
	*durable[Op[K, V], pam.AugMap[K, V, A, E]]
}

// storeOpCodec encodes one Op for WAL records: kind byte, key, and (for
// puts) value.
func storeOpCodec[K, V any](c *pam.Codec[K, V]) opCodec[Op[K, V]] {
	return opCodec[Op[K, V]]{
		append: func(buf []byte, op Op[K, V]) []byte {
			buf = append(buf, byte(op.Kind))
			buf = c.AppendKey(buf, op.Key)
			if op.Kind == OpPut {
				buf = c.AppendVal(buf, op.Val)
			}
			return buf
		},
		at: func(data []byte) (Op[K, V], int, error) {
			var op Op[K, V]
			if len(data) == 0 {
				return op, 0, ErrCorruptFile
			}
			op.Kind = OpKind(data[0])
			if op.Kind != OpPut && op.Kind != OpDelete {
				return op, 0, ErrCorruptFile
			}
			used := 1
			k, n, err := c.KeyAt(data[used:])
			if err != nil {
				return op, 0, err
			}
			op.Key = k
			used += n
			if op.Kind == OpPut {
				v, n, err := c.ValAt(data[used:])
				if err != nil {
					return op, 0, err
				}
				op.Val = v
				used += n
			}
			return op, used, nil
		},
	}
}

// parseDurableDir splits a file listing into checkpoint indices and WAL
// generations, each ascending; other names (tmp scratch, quarantined
// files) are ignored. Only exact round-trip matches count: a name like
// "ckpt-000004.quarantine" parses under Sscanf but is not a chain file.
func parseDurableDir(names []string) (ckpts, walGens []int) {
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, "ckpt-%06d", &n); err == nil && ckptName(n) == name {
			ckpts = append(ckpts, n)
		} else if _, err := fmt.Sscanf(name, "wal-%06d", &n); err == nil && walName(n) == name {
			walGens = append(walGens, n)
		}
	}
	sort.Ints(ckpts)
	sort.Ints(walGens)
	return ckpts, walGens
}

// sweepTmpFiles deletes orphaned *.tmp scratch left by a crash between
// write and rename; they were never published and hold nothing durable.
func sweepTmpFiles(fs FS, names []string) {
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			fs.Remove(name)
		}
	}
}

// quarantineFile sets a corrupt file aside by renaming it with the
// .quarantine suffix (layered, so re-quarantining a name never clobbers
// earlier evidence) and returns the new name.
func quarantineFile(fs FS, name string) (string, error) {
	q := name + quarantineSuffix
	return q, fs.Rename(name, q)
}

// writeFileAtomic publishes data under final via tmp + sync + rename:
// after any crash, final holds either its old contents or all of data.
func writeFileAtomic(fs FS, tmp, final string, data []byte) error {
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, final)
}

// ckptHeaderFull parses just the fixed header of a checkpoint file — no
// CRC or record validation — returning [seq, shards, firstID, nRecords]
// and the bytes after it.
func ckptHeaderFull(data []byte) (hdr [4]uint64, rest []byte, ok bool) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return hdr, nil, false
	}
	rest = data[len(ckptMagic):]
	for i := range hdr {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return hdr, nil, false
		}
		hdr[i] = v
		rest = rest[n:]
	}
	return hdr, rest, true
}

// decodeStoreCheckpoint decodes one chain file into the accumulating
// table, verifies every shard root's Merkle digest against the stored
// one, and returns the file's sequence number and per-shard root ids.
func decodeStoreCheckpoint[K, V, A any, E pam.Aug[K, V, A]](tb *pam.DecodeTable[K, V, A, E], c *pam.Codec[K, V], shards int, data []byte) (uint64, []uint64, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, ErrCorruptFile
	}
	body := data[: len(data)-4 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, nil, ErrCorruptFile
	}
	hdr, p, ok := ckptHeaderFull(body)
	if !ok {
		return 0, nil, ErrCorruptFile
	}
	seq, nShards, firstID, nRecs := hdr[0], hdr[1], hdr[2], hdr[3]
	if nShards != uint64(shards) {
		return 0, nil, fmt.Errorf("%w: checkpoint has %d shards, store has %d", ErrCorruptFile, nShards, shards)
	}
	if firstID != tb.NextID() {
		return 0, nil, ErrBrokenChain
	}
	// Every record is at least two bytes; a larger count is framing
	// corruption, not work to attempt.
	if nRecs > uint64(len(p)) {
		return 0, nil, ErrCorruptFile
	}
	rest, err := tb.DecodeRecords(c, p, int(nRecs))
	if err != nil {
		return 0, nil, err
	}
	roots := make([]uint64, shards)
	for i := range roots {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, nil, ErrCorruptFile
		}
		roots[i] = v
		rest = rest[n:]
		if len(rest) < sha256.Size {
			return 0, nil, ErrCorruptFile
		}
		var want pam.Digest
		copy(want[:], rest)
		rest = rest[sha256.Size:]
		got, err := tb.Digest(roots[i])
		if err != nil {
			return 0, nil, ErrCorruptFile
		}
		if got != want {
			return 0, nil, ErrDigestMismatch
		}
	}
	if len(rest) != 0 {
		return 0, nil, ErrCorruptFile
	}
	return seq, roots, nil
}

// recoveredChain is the checkpoint chain recovery settled on.
type recoveredChain[T any] struct {
	dec     chainDecoder[T]
	seq     uint64
	lastIdx int // chain index of the last decoded file (0: none)
	baseIdx int // chain index of the base the chain starts at (0: none)
	files   int
}

// recoverChain decodes the newest intact checkpoint chain. A corrupt
// file is quarantined together with every later chain file (a chain is
// useless past a hole); decoding then falls back to the prefix before
// it, or to an older base if the newest base itself is corrupt. maxSeq
// is the highest sequence number any readable header claims — the
// caller must refuse to open unless WAL replay reaches it — and bases
// marks the files whose header claims a base.
func recoverChain[T any](fs FS, cf ckptFormat[T], ckpts []int, rec *RecoveryStats) (chain recoveredChain[T], maxSeq uint64, bases map[int]bool, err error) {
	quarantined := make(map[int]bool)
	quarantine := func(idx int) error {
		q, err := quarantineFile(fs, ckptName(idx))
		if err != nil {
			return err
		}
		quarantined[idx] = true
		rec.Quarantined = append(rec.Quarantined, q)
		return nil
	}
	datas := make(map[int][]byte, len(ckpts))
	bases = make(map[int]bool)
	var basePos []int // positions in ckpts of the bases
	for pos, idx := range ckpts {
		data, err := fs.ReadFile(ckptName(idx))
		if err != nil {
			return chain, 0, nil, err
		}
		datas[idx] = data
		seq, base, ok := cf.header(data)
		if !ok {
			// An unreadable header is corruption in its own right:
			// quarantine it now so it is reported, not silently skipped.
			if qerr := quarantine(idx); qerr != nil {
				return chain, maxSeq, nil, qerr
			}
			continue
		}
		maxSeq = max(maxSeq, seq)
		if base {
			bases[idx] = true
			basePos = append(basePos, pos)
		}
	}
	for attempt := len(basePos) - 1; attempt >= 0; attempt-- {
		start := basePos[attempt]
		if quarantined[ckpts[start]] {
			continue
		}
		cand := recoveredChain[T]{dec: cf.decode(), baseIdx: ckpts[start]}
		for pos := start; pos < len(ckpts); pos++ {
			idx := ckpts[pos]
			if quarantined[idx] {
				continue
			}
			s, derr := cand.dec.next(datas[idx])
			if derr != nil {
				// This file — and every chain file after it, which can
				// only reference records through it — is unusable.
				for p2 := pos; p2 < len(ckpts); p2++ {
					if !quarantined[ckpts[p2]] {
						if qerr := quarantine(ckpts[p2]); qerr != nil {
							return chain, maxSeq, nil, qerr
						}
					}
				}
				break
			}
			cand.seq, cand.lastIdx = s, idx
			cand.files++
		}
		if cand.files > 0 {
			return cand, maxSeq, bases, nil
		}
	}
	// No intact base: recovery starts from an empty chain. The caller's
	// sequence-coverage check decides whether the WAL alone suffices.
	return recoveredChain[T]{dec: cf.decode()}, maxSeq, bases, nil
}

// openDurable opens (or creates) the durable core on cfg.FS: it sweeps
// crash leftovers, loads the newest intact checkpoint chain
// (quarantining corrupt files and falling back if needed), and replays
// the WAL suffix through route and apply. A damaged WAL record fails
// the open with ErrCorruptFile, naming the generation and the record's
// offset, and leaves the file as it is. It returns the recovered
// shard states and the sequence number the store resumes at; the
// caller builds its store on them with d.hooks() and then calls
// d.start.
func openDurable[O, T any](cfg DurableConfig, enc opCodec[O], cf ckptFormat[T], route func(O) int, apply func(T, []O) T) (d *durable[O, T], states []T, next uint64, err error) {
	if cfg.FS == nil {
		return nil, nil, 0, errors.New("serve: DurableConfig.FS is required")
	}
	names, err := cfg.FS.List()
	if err != nil {
		return nil, nil, 0, err
	}
	sweepTmpFiles(cfg.FS, names)
	ckpts, walGens := parseDurableDir(names)

	var rec RecoveryStats
	chain, maxSeq, bases, err := recoverChain(cfg.FS, cf, ckpts, &rec)
	if err != nil {
		return nil, nil, 0, err
	}
	states, rec.ChainRecords, err = chain.dec.resume()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", ckptName(chain.lastIdx), err)
	}
	rec.ChainFiles = chain.files
	keep := max(cfg.KeepGenerations, 1)
	// Checkpoint files below the recovered base are superseded. Chain
	// files there are leftovers of a compaction that crashed before its
	// deletes; older bases stay as fallbacks (every older point
	// checkpoint is one) within the KeepGenerations window.
	for _, idx := range ckpts {
		if idx < chain.baseIdx && (!bases[idx] || idx < chain.baseIdx-keep) {
			cfg.FS.Remove(ckptName(idx))
		}
	}

	// Replay the WAL generations from the last checkpoint on: batches
	// must continue the sequence gaplessly. Crash debris at the end of
	// the newest generation ends replay and is trimmed, so the resumed
	// log appends onto a clean file; anything else after the last good
	// frame is damage, and the file is left as it is for inspection.
	next = chain.seq
	maxGen := chain.lastIdx
	for i, g := range walGens {
		if g < chain.lastIdx {
			continue // superseded by the checkpoint; awaiting removal
		}
		maxGen = max(maxGen, g)
		data, err := cfg.FS.ReadFile(walName(g))
		if err != nil {
			return nil, nil, 0, err
		}
		batches, valid := decodeWALFile(enc, data)
		if valid != len(data) && (i != len(walGens)-1 || !walDebris(data[valid:])) {
			return nil, nil, 0, fmt.Errorf("%s: %w: damaged record at byte %d", walName(g), ErrCorruptFile, valid)
		}
		for _, b := range batches {
			if b.seq != next {
				return nil, nil, 0, fmt.Errorf("%s: %w: batch seq %d, want %d", walName(g), ErrCorruptFile, b.seq, next)
			}
			per := make([][]O, len(states))
			for _, op := range b.ops {
				i := route(op)
				per[i] = append(per[i], op)
			}
			for i, sub := range per {
				if len(sub) > 0 {
					states[i] = apply(states[i], sub)
				}
			}
			next++
			rec.WALBatches++
		}
		if valid != len(data) {
			if err := writeFileAtomic(cfg.FS, walTmpName, walName(g), data[:valid]); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	// Never proceed past lost acknowledged batches: the surviving chain +
	// WAL must reach every sequence number a readable header proves the
	// directory once covered. The check is unconditional — a corrupt file
	// can fall out of consideration without ever being decoded (a garbled
	// firstID, say), and the coverage gap is the only remaining evidence.
	if next < maxSeq {
		return nil, nil, 0, fmt.Errorf("%w: recovered to seq %d, but a checkpoint at seq %d existed (quarantined: %s)",
			ErrUnrecoverable, next, maxSeq, strings.Join(rec.Quarantined, ", "))
	}
	rec.Repaired = len(rec.Quarantined) > 0

	d = &durable[O, T]{
		fs:         cfg.FS,
		w:          newWAL(cfg.FS, enc, maxGen, next),
		cf:         cf,
		ckptsSince: max(chain.files-1, 0),
		every:      uint64(cfg.CheckpointEvery),
		compEvery:  cfg.CompactEvery,
		keep:       keep,
		recovery:   rec,
	}
	return d, states, next, nil
}

// OpenDurableStore opens (or creates) a durable hash-partitioned store
// on cfg.FS: it sweeps crash leftovers, loads the newest intact
// checkpoint chain (quarantining corrupt files and falling back if
// needed), replays the WAL suffix, and resumes the write sequence where
// the recovered prefix ends. See DurableStore for the recovery
// guarantee; Recovery reports what was read and repaired.
func OpenDurableStore[K, V, A any, E pam.Aug[K, V, A]](opts pam.Options, shards int, hash func(K) uint64, codec *pam.Codec[K, V], cfg DurableConfig) (*DurableStore[K, V, A, E], error) {
	if shards < 1 {
		return nil, errors.New("serve: OpenDurableStore needs at least one shard")
	}
	if hash == nil || codec == nil {
		return nil, errors.New("serve: OpenDurableStore needs a hash and a codec")
	}
	n := uint64(shards)
	route := func(o Op[K, V]) int { return int(hash(o.Key) % n) }
	cf := &mapFormat[K, V, A, E]{opts: opts, codec: codec, shards: shards}
	d, states, next, err := openDurable(cfg, storeOpCodec(codec), cf, route, applyOps[K, V, A, E])
	if err != nil {
		return nil, err
	}
	s := &Store[K, V, A, E]{eng: newEngineAt(states, route, applyMapOps[K, V, A, E], next, d.hooks(), cfg.Tuning)}
	return &DurableStore[K, V, A, E]{hashStore: s, durable: d.start(s.eng, cfg)}, nil
}

// hooks returns the engine hooks that make a store durable: the WAL
// append under the sequencer lock, and commitSeq on the resolver — in
// sequence order, after the batch is applied — so a future resolves
// only once its batch is fsynced.
func (d *durable[O, T]) hooks() hooks[O] {
	return hooks[O]{logAppend: d.w.appendLocked, commit: d.commitSeq}
}

// start binds the core to the engine its store built and starts the
// checkpointer (DurableConfig.CheckpointEvery) and the background
// scrubber (DurableConfig.ScrubEvery).
func (d *durable[O, T]) start(eng *engine[O, T], cfg DurableConfig) *durable[O, T] {
	d.eng = eng
	if d.every > 0 {
		d.ckpt = startCheckpointer(d.autoCheckpoint)
	}
	if cfg.ScrubEvery > 0 {
		d.scrub = startScrubber(cfg.ScrubEvery, scrubHooks{
			epoch:  d.epoch.Load,
			verify: d.verifyPass,
			repair: d.repairCorrupt,
			onErr:  d.setErr,
		})
	}
	return d
}

// Recovery reports what the opening recovery read and repaired.
func (d *durable[O, T]) Recovery() RecoveryStats { return d.recovery }

// commitSeq is the resolver-side durability step: fsync the WAL through
// seq (instant when a group commit already covered it) and, on every
// CheckpointEvery-th batch, signal the checkpointer. The signal never
// blocks, so no future waits on a checkpoint.
func (d *durable[O, T]) commitSeq(seq uint64) error {
	if err := d.w.Sync(seq); err != nil {
		return err
	}
	if d.ckpt != nil && d.batches.Add(1)%d.every == 0 {
		d.ckpt.signal()
	}
	return nil
}

// autoCheckpoint is one run of the checkpointer: the periodic automatic
// checkpoint, then the compaction policy. Failures go to Err.
func (d *durable[O, T]) autoCheckpoint() {
	// ErrClosed means Close began before this run took its cut; the
	// batches are already durable in the WAL, so a skipped periodic
	// checkpoint is not an error.
	_, err := d.Checkpoint()
	switch {
	case errors.Is(err, ErrClosed):
	case err != nil:
		d.setErr(err)
	default:
		d.maybeCompact()
	}
}

// checkpointer runs a store's automatic checkpoints on one goroutine,
// off the resolver. Its signal channel has one slot, so signals sent
// while a checkpoint is pending merge into it: at most one checkpoint
// is pending while another runs.
type checkpointer struct {
	sig  chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
	// signalled counts signals neither run nor dropped yet, so a caller
	// can wait until every requested checkpoint has run.
	signalled sync.WaitGroup
}

// startCheckpointer launches the goroutine, which calls run once per
// signal until Stop.
func startCheckpointer(run func()) *checkpointer {
	c := &checkpointer{sig: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stop:
				return
			case <-c.sig:
			}
			run()
			c.signalled.Done()
		}
	}()
	return c
}

// signal requests one run without blocking.
func (c *checkpointer) signal() {
	c.signalled.Add(1)
	select {
	case c.sig <- struct{}{}:
	default:
		c.signalled.Done() // merged into the pending signal
	}
}

// Stop waits for the run in flight, if any, then drops a pending
// signal; safe to call more than once. The caller closes the engine
// first: that stops the resolver, which sends the signals, and makes
// any run that has not yet taken its cut return ErrClosed.
func (c *checkpointer) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
	select {
	case <-c.sig:
		c.signalled.Done()
	default:
	}
}

// maybeCompact applies CompactEvery after a successful automatic
// checkpoint. A base resets the count, so formats whose every file is a
// base (point stores) never compact automatically.
func (d *durable[O, T]) maybeCompact() {
	d.ckptMu.Lock()
	since := d.ckptsSince
	d.ckptMu.Unlock()
	if d.compEvery <= 0 || since < d.compEvery {
		return
	}
	if _, err := d.Compact(); err != nil && !errors.Is(err, ErrClosed) {
		d.setErr(err)
	}
}

// encodeStoreCheckpoint builds one checkpoint file: the states' delta
// against rs, the per-shard roots with their Merkle digests, and the
// trailing CRC.
func encodeStoreCheckpoint[K, V, A any, E pam.Aug[K, V, A]](states []pam.AugMap[K, V, A, E], rs *pam.RecordSet[K, V, A], codec *pam.Codec[K, V], seq uint64) (file []byte, wrote int, digest [sha256.Size]byte) {
	firstID := rs.NextID()
	var recs []byte
	roots := make([]uint64, len(states))
	sums := make([]pam.Digest, len(states))
	for i, m := range states {
		var w int
		recs, roots[i], w = m.EncodeDelta(rs, codec, recs)
		wrote += w
		sums[i], _ = m.RootDigest(rs)
	}
	file = append([]byte(nil), ckptMagic...)
	file = binary.AppendUvarint(file, seq)
	file = binary.AppendUvarint(file, uint64(len(states)))
	file = binary.AppendUvarint(file, firstID)
	file = binary.AppendUvarint(file, uint64(wrote))
	file = append(file, recs...)
	h := sha256.New()
	for i, r := range roots {
		file = binary.AppendUvarint(file, r)
		file = append(file, sums[i][:]...)
		h.Write(sums[i][:])
	}
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(file))
	copy(digest[:], h.Sum(nil))
	return file, wrote, digest
}

// mapFormat is DurableStore's ckptFormat: the incremental PAMCKPT2
// chain. rs numbers the on-disk chain's records and recognizes the
// nodes that already have one, so a checkpoint writes only the delta;
// the core's ckptMu guards it.
type mapFormat[K, V, A any, E pam.Aug[K, V, A]] struct {
	opts   pam.Options // the tree schema, needed to decode chains
	codec  *pam.Codec[K, V]
	shards int
	rs     *pam.RecordSet[K, V, A]
}

// header reads a chain file's sequence number and whether it is a base
// (firstID 1). Recovery uses it to locate chain bases and to bound the
// highest sequence number the directory ever held (so falling back past
// a corrupt file can never silently lose acknowledged batches).
func (f *mapFormat[K, V, A, E]) header(data []byte) (uint64, bool, bool) {
	hdr, _, ok := ckptHeaderFull(data)
	return hdr[0], hdr[2] == 1, ok
}

func (f *mapFormat[K, V, A, E]) encode(states []pam.AugMap[K, V, A, E], seq uint64, fresh bool) ([]byte, CheckpointStats, func()) {
	// Encode against an O(1) fork of the chain's record set — or, for a
	// compaction, a fresh set, making the encode a full rewrite of the
	// live records (firstID 1 marks the file as a base). Ids are
	// committed only with the file, so a failed attempt never burns ids
	// the on-disk chain hasn't seen. A node remembers only the last set
	// that encoded it: after a failed compaction, whose fresh set
	// re-stamped every live node, the chain's next delta rewrites them
	// all.
	rs := pam.NewRecordSet[K, V, A]()
	if !fresh {
		rs = f.rs.Fork()
	}
	base := rs.NextID() == 1
	file, wrote, digest := encodeStoreCheckpoint(states, rs, f.codec, seq)
	cs := CheckpointStats{Records: wrote, Digest: digest, Base: base, ChainRecords: rs.Len()}
	return file, cs, func() {
		rs.Commit()
		f.rs = rs
	}
}

func (f *mapFormat[K, V, A, E]) decode() chainDecoder[pam.AugMap[K, V, A, E]] {
	return &mapChain[K, V, A, E]{f: f, tb: pam.NewDecodeTable[K, V, A, E](f.opts), roots: make([]uint64, f.shards)}
}

func (f *mapFormat[K, V, A, E]) check() func([]byte) error {
	c := f.decode()
	return func(data []byte) error {
		_, err := c.next(data)
		return err
	}
}

// mapChain decodes one PAMCKPT2 chain into a shared DecodeTable,
// reproducing the on-disk structure sharing in memory.
type mapChain[K, V, A any, E pam.Aug[K, V, A]] struct {
	f     *mapFormat[K, V, A, E]
	tb    *pam.DecodeTable[K, V, A, E]
	roots []uint64 // per-shard root ids of the last decoded file
}

func (c *mapChain[K, V, A, E]) next(data []byte) (uint64, error) {
	seq, roots, err := decodeStoreCheckpoint(c.tb, c.f.codec, c.f.shards, data)
	if err == nil {
		c.roots = roots
	}
	return seq, err
}

func (c *mapChain[K, V, A, E]) resume() ([]pam.AugMap[K, V, A, E], int, error) {
	states := make([]pam.AugMap[K, V, A, E], len(c.roots))
	for i, id := range c.roots {
		m, err := c.tb.Map(id)
		if err != nil {
			return nil, 0, err
		}
		states[i] = m
	}
	c.f.rs = c.tb.RecordSet()
	return states, int(c.tb.NextID() - 1), nil
}

// Checkpoint writes the next checkpoint: it snapshots all shards at one
// sequence point (rotating the WAL generation at exactly that point),
// encodes them — a DurableStore writes only the tree records created
// since the previous checkpoint, a DurablePointStore a standalone base
// of every shard's live points — publishes the file atomically, and then
// drops the files it supersedes, keeping KeepGenerations WAL
// generations (and, for point stores, as many older checkpoints) for
// corruption fallback. Concurrent writes proceed; concurrent Checkpoint
// calls serialize.
func (d *durable[O, T]) Checkpoint() (CheckpointStats, error) { return d.checkpoint(false) }

// Compact rewrites the live state as a fresh base checkpoint and drops
// every checkpoint and WAL generation it supersedes (KeepGenerations
// does not apply), bounding recovery to O(live records) regardless of
// update history; for a point store, whose checkpoints are all bases,
// it differs from Checkpoint only in retention. It is crash-safe at
// every point: the base is published by rename after a full sync, and
// the old files are deleted only afterwards — a crash leaves either the
// old chain whole or the new base recoverable (recovery picks the
// newest intact base and sweeps leftovers). Concurrent writes proceed;
// Compact serializes with Checkpoint. It is also the self-healing
// repair step: the live in-memory state is the redundancy a fresh base
// is rebuilt from when a file is found corrupt.
func (d *durable[O, T]) Compact() (CheckpointStats, error) { return d.checkpoint(true) }

// checkpoint is Checkpoint (fresh false) and Compact (fresh true).
func (d *durable[O, T]) checkpoint(fresh bool) (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	var idx int
	states, _, seq, _, ok := d.eng.trySnapshotWith(func() { idx = d.w.rotateLocked() })
	if !ok {
		return CheckpointStats{}, ErrClosed
	}
	file, cs, commit := d.cf.encode(states, seq, fresh)
	if err := writeFileAtomic(d.fs, ckptTmpName, ckptName(idx), file); err != nil {
		return CheckpointStats{}, err
	}
	commit()
	cs.Seq, cs.Index, cs.Bytes = seq, idx, len(file)
	d.ckptsSince++
	if cs.Base {
		d.ckptsSince = 0
	}
	d.epoch.Add(1)
	keep := d.keep
	if fresh {
		keep = 0
	}
	// Old WAL generations are superseded, but only drop them once their
	// records are flushed, so no in-flight group commit is still writing
	// the files being removed. A base supersedes every checkpoint file
	// before it, outside the retention window.
	var walBound, ckptBound int
	if seq == 0 || d.w.Sync(seq-1) == nil {
		walBound = idx - keep
	}
	if cs.Base {
		ckptBound = idx - keep
	}
	dropOld(d.fs, walBound, ckptBound)
	return cs, nil
}

// dropOld removes the WAL generations below walBound and the checkpoint
// files below ckptBound, best-effort: a leftover file is ignored by the
// next recovery and removed by a later checkpoint or recovery.
func dropOld(fs FS, walBound, ckptBound int) {
	names, err := fs.List()
	if err != nil {
		return
	}
	ckpts, gens := parseDurableDir(names)
	for _, g := range gens {
		if g < walBound {
			fs.Remove(walName(g))
		}
	}
	for _, idx := range ckpts {
		if idx < ckptBound {
			fs.Remove(ckptName(idx))
		}
	}
}

// verifyPass re-reads and verifies every sealed durable file once: each
// checkpoint chain is checked in full by the format (for DurableStore:
// CRCs, record framing, Merkle root digests) and sealed WAL generations
// are checked for complete, checksummed framing. It returns the corrupt
// file names and the bytes read. File contents are read under ckptMu
// (so the set is a consistent snapshot against concurrent checkpoints
// and compactions); decoding and hashing run outside the lock.
func (d *durable[O, T]) verifyPass() (corrupt []string, files, bytes int, err error) {
	d.ckptMu.Lock()
	names, lerr := d.fs.List()
	if lerr != nil {
		d.ckptMu.Unlock()
		return nil, 0, 0, lerr
	}
	ckpts, walGens := parseDurableDir(names)
	sealed := d.w.sealedBelow()
	ckptData := make(map[int][]byte, len(ckpts))
	walData := make(map[int][]byte, len(walGens))
	for _, idx := range ckpts {
		if data, rerr := d.fs.ReadFile(ckptName(idx)); rerr == nil {
			ckptData[idx] = data
		}
	}
	for _, g := range walGens {
		if g >= sealed {
			continue // open generation: legitimately unfinished
		}
		if data, rerr := d.fs.ReadFile(walName(g)); rerr == nil {
			walData[g] = data
		}
	}
	d.ckptMu.Unlock()

	// A file with an unreadable header is corrupt wherever it is. A
	// chain file that fails its check marks only itself corrupt; later
	// files of that chain are skipped (unverifiable without it, and
	// repair rewrites everything anyway), as are stale files before the
	// first base, which recovery deletes.
	var check func([]byte) error
	for _, idx := range ckpts {
		data, ok := ckptData[idx]
		if !ok {
			continue // raced with a compaction's deletes; epoch check handles it
		}
		files++
		bytes += len(data)
		_, base, hok := d.cf.header(data)
		if hok && base {
			check = d.cf.check()
		}
		if !hok || (check != nil && check(data) != nil) {
			corrupt = append(corrupt, ckptName(idx))
			check = nil
		}
	}
	for _, g := range walGens {
		data, ok := walData[g]
		if !ok {
			continue
		}
		files++
		bytes += len(data)
		if _, valid := decodeWALFile(d.w.enc, data); valid != len(data) {
			corrupt = append(corrupt, walName(g))
		}
	}
	return corrupt, files, bytes, nil
}

// Verify runs one synchronous, check-only scrub pass over all sealed
// durable files and returns the names of corrupt ones (nil when the
// store is clean). It never modifies files; the background scrubber
// (DurableConfig.ScrubEvery) is the quarantining, self-repairing
// variant.
func (d *durable[O, T]) Verify() ([]string, error) {
	corrupt, _, _, err := d.verifyPass()
	return corrupt, err
}

// repairCorrupt is the scrubber's action on corrupt files: quarantine
// them, then compact — the live in-memory state is the redundancy the
// fresh base checkpoint is rebuilt from, after which the quarantined
// files are not part of any chain.
func (d *durable[O, T]) repairCorrupt(corrupt []string) error {
	d.ckptMu.Lock()
	for _, name := range corrupt {
		if _, err := quarantineFile(d.fs, name); err != nil && !errors.Is(err, os.ErrNotExist) {
			d.ckptMu.Unlock()
			return err
		}
	}
	d.epoch.Add(1)
	d.ckptMu.Unlock()
	_, err := d.Compact()
	return err
}

// ScrubStats reports the background scrubber's lifetime counters (zero
// when no scrubber is configured).
func (d *durable[O, T]) ScrubStats() ScrubStats {
	if d.scrub == nil {
		return ScrubStats{}
	}
	return d.scrub.Stats()
}

// Err returns the first background error — from an automatic
// (CheckpointEvery) checkpoint, an automatic compaction, or the
// scrubber — which no write can report: the batches were durable in the
// WAL before the checkpointer or the scrubber ran. The error is sticky.
func (d *durable[O, T]) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.bgErr
}

func (d *durable[O, T]) setErr(err error) {
	d.errMu.Lock()
	if d.bgErr == nil {
		d.bgErr = err
	}
	d.errMu.Unlock()
}

// close stops the scrubber, then the store (closeStore: its shard
// goroutines, whose in-flight futures resolve durably committed), then
// the checkpointer — waiting for a checkpoint in flight and dropping a
// pending signal, whose batches the WAL already holds — and flushes the
// WAL.
func (d *durable[O, T]) close(closeStore func()) error {
	if d.scrub != nil {
		d.scrub.Stop()
	}
	closeStore()
	if d.ckpt != nil {
		d.ckpt.Stop()
	}
	return d.w.Close()
}

// Close stops the scrubber, the shard goroutines and the checkpointer
// and flushes the WAL. In-flight futures resolve (durably committed)
// before Close returns; subsequent writes return ErrClosed.
func (d *DurableStore[K, V, A, E]) Close() error { return d.close(d.hashStore.Close) }
