package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pam"
	"repro/rangetree"
)

// Self-healing durability: compaction, Merkle tamper evidence, and the
// scrub/repair pipeline. The deterministic tests pin each mechanism
// (bounded recovery after Compact, every-bit tamper detection, chain
// fallback, online scrub repair); the randomized schedules crash the
// store mid-compaction and mid-scrub with injected media corruption and
// assert the recovery contract: every injected corruption is repaired
// or reported, never silent.

func openDurCfg(fs FS, shards int, cfg DurableConfig) (*durSumStore, error) {
	cfg.FS = fs
	return OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		pam.Options{}, shards, mixHash, pam.Uint64Codec(), cfg)
}

// durableLifecycle is the lifecycle surface both durable stores share.
type durableLifecycle interface {
	Checkpoint() (CheckpointStats, error)
	Compact() (CheckpointStats, error)
	Verify() ([]string, error)
	ScrubStats() ScrubStats
	Err() error
	Recovery() RecoveryStats
	Rebalance() (bool, error)
	Close() error
	settleCheckpoints()
}

// durableHandle is one open durable store as the flavour-agnostic
// lifecycle tests see it: the shared lifecycle methods, put (entry i
// with weight w — key i of a map store, point (i, 0) of a point store),
// and contents (a snapshot's sequence number and entries i -> weight).
type durableHandle struct {
	durableLifecycle
	put      func(i uint64, w int64) (uint64, error)
	contents func() (seq uint64, entries map[uint64]int64)
}

// durableFlavours opens each durable store flavour, with the given
// shard count and config on fs, as a durableHandle.
var durableFlavours = []struct {
	name string
	open func(fs FS, shards int, cfg DurableConfig) (*durableHandle, error)
}{
	{"map", func(fs FS, shards int, cfg DurableConfig) (*durableHandle, error) {
		d, err := openDurCfg(fs, shards, cfg)
		if err != nil {
			return nil, err
		}
		return &durableHandle{d, d.Put, func() (uint64, map[uint64]int64) {
			v, _ := d.Snapshot()
			entries := map[uint64]int64{}
			v.ForEach(func(k uint64, w int64) bool { entries[k] = w; return true })
			return v.Seq(), entries
		}}, nil
	}},
	{"points", func(fs FS, shards int, cfg DurableConfig) (*durableHandle, error) {
		splits := make([]float64, shards-1)
		for j := range splits {
			splits[j] = float64(16 * (j + 1))
		}
		cfg.FS = fs
		d, err := OpenDurablePointStore(pam.Options{}, splits, cfg)
		if err != nil {
			return nil, err
		}
		put := func(i uint64, w int64) (uint64, error) { return d.Insert(rangetree.Point{X: float64(i)}, w) }
		return &durableHandle{d, put, func() (uint64, map[uint64]int64) {
			v, _ := d.Snapshot()
			entries := map[uint64]int64{}
			for _, p := range v.ReportAll(everything) {
				entries[uint64(p.X)] = p.W
			}
			return v.Seq(), entries
		}}, nil
	}},
}

// TestCompactBoundsRecovery is the bounded-recovery acceptance test:
// after many checkpoints of a churning store, recovery decodes the
// whole chain; after Compact it decodes O(live records), independent of
// the update history, and the superseded files are gone.
func TestCompactBoundsRecovery(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(17))
	const keySpace = 64
	for round := 0; round < 30; round++ {
		ops := make([]kvop, 32)
		for i := range ops {
			ops[i] = kvop{Kind: OpPut, Key: uint64(rng.Intn(keySpace)), Val: int64(rng.Intn(1000))}
		}
		applyAll(t, d, ops)
		if _, err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
	}
	want, _ := d.Snapshot()

	pre, err := openDurSum(NewMemFSFrom(fs.DurableState()), 2, 0)
	if err != nil {
		t.Fatalf("pre-compact reopen: %v", err)
	}
	preRecs := pre.Recovery().ChainRecords
	pre.Close()

	cs, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !cs.Base {
		t.Fatal("Compact did not write a base checkpoint")
	}
	if cs.ChainRecords != cs.Records {
		t.Fatalf("compaction stats inconsistent: records %d, chain %d", cs.Records, cs.ChainRecords)
	}

	names, _ := fs.List()
	ckpts, walGens := parseDurableDir(names)
	if len(ckpts) != 1 || ckpts[0] != cs.Index {
		t.Fatalf("compaction left chain files: %v", ckpts)
	}
	for _, g := range walGens {
		if g < cs.Index {
			t.Fatalf("compaction left superseded WAL generation %d", g)
		}
	}

	post, err := openDurSum(NewMemFSFrom(fs.DurableState()), 2, 0)
	if err != nil {
		t.Fatalf("post-compact reopen: %v", err)
	}
	defer post.Close()
	rec := post.Recovery()
	if rec.ChainFiles != 1 {
		t.Fatalf("recovery after Compact decoded %d chain files, want 1", rec.ChainFiles)
	}
	// The record-counting proof: recovery now reads exactly the compacted
	// base — the live records — a fraction of the accumulated chain.
	if rec.ChainRecords != cs.Records {
		t.Fatalf("recovery decoded %d records, compaction wrote %d", rec.ChainRecords, cs.Records)
	}
	if 3*rec.ChainRecords >= preRecs {
		t.Fatalf("compaction did not bound recovery: %d records before, %d after", preRecs, rec.ChainRecords)
	}
	v, _ := post.Snapshot()
	if v.Seq() != want.Seq() || v.Size() != want.Size() || v.AugVal() != want.AugVal() {
		t.Fatalf("recovered (seq %d, size %d, sum %d), want (%d, %d, %d)",
			v.Seq(), v.Size(), v.AugVal(), want.Seq(), want.Size(), want.AugVal())
	}
}

// TestCompactDigestStable checks that the root digest is a pure content
// hash: compaction rewrites every record with fresh ids, and the digest
// must not move.
func TestCompactDigestStable(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	for i := uint64(0); i < 100; i++ {
		if _, err := d.Put(i, int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if i%20 == 0 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	before, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if before.Digest != after.Digest {
		t.Fatalf("compaction changed the content digest: %x -> %x", before.Digest, after.Digest)
	}
}

// TestMerkleTamperEveryBit is the tamper-evidence proof: flip one bit
// at EVERY byte position of a checkpoint's body (records, root ids,
// digests) and re-patch the CRC so the flip models an adversary or
// coordinated media error the checksum cannot see. Every such file must
// fail to decode — and at least one failure must be the Merkle digest
// check specifically, proving detection does not ride on framing luck.
func TestMerkleTamperEveryBit(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 1, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 40; i++ {
		if _, err := d.Put(i*7, int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	cs, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	d.Close()
	file, err := fs.ReadFile(ckptName(cs.Index))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// The body starts after the magic and the four header varints (seq,
	// shards, firstID, nRecords); the header is metadata outside the
	// Merkle tree, so the sweep starts past it.
	off := len(ckptMagic)
	for i := 0; i < 4; i++ {
		_, n := binary.Uvarint(file[off:])
		off += n
	}

	digestHits := 0
	for pos := off; pos < len(file)-4; pos++ {
		tampered := bytes.Clone(file)
		tampered[pos] ^= 1 << (pos % 8)
		binary.LittleEndian.PutUint32(tampered[len(tampered)-4:],
			crc32.ChecksumIEEE(tampered[:len(tampered)-4]))
		tb := pam.NewDecodeTable[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		_, _, derr := decodeStoreCheckpoint(tb, pam.Uint64Codec(), 1, tampered)
		if derr == nil {
			t.Fatalf("bit flip at byte %d (of %d) decoded cleanly past the CRC", pos, len(file))
		}
		if errors.Is(derr, ErrDigestMismatch) {
			digestHits++
		}
	}
	if digestHits == 0 {
		t.Fatal("no flip was caught by the Merkle digest — detection rides entirely on framing")
	}
}

// TestRecoveryFallbackRepairsChainTail pins the deterministic repair
// path: the newest chain file is corrupt, but the KeepGenerations WAL
// window lets recovery fall back to the previous checkpoint and replay
// forward — no acknowledged batch lost, corruption quarantined,
// Repaired reported.
func TestRecoveryFallbackRepairsChainTail(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 1, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 20; i++ {
		if _, err := d.Put(i, int64(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	for i := uint64(20); i < 40; i++ {
		if _, err := d.Put(i, int64(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tail, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	for i := uint64(40); i < 50; i++ {
		if _, err := d.Put(i, int64(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	d.Close()

	state := fs.DurableState()
	name := ckptName(tail.Index)
	state[name][len(state[name])-1] ^= 0xff // break the tail file's CRC

	d2, err := openDurSum(NewMemFSFrom(state), 1, 0)
	if err != nil {
		t.Fatalf("recovery with a corrupt chain tail failed: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.Repaired {
		t.Fatal("recovery did not report Repaired")
	}
	if len(rec.Quarantined) != 1 || rec.Quarantined[0] != name+quarantineSuffix {
		t.Fatalf("Quarantined = %v, want [%s]", rec.Quarantined, name+quarantineSuffix)
	}
	v, _ := d2.Snapshot()
	if v.Seq() != 50 || v.Size() != 50 {
		t.Fatalf("fallback recovered seq %d size %d, want 50/50", v.Seq(), v.Size())
	}
	for i := uint64(0); i < 50; i++ {
		if got, ok := v.Find(i); !ok || got != int64(i+1) {
			t.Fatalf("Find(%d) = %d,%v after fallback", i, got, ok)
		}
	}
}

// TestRecoveryRefusesSilentLoss is the never-silent guarantee: when the
// only checkpoint is corrupt AND the WAL generations that could rebuild
// its contents are gone, open must fail with ErrUnrecoverable rather
// than come up with a hole in the acknowledged sequence.
func TestRecoveryRefusesSilentLoss(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurCfg(fs, 1, DurableConfig{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 30; i++ {
		if _, err := d.Put(i, 1); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	cs, err := d.Compact() // drops every WAL generation below the base
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	d.Close()

	state := fs.DurableState()
	name := ckptName(cs.Index)
	state[name][len(state[name])-1] ^= 0xff

	if _, err := openDurSum(NewMemFSFrom(state), 1, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("open with the only base corrupt and no covering WAL = %v, want ErrUnrecoverable", err)
	}
}

// TestVerifyReportsCorruption checks the synchronous check-only pass on
// both flavours: clean store verifies clean, a flipped bit in a
// checkpoint file is named, and Verify never modifies anything.
func TestVerifyReportsCorruption(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 2, DurableConfig{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer d.Close()
			for i := uint64(0); i < 50; i++ {
				if _, err := d.put(i, int64(i)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				if i%17 == 0 {
					if _, err := d.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
				}
			}
			if corrupt, err := d.Verify(); err != nil || len(corrupt) != 0 {
				t.Fatalf("clean store Verify = %v, %v", corrupt, err)
			}

			names, _ := fs.List()
			ckpts, _ := parseDurableDir(names)
			victim := ckptName(ckpts[len(ckpts)-1])
			if !fs.CorruptFile(victim, rand.New(rand.NewSource(3))) {
				t.Fatalf("CorruptFile(%s) found nothing to flip", victim)
			}
			corrupt, err := d.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			found := false
			for _, name := range corrupt {
				if name == victim {
					found = true
				}
			}
			if !found {
				t.Fatalf("Verify after flipping %s reported %v", victim, corrupt)
			}
			if _, err := fs.ReadFile(victim); err != nil {
				t.Fatalf("Verify moved or deleted the corrupt file: %v", err)
			}
		})
	}
}

// TestScrubRepairsOnline runs the full self-healing loop live on both
// flavours: a bit flips on "disk", the background scrubber finds it,
// quarantines the file, and compacts a fresh base from the in-memory
// state — all while the store keeps serving; the next recovery is clean.
func TestScrubRepairsOnline(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 2, DurableConfig{ScrubEvery: time.Millisecond})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := uint64(0); i < 40; i++ {
				if _, err := d.put(i, int64(2*i)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				if i == 19 || i == 39 {
					if _, err := d.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
				}
			}
			names, _ := fs.List()
			ckpts, _ := parseDurableDir(names)
			victim := ckptName(ckpts[len(ckpts)-1])
			if !fs.CorruptFile(victim, rand.New(rand.NewSource(9))) {
				t.Fatalf("CorruptFile(%s) found nothing to flip", victim)
			}

			deadline := time.Now().Add(10 * time.Second)
			for {
				if st := d.ScrubStats(); st.Repairs >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("scrubber never repaired; stats %+v, err %v", d.ScrubStats(), d.Err())
				}
				time.Sleep(time.Millisecond)
			}
			if err := d.Err(); err != nil {
				t.Fatalf("background error after repair: %v", err)
			}
			st := d.ScrubStats()
			if st.CorruptFound < 1 || st.Quarantined < 1 {
				t.Fatalf("scrub stats after repair: %+v", st)
			}
			if _, err := fs.ReadFile(victim + quarantineSuffix); err != nil {
				t.Fatalf("corrupt file was not quarantined: %v", err)
			}
			if corrupt, err := d.Verify(); err != nil || len(corrupt) != 0 {
				t.Fatalf("store still corrupt after repair: %v, %v", corrupt, err)
			}
			// The store kept serving through the repair and the next
			// recovery is clean and complete.
			if _, err := d.put(1000, 1); err != nil {
				t.Fatalf("Put after repair: %v", err)
			}
			d.Close()
			d2, err := fl.open(NewMemFSFrom(fs.DurableState()), 2, DurableConfig{})
			if err != nil {
				t.Fatalf("reopen after online repair: %v", err)
			}
			defer d2.Close()
			if len(d2.Recovery().Quarantined) != 0 {
				t.Fatalf("recovery after repair still found corruption: %v", d2.Recovery().Quarantined)
			}
			seq, got := d2.contents()
			if len(got) != 41 || seq != 41 {
				t.Fatalf("recovered size %d seq %d, want 41/41", len(got), seq)
			}
			for i := uint64(0); i < 40; i++ {
				if w, ok := got[i]; !ok || w != int64(2*i) {
					t.Fatalf("Find(%d) = %d,%v after repair cycle", i, w, ok)
				}
			}
		})
	}
}

// TestScrubRepairsSealedWAL checks the scrubber also covers sealed WAL
// generations on both flavours: a flip in a kept (sealed,
// pre-checkpoint) generation is found and repaired by compaction, which
// retires the damaged file.
func TestScrubRepairsSealedWAL(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := NewMemFS()
			d, err := fl.open(fs, 1, DurableConfig{ScrubEvery: time.Millisecond, KeepGenerations: 2})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := uint64(0); i < 20; i++ {
				if _, err := d.put(i, 1); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for i := uint64(20); i < 30; i++ {
				if _, err := d.put(i, 1); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			if _, err := d.Checkpoint(); err != nil { // seals the generation holding batches 20..29
				t.Fatalf("Checkpoint: %v", err)
			}
			names, _ := fs.List()
			_, gens := parseDurableDir(names)
			if len(gens) < 2 {
				t.Fatalf("expected kept WAL generations, have %v", gens)
			}
			victim := walName(gens[0])
			if !fs.CorruptFile(victim, rand.New(rand.NewSource(4))) {
				t.Fatalf("CorruptFile(%s) found nothing to flip", victim)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				if st := d.ScrubStats(); st.Repairs >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("scrubber never repaired; stats %+v, err %v", d.ScrubStats(), d.Err())
				}
				time.Sleep(time.Millisecond)
			}
			d.Close()
			d2, err := fl.open(NewMemFSFrom(fs.DurableState()), 1, DurableConfig{})
			if err != nil {
				t.Fatalf("reopen after WAL repair: %v", err)
			}
			defer d2.Close()
			if _, got := d2.contents(); len(got) != 30 {
				t.Fatalf("recovered size %d, want 30", len(got))
			}
		})
	}
}

// TestPointCheckpointTamper pins the point-store analogue: the
// whole-file digest catches a flip the adversary hid from the CRC, and
// recovery falls back to the older kept checkpoint plus WAL replay —
// also when the store was reopened in between, which must not drop the
// fallback checkpoint.
func TestPointCheckpointTamper(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
			fs := NewMemFS()
			open := func(f FS) (*DurablePointStore, error) {
				return OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: f})
			}
			d, err := open(fs)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := 0; i < 20; i++ {
				if _, err := d.Insert(rangetree.Point{X: float64(i), Y: float64(i % 5)}, 1); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint 1: %v", err)
			}
			for i := 20; i < 30; i++ {
				if _, err := d.Insert(rangetree.Point{X: float64(i), Y: 1}, 2); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			tail, err := d.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint 2: %v", err)
			}
			d.Close()
			if reopen {
				if d, err = open(fs); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				d.Close()
			}

			state := fs.DurableState()
			name := ckptName(tail.Index)
			// Flip a body bit and re-patch the CRC: only the sha256 digest can
			// catch this.
			data := state[name]
			data[len(ptCkptMagic)+2] ^= 0x01
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
			if _, _, _, derr := decodePointCheckpoint(rangetree.New(pam.Options{}), []float64{8}, data); !errors.Is(derr, ErrDigestMismatch) {
				t.Fatalf("decode of CRC-repaired tamper = %v, want ErrDigestMismatch", derr)
			}

			d2, err := open(NewMemFSFrom(state))
			if err != nil {
				t.Fatalf("recovery with tampered checkpoint: %v", err)
			}
			defer d2.Close()
			rec := d2.Recovery()
			if !rec.Repaired || len(rec.Quarantined) != 1 {
				t.Fatalf("recovery stats %+v, want Repaired with one quarantine", rec)
			}
			v, _ := d2.Snapshot()
			if v.Size() != 30 || v.QuerySum(everything) != 40 {
				t.Fatalf("fallback recovered size %d sum %d, want 30/40", v.Size(), v.QuerySum(everything))
			}
		})
	}
}

// TestTmpSweepOnOpen checks satellite recovery hygiene: orphaned *.tmp
// scratch from a crash mid-publish is deleted on open.
func TestTmpSweepOnOpen(t *testing.T) {
	state := map[string][]byte{
		ckptTmpName: []byte("half a checkpoint"),
		"extra.tmp": []byte("junk"),
		walTmpName:  []byte("half a wal trim"),
	}
	fs := NewMemFSFrom(state)
	d, err := openDurSum(fs, 1, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	names, _ := fs.List()
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			t.Fatalf("%s survived the open sweep (files: %v)", name, names)
		}
	}
}

// verifyCrashPrefix is the relaxed recovery contract used when injected
// media corruption was REPORTED (quarantine evidence on disk or in the
// recovery stats): with the only witness of some acknowledged batches
// destroyed, recovery may come up at a shorter prefix — but that prefix
// must still be an exact oracle replay (never wrong, never invented),
// and the store must stay live.
func verifyCrashPrefix(t *testing.T, d *durSumStore, subs []crashBatch) {
	t.Helper()
	v, _ := d.Snapshot()
	r := v.Seq()
	sort.Slice(subs, func(i, j int) bool { return subs[i].seq < subs[j].seq })
	for i, b := range subs {
		if b.seq != uint64(i) {
			t.Fatalf("submitted sequence numbers not dense: position %d holds seq %d", i, b.seq)
		}
	}
	if r > uint64(len(subs)) {
		t.Fatalf("recovered prefix [0,%d) extends past the %d submitted batches", r, len(subs))
	}
	oracle := map[uint64]int64{}
	for _, b := range subs[:r] {
		for _, op := range b.ops {
			if op.Kind == OpDelete {
				delete(oracle, op.Key)
			} else {
				oracle[op.Key] = op.Val
			}
		}
	}
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, oracle prefix [0,%d) has %d keys", got, r, want)
	}
	var sum int64
	for k, want := range oracle {
		sum += want
		if got, ok := v.Find(k); !ok || got != want {
			t.Fatalf("recovered Find(%d) = %d,%v; oracle prefix [0,%d) says %d", k, got, ok, r, want)
		}
	}
	if got := v.AugVal(); got != sum {
		t.Fatalf("recovered AugVal = %d, oracle sum %d", got, sum)
	}
	if _, err := d.Put(1<<40, 1); err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("post-recovery Checkpoint: %v", err)
	}
}

// quarantineEvidence reports whether the recovery (or an earlier
// scrubber repair whose quarantine rename survived the crash) left a
// durable report of corruption. Without such evidence, any data loss
// would be silent and the full contract must hold.
func quarantineEvidence(fs FS, rec RecoveryStats) bool {
	if len(rec.Quarantined) > 0 {
		return true
	}
	names, err := fs.List()
	if err != nil {
		return false
	}
	for _, name := range names {
		if strings.HasSuffix(name, quarantineSuffix) {
			return true
		}
	}
	return false
}

// assertNoTmpFiles asserts recovery left no *.tmp scratch behind — the
// crash-schedule form of the sweep guarantee.
func assertNoTmpFiles(t *testing.T, fs FS) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		return // the probe filesystem crashed again; nothing to check
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			t.Fatalf("%s survived recovery (files: %v)", name, names)
		}
	}
}

// runCompactCrashSchedule crashes a store that checkpoints and compacts
// aggressively, optionally flips bits in the surviving checkpoint files
// (media corruption on top of the crash), and then requires recovery to
// either restore the full contract or refuse loudly.
func runCompactCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	if rng.Intn(5) > 0 {
		fs.SetKillPoint(int64(rng.Intn(220)), rand.New(rand.NewSource(seed^0x6c62272e)))
	}
	shards := 1 + rng.Intn(3)
	cfg := DurableConfig{
		CheckpointEvery: 2 + rng.Intn(4),
		CompactEvery:    1 + rng.Intn(3),
		KeepGenerations: 1 + rng.Intn(2),
	}
	_ = rng.Intn(3) // a spare draw: keeps each seed's schedule unchanged
	const keySpace = 24
	d, err := openDurCfg(fs, shards, cfg)
	if err != nil {
		t.Fatalf("initial open: %v", err)
	}

	type step struct {
		ops     []kvop
		ckpt    bool
		compact bool
	}
	writers := 1 + rng.Intn(3)
	plans := make([][]step, writers)
	for w := range plans {
		for b := 2 + rng.Intn(10); b > 0; b-- {
			ops := make([]kvop, 1+rng.Intn(5))
			for i := range ops {
				k := uint64(rng.Intn(keySpace))
				if rng.Intn(3) == 0 {
					ops[i] = kvop{Kind: OpDelete, Key: k}
				} else {
					ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(100))}
				}
			}
			plans[w] = append(plans[w], step{ops: ops, ckpt: rng.Intn(4) == 0, compact: rng.Intn(6) == 0})
		}
	}

	var mu sync.Mutex
	var subs []crashBatch
	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(steps []step) {
			defer wg.Done()
			for _, s := range steps {
				seq, err := d.Apply(s.ops)
				mu.Lock()
				subs = append(subs, crashBatch{seq: seq, ops: s.ops, acked: err == nil})
				mu.Unlock()
				if err != nil {
					return
				}
				if s.ckpt {
					if _, err := d.Checkpoint(); err != nil {
						return
					}
				}
				if s.compact {
					if _, err := d.Compact(); err != nil {
						return
					}
				}
			}
		}(plans[w])
	}
	wg.Wait()
	d.Close()

	// Mount the crash image; some schedules additionally flip bits in
	// surviving checkpoint files — silent media damage the crash model
	// alone cannot produce.
	state := fs.DurableState()
	flipped := false
	if rng.Intn(2) == 0 {
		var names []string
		for name := range state {
			names = append(names, name)
		}
		ckpts, _ := parseDurableDir(names)
		for flips := 1 + rng.Intn(2); flips > 0 && len(ckpts) > 0; flips-- {
			name := ckptName(ckpts[rng.Intn(len(ckpts))])
			data := state[name]
			if len(data) == 0 {
				continue
			}
			bit := rng.Intn(len(data) * 8)
			data[bit/8] ^= 1 << (bit % 8)
			flipped = true
		}
	}

	fs2 := NewMemFSFrom(state)
	d2, err := openDurCfg(fs2, shards, DurableConfig{})
	if err != nil {
		// A loud refusal is a legitimate outcome only when corruption was
		// injected; a plain crash must always recover.
		if !flipped {
			t.Fatalf("recovery without injected corruption failed: %v", err)
		}
		return
	}
	// Open succeeded. If injected corruption was REPORTED (quarantined),
	// recovery may have fallen back to a shorter — but still exact —
	// prefix; with no report, any loss would be silent and the full
	// acked-coverage contract must hold. Either way no scratch survives.
	rec := d2.Recovery()
	if flipped && quarantineEvidence(fs2, rec) {
		if !rec.Repaired && len(rec.Quarantined) > 0 {
			t.Fatal("recovery quarantined files without reporting Repaired")
		}
		verifyCrashPrefix(t, d2, subs)
	} else {
		verifyCrashRecovery(t, d2, subs, false)
	}
	assertNoTmpFiles(t, fs2)
	d2.Close()
}

// TestCompactCrashSchedules is the compaction fault-injection run:
// randomized kill points landing mid-compaction (and everywhere else)
// with bit-flip media corruption layered on half the schedules. Together
// with TestScrubCrashSchedules this is the 1000+-schedule self-healing
// acceptance run.
func TestCompactCrashSchedules(t *testing.T) {
	n := 800
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		seed := int64(i) + 90001
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCompactCrashSchedule(t, seed)
		})
	}
}

// runScrubCrashSchedule crashes a store while the background scrubber
// races the workload — including schedules where a bit flips mid-run
// and the kill point lands inside the scrubber's quarantine+compact
// repair. Recovery must restore the contract or refuse loudly.
func runScrubCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	if rng.Intn(4) > 0 {
		fs.SetKillPoint(int64(rng.Intn(200)), rand.New(rand.NewSource(seed^0x1b873593)))
	}
	shards := 1 + rng.Intn(2)
	cfg := DurableConfig{
		CheckpointEvery: 2 + rng.Intn(3),
		KeepGenerations: 1 + rng.Intn(2),
		ScrubEvery:      time.Duration(200+rng.Intn(800)) * time.Microsecond,
	}
	if rng.Intn(2) == 0 {
		cfg.CompactEvery = 1 + rng.Intn(2)
	}
	const keySpace = 24
	d, err := openDurCfg(fs, shards, cfg)
	if err != nil {
		t.Fatalf("initial open: %v", err)
	}

	corruptRng := rand.New(rand.NewSource(seed ^ 0x85ebca6b))
	corrupted := false
	corruptOne := func() {
		names, err := fs.List()
		if err != nil {
			return
		}
		ckpts, _ := parseDurableDir(names)
		if len(ckpts) == 0 {
			return
		}
		if fs.CorruptFile(ckptName(ckpts[corruptRng.Intn(len(ckpts))]), corruptRng) {
			corrupted = true
		}
	}

	var subs []crashBatch
	steps := 6 + rng.Intn(14)
	for b := 0; b < steps; b++ {
		ops := make([]kvop, 1+rng.Intn(5))
		for i := range ops {
			k := uint64(rng.Intn(keySpace))
			if rng.Intn(3) == 0 {
				ops[i] = kvop{Kind: OpDelete, Key: k}
			} else {
				ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(100))}
			}
		}
		seq, err := d.Apply(ops)
		subs = append(subs, crashBatch{seq: seq, ops: ops, acked: err == nil})
		if err != nil {
			break
		}
		if b == steps/3 {
			corruptOne() // media flip mid-run; the scrubber races to find it
		}
		if rng.Intn(3) == 0 {
			time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond) // let scrub passes land
		}
	}
	time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
	d.Close()

	// A repair may have already compacted the corruption away before the
	// crash; either way the on-disk image must recover or refuse loudly.
	fs2 := NewMemFSFrom(fs.DurableState())
	d2, err := openDurCfg(fs2, shards, DurableConfig{})
	if err != nil {
		if !corrupted {
			t.Fatalf("recovery without injected corruption failed: %v", err)
		}
		return
	}
	if corrupted && quarantineEvidence(fs2, d2.Recovery()) {
		verifyCrashPrefix(t, d2, subs)
	} else {
		verifyCrashRecovery(t, d2, subs, false)
	}
	assertNoTmpFiles(t, fs2)
	d2.Close()
}

// TestScrubCrashSchedules crashes stores mid-scrub and mid-repair with
// live media corruption; see runScrubCrashSchedule.
func TestScrubCrashSchedules(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		seed := int64(i) + 130001
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runScrubCrashSchedule(t, seed)
		})
	}
}

// TestVerifyFilesStructural drives the codec-independent VerifyFiles
// (the pamverify entry point): clean directories verify clean, flips in
// checkpoints and sealed WAL generations are named, and crash debris
// (a torn tail, or zeros) is tolerated at the end of the newest
// generation only.
func TestVerifyFilesStructural(t *testing.T) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 60; i++ {
		if _, err := d.Put(i, int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if i%25 == 0 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	d.Close()

	rep, err := VerifyFiles(fs)
	if err != nil {
		t.Fatalf("VerifyFiles: %v", err)
	}
	if len(rep.Corrupt) != 0 || rep.Files == 0 || rep.Bytes == 0 {
		t.Fatalf("clean dir: %+v", rep)
	}

	state := fs.DurableState()
	names, _ := fs.List()
	ckpts, gens := parseDurableDir(names)

	// A torn tail in the NEWEST generation is crash debris, not damage.
	last := walName(gens[len(gens)-1])
	if n := len(state[last]); n > 3 {
		torn := map[string][]byte{}
		for k, v := range state {
			torn[k] = bytes.Clone(v)
		}
		torn[last] = torn[last][:n-3]
		rep, err := VerifyFiles(NewMemFSFrom(torn))
		if err != nil || len(rep.Corrupt) != 0 {
			t.Fatalf("torn newest generation flagged: %+v, %v", rep, err)
		}
	}

	// Zeros after the last frame of an OLDER generation are damage: only
	// the newest generation can end in unwritten space.
	if len(gens) < 2 {
		t.Fatalf("want at least two WAL generations, have %v", gens)
	}
	zeroed := map[string][]byte{}
	for k, v := range state {
		zeroed[k] = bytes.Clone(v)
	}
	first := walName(gens[0])
	zeroed[first] = append(zeroed[first], make([]byte, 16)...)
	if rep, err := VerifyFiles(NewMemFSFrom(zeroed)); err != nil || len(rep.Corrupt) != 1 || rep.Corrupt[0] != first {
		t.Fatalf("zero-filled tail in %s: VerifyFiles reported %+v, %v", first, rep, err)
	}

	// A flipped checkpoint bit is named.
	bad := map[string][]byte{}
	for k, v := range state {
		bad[k] = bytes.Clone(v)
	}
	victim := ckptName(ckpts[len(ckpts)-1])
	bad[victim][7] ^= 0x40
	rep, err = VerifyFiles(NewMemFSFrom(bad))
	if err != nil {
		t.Fatalf("VerifyFiles: %v", err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim {
		t.Fatalf("flipped %s, VerifyFiles reported %v", victim, rep.Corrupt)
	}
}
