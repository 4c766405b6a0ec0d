package serve

// Fuzzing the durability decoders. Both targets hold the same contract:
// arbitrary bytes — truncated, bit-flipped, duplicated, or wholly
// invented — must produce an error (or, for the WAL, a shorter valid
// prefix), never a panic, an allocation blow-up, or a silently-wrong
// tree. Trees that do decode are checked with Validate, the recovery
// side's defense against crafted streams that parse but violate
// structural invariants.

import (
	"bytes"
	"testing"

	"repro/pam"
	"repro/rangetree"
)

// durableCorpus builds real checkpoint and WAL files by running durable
// stores in memory, returning (store ckpt, store WAL, point ckpt) bytes.
func durableCorpus(f *testing.F) (ckpt, wal, ptCkpt []byte) {
	f.Helper()
	readKind := func(fs *MemFS, wantCkpt bool) []byte {
		names, err := fs.List()
		if err != nil {
			f.Fatal(err)
		}
		ckpts, wals := parseDurableDir(names)
		var name string
		if wantCkpt {
			name = ckptName(ckpts[len(ckpts)-1])
		} else {
			name = walName(wals[len(wals)-1])
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}

	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if _, err := d.Put(i*3, int64(i)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ { // populate the post-checkpoint WAL generation
		if _, err := d.Put(i, -int64(i)); err != nil {
			f.Fatal(err)
		}
	}
	ckpt, wal = readKind(fs, true), readKind(fs, false)
	d.Close()

	pfs := NewMemFS()
	pd, err := OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: pfs})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := pd.Insert(rangetree.Point{X: float64(i % 13), Y: float64(i % 7)}, 1); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := pd.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	ptCkpt = readKind(pfs, true)
	pd.Close()
	return ckpt, wal, ptCkpt
}

// mutations seeds the classic corruption shapes for a valid file:
// truncations, single-bit flips, and a duplicated body.
func mutations(valid []byte) [][]byte {
	out := [][]byte{valid, {}}
	for _, n := range []int{1, 8, 9, len(valid) / 2, len(valid) - 1} {
		if n >= 0 && n < len(valid) {
			out = append(out, valid[:n])
		}
	}
	for _, off := range []int{0, 9, len(valid) / 3, len(valid) - 5} {
		if off >= 0 && off < len(valid) {
			flip := bytes.Clone(valid)
			flip[off] ^= 0x10
			out = append(out, flip)
		}
	}
	out = append(out, append(bytes.Clone(valid), valid...)) // duplicated records
	return out
}

// FuzzCheckpointDecode throws arbitrary bytes at both checkpoint
// decoders (store chain files and point-store point files).
func FuzzCheckpointDecode(f *testing.F) {
	ckpt, _, ptCkpt := durableCorpus(f)
	for _, m := range mutations(ckpt) {
		f.Add(m)
	}
	for _, m := range mutations(ptCkpt) {
		f.Add(m)
	}

	proto := rangetree.New(pam.Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := pam.NewDecodeTable[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		if _, roots, err := decodeStoreCheckpoint(tb, pam.Uint64Codec(), 2, data); err == nil {
			for _, id := range roots {
				m, err := tb.Map(id)
				if err != nil {
					t.Fatalf("decoder accepted a file whose root id %d is unresolvable: %v", id, err)
				}
				// Validate is the recovery side's last line against
				// crafted streams: it must reject, never let a broken
				// tree through silently (and never panic doing so).
				if err := m.Validate(func(a, b int64) bool { return a == b }); err != nil {
					continue
				}
				if got := int64(len(m.Entries())); got != m.Size() {
					t.Fatalf("validated tree is inconsistent: %d entries, Size %d", got, m.Size())
				}
			}
		}
		if _, trees, _, err := decodePointCheckpoint(proto, []float64{8}, data); err == nil {
			for _, tr := range trees {
				// decodePointCheckpoint builds only from checked runs, so
				// success means a valid tree.
				if err := tr.Validate(); err != nil {
					t.Fatalf("point decoder built an invalid tree: %v", err)
				}
				_ = tr.ReportAll(everything)
			}
		}
	})
}

// FuzzCompactDecode seeds the checkpoint decoder with a COMPACTED base
// file — the single-file recovery image Compact publishes — plus its
// truncated, bit-flipped, and duplicated mutants. The contract is the
// self-healing one: a damaged base either errors out of the decoder
// (digest mismatches included — never silently wrong) or survives
// tree validation; and the structural verifier (the scrub/pamverify
// path) never panics on the same bytes.
func FuzzCompactDecode(f *testing.F) {
	fs := NewMemFS()
	d, err := openDurSum(fs, 2, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if _, err := d.Put(i%40, int64(i)); err != nil { // heavy overwrite: dead records in the chain
			f.Fatal(err)
		}
		if i%60 == 0 {
			if _, err := d.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	cs, err := d.Compact()
	if err != nil {
		f.Fatal(err)
	}
	base, err := fs.ReadFile(ckptName(cs.Index))
	if err != nil {
		f.Fatal(err)
	}
	d.Close()
	for _, m := range mutations(base) {
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tb := pam.NewDecodeTable[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		if _, roots, err := decodeStoreCheckpoint(tb, pam.Uint64Codec(), 2, data); err == nil {
			for _, id := range roots {
				m, err := tb.Map(id)
				if err != nil {
					t.Fatalf("compact decoder accepted unresolvable root %d: %v", id, err)
				}
				if err := m.Validate(func(a, b int64) bool { return a == b }); err != nil {
					continue
				}
				if got := int64(len(m.Entries())); got != m.Size() {
					t.Fatalf("validated tree inconsistent: %d entries, Size %d", got, m.Size())
				}
			}
		}
		// The same bytes through the codec-independent structural
		// verifier used by the scrubber and pamverify: any verdict is
		// fine, panicking or erroring on the filesystem walk is not.
		vfs := NewMemFSFrom(map[string][]byte{ckptName(1): data})
		if _, err := VerifyFiles(vfs); err != nil {
			t.Fatalf("VerifyFiles errored on fuzzed bytes: %v", err)
		}
	})
}

// FuzzWALDecode throws arbitrary bytes at the WAL record parser with
// both op codecs. The parser's contract is prefix semantics: it returns
// the batches of the longest valid prefix and its length. Whether what
// follows is crash debris or damage is walDebris's call, not the
// parser's.
func FuzzWALDecode(f *testing.F) {
	_, wal, _ := durableCorpus(f)
	for _, m := range mutations(wal) {
		f.Add(m)
	}

	kvEnc := storeOpCodec(pam.Uint64Codec())
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, valid := decodeWALFile(kvEnc, data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		// A record costs at least its 8-byte header.
		if len(batches)*8 > valid {
			t.Fatalf("%d batches from a %d-byte valid prefix", len(batches), valid)
		}
		// Prefix semantics: re-parsing the valid prefix must accept all
		// of it and yield the same batches.
		again, v2 := decodeWALFile(kvEnc, data[:valid])
		if v2 != valid || len(again) != len(batches) {
			t.Fatalf("re-parse of valid prefix diverged: %d/%d bytes, %d/%d batches",
				v2, valid, len(again), len(batches))
		}
		for i := range batches {
			if again[i].seq != batches[i].seq || len(again[i].ops) != len(batches[i].ops) {
				t.Fatalf("re-parse changed batch %d", i)
			}
		}
		// The same bytes through the point-op codec.
		pb, pvalid := decodeWALFile(pointOpEnc, data)
		if pvalid < 0 || pvalid > len(data) || len(pb)*8 > pvalid {
			t.Fatalf("point-op parse: %d batches, valid %d of %d", len(pb), pvalid, len(data))
		}
	})
}
