package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func testCodec() *Codec[int, int64] {
	return &Codec[int, int64]{
		AppendKey: func(buf []byte, k int) []byte { return binary.AppendVarint(buf, int64(k)) },
		KeyAt: func(data []byte) (int, int, error) {
			v, n := binary.Varint(data)
			if n <= 0 {
				return 0, 0, ErrCorrupt
			}
			return int(v), n, nil
		},
		AppendVal: func(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) },
		ValAt: func(data []byte) (int64, int, error) {
			v, n := binary.Varint(data)
			if n <= 0 {
				return 0, 0, ErrCorrupt
			}
			return v, n, nil
		},
	}
}

// TestEncodeDecodeRoundTrip encodes and decodes trees of every scheme
// and several block sizes, checking exact contents and full structural
// validity (including recomputed augmented values) of the decoded tree.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for sch := Scheme(0); sch < NumSchemes; sch++ {
		for _, block := range []int{0, 2, 5} {
			for _, n := range []int{0, 1, 7, 300} {
				cfg := Config{Scheme: sch, Block: block}
				tr := New[int, int64, int64, sumTraits](cfg)
				for i := 0; i < n; i++ {
					tr = tr.Insert((i*37)%(2*n+1), int64(i))
				}
				rs := NewRecordSet[int, int64, int64]()
				buf, root, wrote := EncodeDelta(tr, rs, testCodec(), nil)
				if n == 0 && (root != 0 || wrote != 0 || len(buf) != 0) {
					t.Fatalf("empty tree encoded to %d records, root %d", wrote, root)
				}
				tb := NewDecodeTable[int, int64, int64, sumTraits](cfg)
				rest, err := tb.DecodeRecords(testCodec(), buf, wrote)
				if err != nil {
					t.Fatalf("scheme %v block %d n %d: decode: %v", sch, block, n, err)
				}
				if len(rest) != 0 {
					t.Fatalf("decode left %d bytes", len(rest))
				}
				got, err := tb.Tree(root)
				if err != nil {
					t.Fatalf("Tree(%d): %v", root, err)
				}
				if err := got.Validate(func(a, b int64) bool { return a == b }); err != nil {
					t.Fatalf("scheme %v block %d n %d: decoded tree invalid: %v", sch, block, n, err)
				}
				we, ge := tr.Entries(), got.Entries()
				if len(we) != len(ge) {
					t.Fatalf("decoded %d entries, want %d", len(ge), len(we))
				}
				for i := range we {
					if we[i] != ge[i] {
						t.Fatalf("entry %d = %v, want %v", i, ge[i], we[i])
					}
				}
				if tr.AugVal() != got.AugVal() {
					t.Fatalf("AugVal = %d, want %d", got.AugVal(), tr.AugVal())
				}
			}
		}
	}
}

// TestEncodeDeltaShares checks that a second tree sharing structure
// with an already-encoded one writes only its unshared nodes, and that
// both decoded trees reproduce the sharing (decode each root from one
// table and compare).
func TestEncodeDeltaShares(t *testing.T) {
	tr := New[int, int64, int64, sumTraits](Config{})
	for i := 0; i < 5000; i++ {
		tr = tr.Insert(i, int64(i))
	}
	rs := NewRecordSet[int, int64, int64]()
	buf, root0, wrote0 := EncodeDelta(tr, rs, testCodec(), nil)
	tr2 := tr.Insert(5000, 5000).Insert(-3, 1).Delete(17)
	buf, root1, wrote1 := EncodeDelta(tr2, rs, testCodec(), buf)
	if wrote1 >= wrote0/4 {
		t.Fatalf("delta after 3 updates wrote %d records vs %d for the base — not incremental", wrote1, wrote0)
	}
	tb := NewDecodeTable[int, int64, int64, sumTraits](Config{})
	rest, err := tb.DecodeRecords(testCodec(), buf, wrote0+wrote1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d bytes", len(rest))
	}
	for _, tc := range []struct {
		id   uint64
		want Tree[int, int64, int64, sumTraits]
	}{{root0, tr}, {root1, tr2}} {
		got, err := tb.Tree(tc.id)
		if err != nil {
			t.Fatalf("Tree(%d): %v", tc.id, err)
		}
		if err := got.Validate(func(a, b int64) bool { return a == b }); err != nil {
			t.Fatalf("decoded tree invalid: %v", err)
		}
		if got.Size() != tc.want.Size() || got.AugVal() != tc.want.AugVal() {
			t.Fatalf("decoded tree size/aug = %d/%d, want %d/%d",
				got.Size(), got.AugVal(), tc.want.Size(), tc.want.AugVal())
		}
	}
}

// TestEncodeDeltaPolylog is the incremental-checkpoint cost bound: a
// delta after k updates to an n-entry tree writes O(k · log n) records
// (each update path-copies O(log n) interior nodes plus one leaf
// block), far below the O(n/B + n-ish) records of a full encoding.
func TestEncodeDeltaPolylog(t *testing.T) {
	const n = 1 << 16
	tr := New[int, int64, int64, sumTraits](Config{})
	items := make([]Entry[int, int64], n)
	for i := range items {
		items[i] = Entry[int, int64]{Key: i, Val: int64(i)}
	}
	tr = tr.BuildSorted(items)
	rs := NewRecordSet[int, int64, int64]()
	_, _, full := EncodeDelta(tr, rs, testCodec(), nil)

	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 16, 256} {
		t2 := tr
		for i := 0; i < k; i++ {
			t2 = t2.Insert(rng.Intn(2*n), int64(i))
		}
		_, _, wrote := EncodeDelta(t2, rs, testCodec(), nil)
		logn := math.Log2(n)
		// Per update: ≤ ~log n interior copies + a handful of leaf
		// blocks (an insert can split one block into two plus touch a
		// neighbor). The constant 4 absorbs rebalancing copies.
		bound := int(4*logn+8) * k
		if wrote > bound {
			t.Fatalf("delta after %d updates wrote %d records, bound %d (full encoding: %d)", k, wrote, bound, full)
		}
		if wrote >= full/4 {
			t.Fatalf("delta after %d updates wrote %d records, full encoding only %d — not incremental", k, wrote, full)
		}
		tr = t2 // chain the checkpoints like the serving layer does
	}
}

// TestDecodeCorrupt feeds malformed streams to the decoder: every
// mutation must produce an error or a tree that fails Validate — never
// a panic, never a silently wrong tree.
func TestDecodeCorrupt(t *testing.T) {
	tr := New[int, int64, int64, sumTraits](Config{})
	for i := 0; i < 500; i++ {
		tr = tr.Insert(i*3, int64(i))
	}
	rs := NewRecordSet[int, int64, int64]()
	buf, root, wrote := EncodeDelta(tr, rs, testCodec(), nil)
	want := tr.Entries()

	check := func(name string, data []byte) {
		t.Helper()
		tb := NewDecodeTable[int, int64, int64, sumTraits](Config{})
		rest, err := tb.DecodeRecords(testCodec(), data, wrote)
		if err != nil {
			return // rejected: good
		}
		if len(rest) != 0 {
			return // trailing garbage detected by the caller's framing
		}
		got, err := tb.Tree(root)
		if err != nil {
			return
		}
		if err := got.Validate(func(a, b int64) bool { return a == b }); err != nil {
			return // structurally rejected: good
		}
		// It decoded and validated: it must then be byte-identical input
		// or at least the same logical contents.
		ge := got.Entries()
		if len(ge) != len(want) {
			t.Errorf("%s: corrupt stream decoded+validated to %d entries (want %d)", name, len(ge), len(want))
		}
	}

	// Truncations at every prefix length (sampled).
	for cut := 0; cut < len(buf); cut += 17 {
		check("truncate", buf[:cut])
	}
	// Single bit flips (sampled).
	for pos := 0; pos < len(buf); pos += 13 {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 1 << (pos % 8)
		check("bitflip", mut)
	}
	// Duplicate a record's bytes (prefix doubling).
	dup := append(append([]byte(nil), buf[:40]...), buf...)
	check("dup", dup)
}

// forkChain is a sequence of trees each derived from the one before, so
// consecutive checkpoints share structure the way a live store's do.
// Step 3 inserts more entries than its predecessor holds, so committing
// its delta folds the base into the fork rather than the other way.
func forkChain() []Tree[int, int64, int64, sumTraits] {
	tr := New[int, int64, int64, sumTraits](Config{Block: 4})
	var out []Tree[int, int64, int64, sumTraits]
	for i := 0; i < 300; i++ {
		tr = tr.Insert(i*2, int64(i))
	}
	out = append(out, tr)
	out = append(out, tr.Insert(7, 7).Delete(40).Insert(1001, 3))
	out = append(out, out[1].Delete(0).Delete(2).Insert(5, -5))
	big := out[2]
	for i := 0; i < 2000; i++ {
		big = big.Insert(10000+i, int64(i))
	}
	out = append(out, big)
	out = append(out, big.Delete(10500).Insert(-1, 1))
	return out
}

// TestRecordSetForkUncommitted pins that a fork never committed leaves
// its base as it was: NextID, Len, and the digests and ids of every
// record the base already held.
func TestRecordSetForkUncommitted(t *testing.T) {
	trees := forkChain()
	rs := NewRecordSet[int, int64, int64]()
	EncodeDelta(trees[0], rs, testCodec(), nil)
	next, n := rs.NextID(), rs.Len()
	sum0, ok := RootDigest(trees[0], rs)
	if !ok {
		t.Fatal("base lost the root it just encoded")
	}
	ids := make(map[*node[int, int64, int64]]recMeta, len(rs.ids))
	for k, m := range rs.ids {
		ids[k] = m
	}

	fork := rs.Fork()
	_, _, wrote := EncodeDelta(trees[1], fork, testCodec(), nil)
	if wrote == 0 || fork.NextID() != next+uint64(wrote) || fork.Len() != n+wrote {
		t.Fatalf("fork wrote %d records: NextID %d Len %d, want %d and %d", wrote, fork.NextID(), fork.Len(), next+uint64(wrote), n+wrote)
	}
	if rs.NextID() != next || rs.Len() != n {
		t.Fatalf("uncommitted fork moved its base: NextID %d Len %d, want %d and %d", rs.NextID(), rs.Len(), next, n)
	}
	if got, ok := RootDigest(trees[0], rs); !ok || got != sum0 {
		t.Fatal("uncommitted fork changed the base's root digest")
	}
	if _, ok := RootDigest(trees[1], rs); ok {
		t.Fatal("base knows a root only its uncommitted fork encoded")
	}
	if len(rs.ids) != len(ids) {
		t.Fatalf("base map grew from %d to %d entries", len(ids), len(rs.ids))
	}
	for k, m := range ids {
		if rs.ids[k] != m {
			t.Fatalf("base record %d changed under an uncommitted fork", m.id)
		}
	}
}

// TestRecordSetForkCommitMatchesDirect pins that encoding each tree
// against a fork and committing it gives the same bytes, ids, digests,
// NextID and Len as encoding the whole sequence against one set — what
// the old clone-and-swap protocol produced. An abandoned fork between
// the steps, a failed checkpoint, must not perturb anything.
func TestRecordSetForkCommitMatchesDirect(t *testing.T) {
	direct := NewRecordSet[int, int64, int64]()
	chain := NewRecordSet[int, int64, int64]()
	for i, tr := range forkChain() {
		abandoned := chain.Fork()
		EncodeDelta(tr.Insert(-100, 1), abandoned, testCodec(), nil)

		wantBuf, wantRoot, wantWrote := EncodeDelta(tr, direct, testCodec(), nil)
		wantSum, _ := RootDigest(tr, direct)

		fork := chain.Fork()
		buf, root, wrote := EncodeDelta(tr, fork, testCodec(), nil)
		sum, ok := RootDigest(tr, fork)
		if !ok || sum != wantSum {
			t.Fatalf("step %d: fork root digest differs from the direct encode", i)
		}
		fork.Commit()
		chain = fork
		if string(buf) != string(wantBuf) || root != wantRoot || wrote != wantWrote {
			t.Fatalf("step %d: fork wrote %d records (root %d), direct %d (root %d), bytes equal %v",
				i, wrote, root, wantWrote, wantRoot, string(buf) == string(wantBuf))
		}
		if chain.base != nil {
			t.Fatalf("step %d: committed fork still has a base", i)
		}
		if chain.NextID() != direct.NextID() || chain.Len() != direct.Len() {
			t.Fatalf("step %d: committed NextID/Len %d/%d, direct %d/%d",
				i, chain.NextID(), chain.Len(), direct.NextID(), direct.Len())
		}
		for k, m := range direct.ids {
			if got, ok := chain.lookup(k); !ok || got != m {
				t.Fatalf("step %d: record %d missing or different after commit", i, m.id)
			}
		}
	}
}

// TestRecordSetForkAllocs pins that a fork costs O(1) whatever the size
// of its base: forking a set of over 100k records allocates the same
// small constant as forking an empty one.
func TestRecordSetForkAllocs(t *testing.T) {
	items := make([]Entry[int, int64], 150_000)
	for i := range items {
		items[i] = Entry[int, int64]{Key: i, Val: int64(i)}
	}
	tr := New[int, int64, int64, sumTraits](Config{Block: 2}).BuildSorted(items)
	rs := NewRecordSet[int, int64, int64]()
	EncodeDelta(tr, rs, testCodec(), nil)
	if rs.Len() < 100_000 {
		t.Fatalf("set holds %d records, want at least 100k", rs.Len())
	}
	var fork *RecordSet[int, int64, int64]
	if allocs := testing.AllocsPerRun(100, func() { fork = rs.Fork() }); allocs > 2 || fork.Len() != rs.Len() {
		t.Fatalf("Fork of a %d-record set made %.0f allocations, want at most 2", rs.Len(), allocs)
	}
}
