package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
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

// treeNodes returns every node of t in pre-order, borrowed.
func treeNodes[K, V, A any, T Traits[K, V, A]](t Tree[K, V, A, T]) []*node[K, V, A] {
	var out []*node[K, V, A]
	var walk func(n *node[K, V, A])
	walk = func(n *node[K, V, A]) {
		if n != nil {
			out = append(out, n)
			walk(n.left)
			walk(n.right)
		}
	}
	walk(t.root)
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
	ids := make(map[*node[int, int64, int64]]recMeta)
	for _, nd := range treeNodes(trees[0]) {
		m, ok := rs.lookup(nd)
		if !ok {
			t.Fatal("base does not know a node it just encoded")
		}
		ids[nd] = m
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
	for _, nd := range append(treeNodes(trees[0]), treeNodes(trees[1])...) {
		got, ok := rs.lookup(nd)
		want, had := ids[nd]
		if ok != had {
			t.Fatalf("base knows a node: %v, before the fork: %v", ok, had)
		}
		if got != want {
			t.Fatalf("base record %d changed under an uncommitted fork", want.id)
		}
	}
}

// TestRecordSetForkCommitMatchesDirect pins that encoding each tree
// against a fork and committing it gives the same bytes, ids, digests,
// NextID and Len as encoding the whole sequence against one set — what
// the old clone-and-swap protocol produced. An abandoned fork between
// the steps, a failed checkpoint, must not perturb anything. The direct
// side encodes a separately built copy of the same trees, because a
// node remembers only the last chain that encoded it.
func TestRecordSetForkCommitMatchesDirect(t *testing.T) {
	direct := NewRecordSet[int, int64, int64]()
	chain := NewRecordSet[int, int64, int64]()
	trees, copies := forkChain(), forkChain()
	for i, tr := range trees {
		abandoned := chain.Fork()
		EncodeDelta(tr.Insert(-100, 1), abandoned, testCodec(), nil)

		wantBuf, wantRoot, wantWrote := EncodeDelta(copies[i], direct, testCodec(), nil)
		wantSum, _ := RootDigest(copies[i], direct)

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
		if chain.NextID() != direct.NextID() || chain.Len() != direct.Len() {
			t.Fatalf("step %d: committed NextID/Len %d/%d, direct %d/%d",
				i, chain.NextID(), chain.Len(), direct.NextID(), direct.Len())
		}
		for j := 0; j <= i; j++ {
			cn, dn := treeNodes(trees[j]), treeNodes(copies[j])
			if len(cn) != len(dn) {
				t.Fatalf("step %d: tree %d and its copy have %d and %d nodes", i, j, len(cn), len(dn))
			}
			for x := range dn {
				m, _ := direct.lookup(dn[x])
				if got, ok := chain.lookup(cn[x]); !ok || got != m {
					t.Fatalf("step %d: record %d missing or different after commit", i, m.id)
				}
			}
		}
	}
}

// TestRecordSetAbandonedForkNoAlias pins that the stamps an abandoned
// fork leaves are accepted neither by its base nor by the next fork of
// that base, which hands out the same ids again: the next fork rewrites
// those nodes under its own ids, and its chain decodes to its trees.
func TestRecordSetAbandonedForkNoAlias(t *testing.T) {
	trees := forkChain()
	rs := NewRecordSet[int, int64, int64]()
	buf, _, wrote0 := EncodeDelta(trees[0], rs, testCodec(), nil)

	abandoned := rs.Fork()
	_, _, wrote1 := EncodeDelta(trees[1], abandoned, testCodec(), nil)
	fork := rs.Fork()
	if fork.NextID() != rs.NextID() {
		t.Fatalf("next fork starts at id %d, want the abandoned fork's %d", fork.NextID(), rs.NextID())
	}
	for _, nd := range treeNodes(trees[1]) {
		_, inBase := rs.lookup(nd)
		_, inFork := fork.lookup(nd)
		if _, mine := abandoned.lookup(nd); !mine || inFork != inBase {
			t.Fatalf("abandoned fork knows the node: %v; base %v, next fork %v", mine, inBase, inFork)
		}
	}
	if _, ok := RootDigest(trees[1], rs); ok {
		t.Fatal("base accepts the abandoned fork's root")
	}

	// trees[2] shares most of its nodes with trees[1]; the next fork must
	// write every one the abandoned fork stamped.
	buf, root1, wrote1b := EncodeDelta(trees[1], fork, testCodec(), buf)
	buf, root2, wrote2 := EncodeDelta(trees[2], fork, testCodec(), buf)
	if wrote1b != wrote1 {
		t.Fatalf("next fork wrote %d records for the abandoned fork's tree, want %d", wrote1b, wrote1)
	}
	fork.Commit()
	tb := NewDecodeTable[int, int64, int64, sumTraits](Config{Block: 4})
	if rest, err := tb.DecodeRecords(testCodec(), buf, wrote0+wrote1b+wrote2); err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	for _, tc := range []struct {
		id   uint64
		want Tree[int, int64, int64, sumTraits]
	}{{root1, trees[1]}, {root2, trees[2]}} {
		checkDecoded(t, tb, tc.id, tc.want)
	}
}

// checkDecoded checks that the table's tree at id is valid and has
// want's entries and root digest.
func checkDecoded(t *testing.T, tb *DecodeTable[int, int64, int64, sumTraits], id uint64, want Tree[int, int64, int64, sumTraits]) {
	t.Helper()
	got, err := tb.Tree(id)
	if err != nil {
		t.Fatalf("Tree(%d): %v", id, err)
	}
	if err := got.Validate(func(a, b int64) bool { return a == b }); err != nil {
		t.Fatalf("decoded tree %d invalid: %v", id, err)
	}
	we, ge := want.Entries(), got.Entries()
	if len(we) != len(ge) {
		t.Fatalf("decoded tree %d has %d entries, want %d", id, len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("decoded tree %d: entry %d = %v, want %v", id, i, ge[i], we[i])
		}
	}
	sum, _ := tb.Digest(id)
	ref := NewRecordSet[int, int64, int64]()
	EncodeDelta(want, ref, testCodec(), nil)
	if wantSum, _ := RootDigest(want, ref); sum != wantSum {
		t.Fatalf("decoded tree %d has a different root digest", id)
	}
}

// TestRecordSetAlternatingChains encodes the same trees into two chains
// in turn. Each node remembers only the last chain that encoded it, so
// after the first step every delta of either chain rewrites its whole
// tree; both chains still decode to the trees.
func TestRecordSetAlternatingChains(t *testing.T) {
	trees := forkChain()
	type chain struct {
		rs    *RecordSet[int, int64, int64]
		buf   []byte
		recs  int
		roots []uint64
	}
	chains := []*chain{{rs: NewRecordSet[int, int64, int64]()}, {rs: NewRecordSet[int, int64, int64]()}}
	for i, tr := range trees {
		for _, c := range chains {
			fork := c.rs.Fork()
			var root uint64
			var wrote int
			c.buf, root, wrote = EncodeDelta(tr, fork, testCodec(), c.buf)
			fork.Commit()
			c.rs = fork
			c.recs += wrote
			c.roots = append(c.roots, root)
			if n := len(treeNodes(tr)); i > 0 && wrote != n {
				t.Fatalf("step %d: delta wrote %d records, want the whole tree's %d", i, wrote, n)
			}
		}
	}
	for _, c := range chains {
		tb := NewDecodeTable[int, int64, int64, sumTraits](Config{Block: 4})
		if rest, err := tb.DecodeRecords(testCodec(), c.buf, c.recs); err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v, %d bytes left", err, len(rest))
		}
		for i, id := range c.roots {
			checkDecoded(t, tb, id, trees[i])
		}
	}
}

// TestRecordSetConcurrentEncode encodes one forest into two sets from
// two goroutines at once, each as a fork-and-commit chain the way the
// serve layer checkpoints. Stamps are atomic, so under the race
// detector nothing races; each chain decodes to the contents and root
// digests of the trees.
func TestRecordSetConcurrentEncode(t *testing.T) {
	trees := forkChain()
	for round := 0; round < 10; round++ {
		type result struct {
			buf   []byte
			recs  int
			roots []uint64
		}
		res := make([]result, 2)
		var wg sync.WaitGroup
		for g := range res {
			wg.Add(1)
			go func(r *result) {
				defer wg.Done()
				rs := NewRecordSet[int, int64, int64]()
				for _, tr := range trees {
					fork := rs.Fork()
					var root uint64
					var wrote int
					r.buf, root, wrote = EncodeDelta(tr, fork, testCodec(), r.buf)
					fork.Commit()
					rs = fork
					r.recs += wrote
					r.roots = append(r.roots, root)
				}
			}(&res[g])
		}
		wg.Wait()
		for _, r := range res {
			tb := NewDecodeTable[int, int64, int64, sumTraits](Config{Block: 4})
			if rest, err := tb.DecodeRecords(testCodec(), r.buf, r.recs); err != nil || len(rest) != 0 {
				t.Fatalf("round %d: decode: %v, %d bytes left", round, err, len(rest))
			}
			for i, id := range r.roots {
				checkDecoded(t, tb, id, trees[i])
			}
		}
	}
}

// TestRecordSetForkAllocs pins that a fork costs O(1) whatever the size
// of its base: forking a set of over 100k records allocates the same
// small constant as forking an empty one, and committing allocates
// nothing.
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
	if _, _, wrote := EncodeDelta(tr.Insert(-1, 1), fork, testCodec(), nil); wrote == 0 {
		t.Fatal("fork wrote no records")
	}
	if allocs := testing.AllocsPerRun(100, fork.Commit); allocs != 0 {
		t.Fatalf("Commit made %.0f allocations, want 0", allocs)
	}
}
