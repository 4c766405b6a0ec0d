package serve

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/pam"
	"repro/rangetree"
)

type sumStore = Store[uint64, int64, int64, pam.SumEntry[uint64, int64]]
type sumView = View[uint64, int64, int64, pam.SumEntry[uint64, int64]]
type kvop = Op[uint64, int64]

// mixHash is the shard hash used throughout the tests: the shared
// splitmix64 finalizer.
var mixHash = seq.Mix64

// everything is the whole plane.
var everything = rangetree.Rect{
	XLo: math.Inf(-1), XHi: math.Inf(1),
	YLo: math.Inf(-1), YHi: math.Inf(1),
}

func newHash(t testing.TB, shards int) *sumStore {
	s, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, shards, mixHash)
	if err != nil {
		t.Fatalf("NewHashStore: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func newRange(t testing.TB, splits ...uint64) *sumStore {
	s := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, splits)
	t.Cleanup(s.Close)
	return s
}

func viewEntries(v sumView) []pam.KV[uint64, int64] { return v.Entries() }

func TestStoreBasics(t *testing.T) {
	for name, s := range map[string]*sumStore{
		"hash":  newHash(t, 4),
		"range": newRange(t, 100, 200, 300),
	} {
		t.Run(name, func(t *testing.T) {
			if s.NumShards() != 4 {
				t.Fatalf("NumShards = %d", s.NumShards())
			}
			seq0, err := s.Apply([]kvop{
				{Kind: OpPut, Key: 42, Val: 1},
				{Kind: OpPut, Key: 150, Val: 2},
				{Kind: OpPut, Key: 250, Val: 3},
				{Kind: OpPut, Key: 350, Val: 4},
			})
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			seq1, err := s.Put(42, 10)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if seq1 <= seq0 {
				t.Fatalf("sequence not increasing: %d then %d", seq0, seq1)
			}
			s.Delete(250)
			s.Delete(9999) // absent: no-op

			v, _ := s.Snapshot()
			if got := v.Size(); got != 3 {
				t.Fatalf("Size = %d", got)
			}
			if val, ok := v.Find(42); !ok || val != 10 {
				t.Fatalf("Find(42) = %d, %v", val, ok)
			}
			if v.Contains(250) {
				t.Fatal("deleted key still present")
			}
			if got := v.AugVal(); got != 16 {
				t.Fatalf("AugVal = %d", got)
			}
			if got := v.AugRange(0, 200); got != 12 {
				t.Fatalf("AugRange(0,200) = %d", got)
			}
			wantKeys := []uint64{42, 150, 350}
			if got := v.Keys(); !slices.Equal(got, wantKeys) {
				t.Fatalf("Keys = %v", got)
			}
			var ranged []uint64
			v.ForEachRange(100, 360, func(k uint64, _ int64) bool {
				ranged = append(ranged, k)
				return true
			})
			if !slices.Equal(ranged, []uint64{150, 350}) {
				t.Fatalf("ForEachRange = %v", ranged)
			}
			// Early-exit iteration.
			var first []uint64
			v.ForEach(func(k uint64, _ int64) bool {
				first = append(first, k)
				return len(first) < 2
			})
			if !slices.Equal(first, []uint64{42, 150}) {
				t.Fatalf("early-exit ForEach = %v", first)
			}
			if got := len(v.Versions()); got != 4 {
				t.Fatalf("Versions len = %d", got)
			}
		})
	}
}

// TestBatchOrderWithinBatch checks that ops of one batch apply in slice
// order: put-delete-put on one key must leave the last value. The last
// input is coalesced: several async batches queue behind each shard's
// held first flush, reach apply together once the gate opens, and must
// still equal the batches applied in sequence.
func TestBatchOrderWithinBatch(t *testing.T) {
	s := newHash(t, 2)
	s.Apply([]kvop{
		{Kind: OpPut, Key: 7, Val: 1},
		{Kind: OpDelete, Key: 7},
		{Kind: OpPut, Key: 7, Val: 3},
		{Kind: OpPut, Key: 7, Val: 4},
	})
	v, _ := s.Snapshot()
	if val, ok := v.Find(7); !ok || val != 4 {
		t.Fatalf("Find(7) = %d, %v, want 4", val, ok)
	}
	s.Apply([]kvop{
		{Kind: OpPut, Key: 8, Val: 1},
		{Kind: OpDelete, Key: 8},
	})
	if v2, _ := s.Snapshot(); v2.Contains(8) {
		t.Fatal("put-then-delete left the key present")
	}

	held := newHash(t, 2)
	_, release := holdFlushes(t, held.eng)
	rng := rand.New(rand.NewSource(7))
	oracle := map[uint64]int64{}
	nOps := 0
	for b := 0; b < 8; b++ {
		ops := make([]kvop, 1+rng.Intn(12))
		for i := range ops {
			k := uint64(rng.Intn(16))
			if rng.Intn(2) == 0 {
				ops[i] = kvop{Kind: OpDelete, Key: k}
				delete(oracle, k)
			} else {
				ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(b*100 + i)}
				oracle[k] = int64(b*100 + i)
			}
		}
		nOps += len(ops)
		if _, err := held.ApplyAsync(ops); err != nil {
			t.Fatalf("ApplyAsync: %v", err)
		}
	}
	var applied, queued int64
	for _, st := range held.Stats() {
		applied += int64(st.AppliedOps)
		queued += st.QueuedOps
	}
	if applied != 0 || queued != int64(nOps) {
		t.Fatalf("before release: %d ops applied, %d queued; want 0, %d (all held)", applied, queued, nOps)
	}
	release()
	hv, err := held.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var want []pam.KV[uint64, int64]
	for _, k := range slices.Sorted(maps.Keys(oracle)) {
		want = append(want, pam.KV[uint64, int64]{Key: k, Val: oracle[k]})
	}
	if got := viewEntries(hv); !slices.Equal(got, want) {
		t.Fatalf("coalesced flush = %v, sequential oracle = %v", got, want)
	}
}

// TestApplyOpsFold checks the net-update fold of a shard flush against
// applying the same ops one at a time, on flat and compressed leaves:
// random op slices over a 32-key space at 50% deletes, plus put-delete-put
// on one key and all-put and all-delete slices with repeated keys, which
// take the one-kind path.
func TestApplyOpsFold(t *testing.T) {
	type sumMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	rng := rand.New(rand.NewSource(11))
	random := func(n int, delPct int) []kvop {
		ops := make([]kvop, n)
		for i := range ops {
			k := uint64(rng.Intn(32))
			if rng.Intn(100) < delPct {
				ops[i] = kvop{Kind: OpDelete, Key: k}
			} else {
				ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(1000)) - 500}
			}
		}
		return ops
	}
	cases := [][]kvop{
		nil,
		{{Kind: OpPut, Key: 3, Val: 1}, {Kind: OpDelete, Key: 3}, {Kind: OpPut, Key: 3, Val: 2}},
		{{Kind: OpDelete, Key: 4}, {Kind: OpPut, Key: 4, Val: 5}, {Kind: OpDelete, Key: 4}},
		{{Kind: OpPut, Key: 5, Val: 1}, {Kind: OpPut, Key: 6, Val: 2}, {Kind: OpPut, Key: 5, Val: 3}},
		{{Kind: OpDelete, Key: 8}, {Kind: OpDelete, Key: 2}, {Kind: OpDelete, Key: 8}},
		random(64, 0),
		random(64, 100),
	}
	for n := 1; n <= 128; n *= 2 {
		for r := 0; r < 8; r++ {
			cases = append(cases, random(n, 50))
		}
	}
	for name, opts := range map[string]pam.Options{
		"flat":       {},
		"compressed": {Compress: pam.CompressUint64()},
	} {
		t.Run(name, func(t *testing.T) {
			var start sumMap = pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
			for k := uint64(0); k < 32; k += 2 {
				start = start.Insert(k, int64(k))
			}
			for i, ops := range cases {
				in := slices.Clone(ops)
				got := applyOps(start, ops)
				want := start
				for _, o := range ops {
					if o.Kind == OpPut {
						want = want.Insert(o.Key, o.Val)
					} else {
						want = want.Delete(o.Key)
					}
				}
				if err := got.Validate(func(x, y int64) bool { return x == y }); err != nil {
					t.Fatalf("case %d: invariants: %v", i, err)
				}
				if got.Size() != want.Size() || got.AugVal() != want.AugVal() || !slices.Equal(got.Entries(), want.Entries()) {
					t.Fatalf("case %d (%v): fold = %v, one at a time = %v", i, ops, got.Entries(), want.Entries())
				}
				if !slices.Equal(ops, in) {
					t.Fatalf("case %d: applyOps modified its input", i)
				}
			}
		})
	}
}

// TestSnapshotImmutable checks that a view never changes after later
// writes — the zero-copy persistence guarantee.
func TestSnapshotImmutable(t *testing.T) {
	s := newRange(t, 500)
	for i := uint64(0); i < 100; i++ {
		s.Put(i*10, int64(i))
	}
	v1, _ := s.Snapshot()
	sum1 := v1.AugVal()
	n1 := v1.Size()
	for i := uint64(0); i < 100; i++ {
		s.Delete(i * 10)
	}
	if v1.Size() != n1 || v1.AugVal() != sum1 {
		t.Fatal("snapshot changed after later deletes")
	}
	if v2, _ := s.Snapshot(); v2.Size() != 0 {
		t.Fatalf("store size after deleting all = %d", v2.Size())
	}
}

// TestSeqPrefix checks the Seq semantics: a snapshot taken after k
// acknowledged batches (no concurrency) has Seq == k and exactly their
// contents.
func TestSeqPrefix(t *testing.T) {
	s := newHash(t, 3)
	for i := uint64(0); i < 10; i++ {
		seq, err := s.Put(i, int64(i))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if seq != i {
			t.Fatalf("batch %d got seq %d", i, seq)
		}
		v, _ := s.Snapshot()
		if v.Seq() != i+1 {
			t.Fatalf("snapshot after batch %d has Seq %d", i, v.Seq())
		}
		if got := v.Size(); got != int64(i+1) {
			t.Fatalf("snapshot after batch %d has %d entries", i, got)
		}
	}
}

func TestRebalanceEqualizes(t *testing.T) {
	// Splits at 1000,2000,3000 but all keys below 100: everything lands
	// in shard 0.
	s := newRange(t, 1000, 2000, 3000)
	const n = 64
	for i := uint64(0); i < n; i++ {
		s.Put(i, 1)
	}
	v, _ := s.Snapshot()
	if got := v.Shard(0).Size(); got != n {
		t.Fatalf("pre-rebalance shard 0 holds %d", got)
	}
	if ok, err := s.Rebalance(); err != nil || !ok {
		t.Fatalf("range store refused to rebalance: %v, %v", ok, err)
	}
	v, _ = s.Snapshot()
	if got := v.Size(); got != n {
		t.Fatalf("rebalance changed Size to %d", got)
	}
	lo, hi := int64(1<<62), int64(0)
	for i := 0; i < v.NumShards(); i++ {
		sz := v.Shard(i).Size()
		lo, hi = min(lo, sz), max(hi, sz)
	}
	if hi-lo > 1 {
		t.Fatalf("shard sizes spread %d..%d after rebalance", lo, hi)
	}
	// Contents and routing survive: every key still found, iteration sorted.
	for i := uint64(0); i < n; i++ {
		if !v.Contains(i) {
			t.Fatalf("key %d lost by rebalance", i)
		}
	}
	keys := v.Keys()
	if !slices.IsSorted(keys) || len(keys) != n {
		t.Fatalf("keys after rebalance: %v", keys)
	}
	// Writes after rebalance route to the new shards.
	s.Put(5, 100)
	v, _ = s.Snapshot()
	if val, _ := v.Find(5); val != 100 {
		t.Fatal("post-rebalance write lost")
	}
	// Hash stores refuse.
	if ok, _ := newHash(t, 2).Rebalance(); ok {
		t.Fatal("hash store claimed to rebalance")
	}
}

func TestEmptyStoreAndEmptyBatch(t *testing.T) {
	s := newRange(t, 50)
	v, _ := s.Snapshot()
	if v.Size() != 0 || v.Contains(1) {
		t.Fatal("empty store not empty")
	}
	v.ForEach(func(uint64, int64) bool { t.Fatal("visited an entry of an empty view"); return false })
	if got := len(viewEntries(v)); got != 0 {
		t.Fatalf("Entries len %d", got)
	}
	// An empty batch still gets a sequence slot and acks immediately.
	seq, err := s.Apply(nil)
	if err != nil {
		t.Fatalf("empty Apply: %v", err)
	}
	if v2, _ := s.Snapshot(); v2.Seq() != seq+1 {
		t.Fatal("empty batch did not advance the sequence")
	}
	if ok, err := s.Rebalance(); err != nil || !ok { // rebalancing an empty range store is a no-op
		t.Fatal("empty range store refused to rebalance")
	}
	if v2, _ := s.Snapshot(); v2.Size() != 0 {
		t.Fatal("rebalance invented entries")
	}
}

func TestConcurrentWritersDisjointKeys(t *testing.T) {
	s := newHash(t, 4)
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Put(uint64(w*per+i), 1)
			}
		}(w)
	}
	wg.Wait()
	v, _ := s.Snapshot()
	if got := v.Size(); got != writers*per {
		t.Fatalf("Size = %d, want %d", got, writers*per)
	}
	if got := v.AugVal(); got != writers*per {
		t.Fatalf("AugVal = %d", got)
	}
	if v.Seq() != writers*per {
		t.Fatalf("Seq = %d", v.Seq())
	}
}

func TestPointStoreBasics(t *testing.T) {
	s := NewPointStore(pam.Options{}, []float64{100, 200})
	t.Cleanup(s.Close)
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	s.Apply([]PointOp{
		InsertPoint(rangetree.Point{X: 50, Y: 10}, 5),
		InsertPoint(rangetree.Point{X: 150, Y: 20}, 7),
		InsertPoint(rangetree.Point{X: 250, Y: 30}, 9),
	})
	s.Insert(rangetree.Point{X: 50, Y: 10}, 5) // weights add
	s.Delete(rangetree.Point{X: 250, Y: 30})

	v, _ := s.Snapshot()
	if got := v.Size(); got != 2 {
		t.Fatalf("Size = %d", got)
	}
	if w, ok := v.Weight(rangetree.Point{X: 50, Y: 10}); !ok || w != 10 {
		t.Fatalf("Weight = %d, %v", w, ok)
	}
	if v.Contains(rangetree.Point{X: 250, Y: 30}) {
		t.Fatal("deleted point still present")
	}
	all := rangetree.Rect{XLo: 0, XHi: 300, YLo: 0, YHi: 100}
	if got := v.QuerySum(all); got != 17 {
		t.Fatalf("QuerySum = %d", got)
	}
	if got := v.QueryCount(all); got != 2 {
		t.Fatalf("QueryCount = %d", got)
	}
	rep := v.ReportAll(all)
	if len(rep) != 2 || rep[0].X != 50 || rep[1].X != 150 {
		t.Fatalf("ReportAll = %v", rep)
	}
	// Cross-shard rectangle.
	if got := v.QuerySum(rangetree.Rect{XLo: 100, XHi: 300, YLo: 0, YHi: 100}); got != 7 {
		t.Fatalf("cross-shard QuerySum = %d", got)
	}
}

func TestPointStoreRebalance(t *testing.T) {
	s := NewPointStore(pam.Options{}, []float64{1000, 2000})
	t.Cleanup(s.Close)
	const n = 60
	for i := 0; i < n; i++ {
		s.Insert(rangetree.Point{X: float64(i), Y: float64(i % 7)}, 1)
	}
	v, _ := s.Snapshot()
	if got := v.Shard(0).Size(); got != n {
		t.Fatalf("pre-rebalance shard 0 holds %d", got)
	}
	if ok, err := s.Rebalance(); err != nil || !ok {
		t.Fatal("point store refused to rebalance")
	}
	v, _ = s.Snapshot()
	if got := v.Size(); got != n {
		t.Fatalf("rebalance changed Size to %d", got)
	}
	lo, hi := int64(1<<62), int64(0)
	for i := 0; i < v.NumShards(); i++ {
		sz := v.Shard(i).Size()
		lo, hi = min(lo, sz), max(hi, sz)
	}
	if hi-lo > 1 {
		t.Fatalf("shard sizes spread %d..%d after rebalance", lo, hi)
	}
	if got := v.QueryCount(everything); got != n {
		t.Fatalf("QueryCount after rebalance = %d", got)
	}
	// Post-rebalance writes route correctly.
	s.Insert(rangetree.Point{X: 5, Y: 100}, 3)
	v, _ = s.Snapshot()
	if w, ok := v.Weight(rangetree.Point{X: 5, Y: 100}); !ok || w != 3 {
		t.Fatalf("post-rebalance insert: %d, %v", w, ok)
	}
}

// TestCoalescedWritesAck checks that many single-op writes racing into
// one shard all get acknowledged and applied (the mailbox coalescing
// path) — every op lands, versions count sub-batches.
func TestCoalescedWritesAck(t *testing.T) {
	s := newHash(t, 1)
	var wg sync.WaitGroup
	const n = 500
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Put(uint64(i), int64(i))
		}(i)
	}
	wg.Wait()
	v, _ := s.Snapshot()
	if got := v.Size(); got != n {
		t.Fatalf("Size = %d", got)
	}
	if got := v.Versions()[0]; got != n {
		t.Fatalf("shard version = %d, want %d sub-batches", got, n)
	}
}

// TestPointStoreRebalanceDuplicateX pins the rebalance behavior when
// one x coordinate dominates: splits must stay strictly increasing (no
// unroutable shards), contents must survive, and routing must keep
// working for new writes.
func TestPointStoreRebalanceDuplicateX(t *testing.T) {
	s := NewPointStore(pam.Options{}, []float64{10, 20, 30})
	t.Cleanup(s.Close)
	const n = 40
	for i := 0; i < n; i++ {
		s.Insert(rangetree.Point{X: 5, Y: float64(i)}, 1) // all on one x
	}
	s.Insert(rangetree.Point{X: 25, Y: 1}, 1)
	if ok, err := s.Rebalance(); err != nil || !ok {
		t.Fatal("refused to rebalance")
	}
	v, _ := s.Snapshot()
	if got := v.Size(); got != n+1 {
		t.Fatalf("Size after rebalance = %d, want %d", got, n+1)
	}
	if got := v.QueryCount(everything); got != n+1 {
		t.Fatalf("QueryCount after rebalance = %d", got)
	}
	// Points sharing an x are unsplittable, so one shard holds all of
	// x=5; the rest must still be routable: writes at any x land.
	for _, x := range []float64{0, 5, 15, 25, 99} {
		p := rangetree.Point{X: x, Y: 777}
		s.Insert(p, 2)
		vp, _ := s.Snapshot()
		if w, ok := vp.Weight(p); !ok || w != 2 {
			t.Fatalf("post-rebalance insert at x=%v: %d, %v", x, w, ok)
		}
	}
}
