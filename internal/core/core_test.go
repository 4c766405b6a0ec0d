package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

// sumTraits: integer keys, int64 values, augmented by value sum — the
// paper's Equation 1 map type.
type sumTraits struct{}

func (sumTraits) Less(a, b int) bool        { return a < b }
func (sumTraits) Id() int64                 { return 0 }
func (sumTraits) Base(_ int, v int64) int64 { return v }
func (sumTraits) Combine(x, y int64) int64  { return x + y }

// maxTraits: augmented by max value, identity minInt64.
type maxTraits struct{}

const negInf = int64(-1 << 62)

func (maxTraits) Less(a, b int) bool        { return a < b }
func (maxTraits) Id() int64                 { return negInf }
func (maxTraits) Base(_ int, v int64) int64 { return v }
func (maxTraits) Combine(x, y int64) int64  { return max(x, y) }

// noAugTraits: plain map, no augmentation.
type noAugTraits struct{}

func (noAugTraits) Less(a, b int) bool                  { return a < b }
func (noAugTraits) Id() struct{}                        { return struct{}{} }
func (noAugTraits) Base(int, int64) struct{}            { return struct{}{} }
func (noAugTraits) Combine(struct{}, struct{}) struct{} { return struct{}{} }

// cmpCount counts comparisons for the empirical work-bound tests
// (Table 2). countingTraits must stay zero-size so the global is shared.
var cmpCount atomic.Int64

type countingTraits struct{}

func (countingTraits) Less(a, b int) bool        { cmpCount.Add(1); return a < b }
func (countingTraits) Id() int64                 { return 0 }
func (countingTraits) Base(_ int, v int64) int64 { return v }
func (countingTraits) Combine(x, y int64) int64  { return x + y }

type sumTree = Tree[int, int64, int64, sumTraits]

func i64eq(a, b int64) bool { return a == b }

var allSchemes = []Scheme{WeightBalanced, AVL, RedBlack, Treap}

func newSum(sch Scheme) sumTree {
	return New[int, int64, int64, sumTraits](Config{Scheme: sch})
}

// model is the reference implementation every scheme is checked against.
type model map[int]int64

func (m model) entries() []Entry[int, int64] {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Entry[int, int64], len(keys))
	for i, k := range keys {
		out[i] = Entry[int, int64]{Key: k, Val: m[k]}
	}
	return out
}

// mustMatch verifies that t holds exactly the model's entries and that
// all invariants hold.
func mustMatch(t *testing.T, tr sumTree, m model) {
	t.Helper()
	if err := tr.Validate(i64eq); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	got := tr.Entries()
	want := m.entries()
	if len(got) != len(want) {
		t.Fatalf("size: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func forAllSchemes(t *testing.T, f func(t *testing.T, sch Scheme)) {
	t.Helper()
	for _, sch := range allSchemes {
		t.Run(sch.String(), func(t *testing.T) { f(t, sch) })
	}
}

func TestEmptyTree(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		tr := newSum(sch)
		if !tr.IsEmpty() || tr.Size() != 0 {
			t.Fatal("new tree not empty")
		}
		if _, ok := tr.Find(1); ok {
			t.Fatal("found key in empty tree")
		}
		if got := tr.AugVal(); got != 0 {
			t.Fatalf("AugVal of empty: %d", got)
		}
		if err := tr.Validate(i64eq); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := tr.First(); ok {
			t.Fatal("First on empty returned ok")
		}
		if _, _, ok := tr.Last(); ok {
			t.Fatal("Last on empty returned ok")
		}
	})
}

func TestZeroValueTreeUsable(t *testing.T) {
	var tr sumTree // zero value: weight-balanced, default grain
	tr = tr.Insert(1, 10).Insert(2, 20)
	if v, ok := tr.Find(2); !ok || v != 20 {
		t.Fatalf("zero-value tree broken: %v %v", v, ok)
	}
	if tr.AugVal() != 30 {
		t.Fatalf("AugVal = %d", tr.AugVal())
	}
}

func TestInsertFindDelete(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(1))
		tr := newSum(sch)
		m := model{}
		for i := 0; i < 3000; i++ {
			k := rng.Intn(1000)
			v := int64(rng.Intn(100))
			tr = tr.Insert(k, v)
			m[k] = v
		}
		mustMatch(t, tr, m)
		// Delete half the present keys and some absent ones.
		for k := range m {
			if k%2 == 0 {
				tr = tr.Delete(k)
				delete(m, k)
			}
		}
		tr = tr.Delete(-5).Delete(10_000)
		mustMatch(t, tr, m)
		for k, v := range m {
			got, ok := tr.Find(k)
			if !ok || got != v {
				t.Fatalf("Find(%d) = %d,%v want %d", k, got, ok, v)
			}
		}
	})
}

func TestInsertWith(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		tr := newSum(sch)
		add := func(old, new int64) int64 { return old + new }
		for i := 0; i < 10; i++ {
			tr = tr.InsertWith(7, 1, add)
		}
		if v, _ := tr.Find(7); v != 10 {
			t.Fatalf("InsertWith accumulated %d, want 10", v)
		}
		if tr.Size() != 1 {
			t.Fatalf("size %d", tr.Size())
		}
	})
}

func TestOrderedQueries(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		tr := newSum(sch)
		// keys 0, 10, 20, ..., 990
		for i := 0; i < 100; i++ {
			tr = tr.Insert(i*10, int64(i))
		}
		if k, _, _ := tr.First(); k != 0 {
			t.Fatalf("First = %d", k)
		}
		if k, _, _ := tr.Last(); k != 990 {
			t.Fatalf("Last = %d", k)
		}
		if k, _, ok := tr.Previous(55); !ok || k != 50 {
			t.Fatalf("Previous(55) = %d, %v", k, ok)
		}
		if k, _, ok := tr.Previous(50); !ok || k != 40 {
			t.Fatalf("Previous(50) = %d (strictly-less expected 40)", k)
		}
		if _, _, ok := tr.Previous(0); ok {
			t.Fatal("Previous(0) should not exist")
		}
		if k, _, ok := tr.Next(55); !ok || k != 60 {
			t.Fatalf("Next(55) = %d, %v", k, ok)
		}
		if k, _, ok := tr.Next(50); !ok || k != 60 {
			t.Fatalf("Next(50) = %d", k)
		}
		if _, _, ok := tr.Next(990); ok {
			t.Fatal("Next(990) should not exist")
		}
		if r := tr.Rank(500); r != 50 {
			t.Fatalf("Rank(500) = %d", r)
		}
		if r := tr.Rank(505); r != 51 {
			t.Fatalf("Rank(505) = %d", r)
		}
		if r := tr.Rank(-1); r != 0 {
			t.Fatalf("Rank(-1) = %d", r)
		}
		if r := tr.Rank(10_000); r != 100 {
			t.Fatalf("Rank(10000) = %d", r)
		}
		for i := int64(0); i < 100; i++ {
			k, v, ok := tr.Select(i)
			if !ok || k != int(i*10) || v != i {
				t.Fatalf("Select(%d) = %d,%d,%v", i, k, v, ok)
			}
		}
		if _, _, ok := tr.Select(100); ok {
			t.Fatal("Select(100) out of range should fail")
		}
		if _, _, ok := tr.Select(-1); ok {
			t.Fatal("Select(-1) should fail")
		}
	})
}

func TestRankSelectInverse(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(5))
		tr := newSum(sch)
		seen := map[int]bool{}
		for len(seen) < 500 {
			k := rng.Intn(100000)
			if !seen[k] {
				seen[k] = true
				tr = tr.Insert(k, 1)
			}
		}
		for i := int64(0); i < tr.Size(); i++ {
			k, _, ok := tr.Select(i)
			if !ok {
				t.Fatalf("Select(%d) failed", i)
			}
			if r := tr.Rank(k); r != i {
				t.Fatalf("Rank(Select(%d)) = %d", i, r)
			}
		}
	})
}

func TestHeightLogarithmic(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		tr := newSum(sch)
		n := 1 << 14
		// Adversarial sorted insertion.
		for i := 0; i < n; i++ {
			tr.InsertInPlace(i, int64(i))
		}
		h := tr.Height()
		limit := 3 * 14 // generous: 3 log2(n), treap included
		if sch == Treap {
			limit = 6 * 14
		}
		if h > limit {
			t.Fatalf("height %d exceeds %d for n=%d", h, limit, n)
		}
		if err := tr.Validate(i64eq); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRandomOpSequenceMatchesModel(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(42))
		tr := newSum(sch)
		m := model{}
		for step := 0; step < 2000; step++ {
			k := rng.Intn(300)
			switch rng.Intn(3) {
			case 0, 1:
				v := int64(rng.Intn(1000))
				tr = tr.Insert(k, v)
				m[k] = v
			case 2:
				tr = tr.Delete(k)
				delete(m, k)
			}
			if step%250 == 0 {
				mustMatch(t, tr, m)
			}
		}
		mustMatch(t, tr, m)
	})
}

func TestStringOfSchemes(t *testing.T) {
	names := map[string]bool{}
	for _, sch := range allSchemes {
		names[sch.String()] = true
	}
	if len(names) != NumSchemes {
		t.Fatalf("scheme names not distinct: %v", names)
	}
	if Scheme(99).String() != "unknown-scheme" {
		t.Fatal("unknown scheme String")
	}
}

func TestForEachAndAll(t *testing.T) {
	tr := newSum(WeightBalanced)
	for i := 0; i < 50; i++ {
		tr = tr.Insert(i, int64(i))
	}
	var got []int
	tr.ForEach(func(k int, _ int64) bool {
		got = append(got, k)
		return k < 25 // early stop
	})
	if len(got) != 26 {
		t.Fatalf("early stop visited %d entries", len(got))
	}
	count := 0
	for k, v := range tr.All() {
		if int64(k) != v {
			t.Fatalf("All() mismatched entry %d=%d", k, v)
		}
		count++
	}
	if count != 50 {
		t.Fatalf("All() visited %d", count)
	}
}

func TestMapValues(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		tr := newSum(sch)
		for i := 0; i < 100; i++ {
			tr = tr.Insert(i, int64(i))
		}
		dbl := tr.MapValues(func(_ int, v int64) int64 { return v * 2 })
		if err := dbl.Validate(i64eq); err != nil {
			t.Fatal(err)
		}
		if got := dbl.AugVal(); got != 99*100 {
			t.Fatalf("AugVal after MapValues = %d", got)
		}
		// Original untouched (persistence).
		if got := tr.AugVal(); got != 99*100/2 {
			t.Fatalf("original changed: %d", got)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	st := &Stats{}
	tr := New[int, int64, int64, sumTraits](Config{Stats: st})
	for i := 0; i < 100; i++ {
		tr.InsertInPlace(i, 1)
	}
	// Blocked layout: 100 entries fit in a handful of leaf blocks plus
	// interior nodes — far fewer allocations than entries, but well more
	// than zero, and every block shows up in the leaf counters.
	if a := st.Allocated.Load(); a < 4 || a >= 100 {
		t.Fatalf("allocated %d nodes for 100 entries; want a few dozen at most", a)
	}
	if st.LeafAllocated.Load() == 0 {
		t.Fatal("no leaf blocks allocated")
	}
	if st.LiveLeaves() <= 0 || st.LiveLeaves() > st.Live() {
		t.Fatalf("live leaves %d out of range (live %d)", st.LiveLeaves(), st.Live())
	}
	if st.Live() <= 0 {
		t.Fatalf("live %d", st.Live())
	}
	before := st.Live()
	tr.Release()
	if st.Live() >= before {
		t.Fatalf("release did not free: live %d -> %d", before, st.Live())
	}
	st.Reset()
	if st.Allocated.Load() != 0 || st.Live() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func ExampleTree_AugRange() {
	// The paper's Equation 1: sum of values, queried over a key range.
	tr := New[int, int64, int64, sumTraits](Config{})
	for i := 1; i <= 100; i++ {
		tr.InsertInPlace(i, int64(i))
	}
	fmt.Println(tr.AugRange(10, 20))
	fmt.Println(tr.AugVal())
	// Output:
	// 165
	// 5050
}
