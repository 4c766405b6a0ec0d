package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

func TestBuildMatchesInsert(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(21))
		for _, n := range []int{0, 1, 2, 7, 100, 5000} {
			keys := randKeys(rng, n, n+1)
			items := make([]Entry[int, int64], n)
			m := model{}
			for i, k := range keys {
				items[i] = Entry[int, int64]{Key: k, Val: int64(i)}
				m[k] = int64(i) // last value wins (nil combiner)
			}
			tr := newSum(sch).Build(items, nil)
			mustMatch(t, tr, m)
		}
	})
}

func TestBuildCombinesDuplicates(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		items := []Entry[int, int64]{
			{Key: 1, Val: 1}, {Key: 2, Val: 10}, {Key: 1, Val: 2},
			{Key: 1, Val: 3}, {Key: 2, Val: 20},
		}
		tr := newSum(sch).Build(items, func(old, new int64) int64 { return old + new })
		if v, _ := tr.Find(1); v != 6 {
			t.Fatalf("key 1 combined to %d, want 6", v)
		}
		if v, _ := tr.Find(2); v != 30 {
			t.Fatalf("key 2 combined to %d, want 30", v)
		}
		if tr.Size() != 2 {
			t.Fatalf("size %d", tr.Size())
		}
	})
}

func TestBuildDoesNotModifyInput(t *testing.T) {
	items := []Entry[int, int64]{{Key: 3, Val: 3}, {Key: 1, Val: 1}, {Key: 2, Val: 2}}
	newSum(WeightBalanced).Build(items, nil)
	if items[0].Key != 3 || items[1].Key != 1 || items[2].Key != 2 {
		t.Fatalf("Build reordered its input: %v", items)
	}
}

func TestBuildSorted(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		n := 10000
		items := make([]Entry[int, int64], n)
		m := model{}
		for i := range items {
			items[i] = Entry[int, int64]{Key: i * 2, Val: int64(i)}
			m[i*2] = int64(i)
		}
		tr := newSum(sch).BuildSorted(items)
		mustMatch(t, tr, m)
	})
}

func TestMultiInsertMatchesModel(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(22))
		tr, m := fromKeysBulk(sch, randKeys(rng, 2000, 5000))
		batch := make([]Entry[int, int64], 1500)
		for i := range batch {
			k := rng.Intn(5000)
			batch[i] = Entry[int, int64]{Key: k, Val: int64(i + 10_000)}
		}
		add := func(old, new int64) int64 { return old + new }
		u := tr.MultiInsert(batch, add)
		// Model: combine duplicates within the batch first, then with
		// existing entries.
		batchAcc := map[int]int64{}
		for _, e := range batch {
			if old, ok := batchAcc[e.Key]; ok {
				batchAcc[e.Key] = add(old, e.Val)
			} else {
				batchAcc[e.Key] = e.Val
			}
		}
		mu := model{}
		for k, v := range m {
			mu[k] = v
		}
		for k, v := range batchAcc {
			if old, ok := mu[k]; ok {
				mu[k] = add(old, v)
			} else {
				mu[k] = v
			}
		}
		mustMatch(t, u, mu)
		mustMatch(t, tr, m) // input preserved
	})
}

func TestMultiInsertIntoEmpty(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		batch := []Entry[int, int64]{{Key: 5, Val: 5}, {Key: 1, Val: 1}, {Key: 9, Val: 9}}
		tr := newSum(sch).MultiInsert(batch, nil)
		mustMatch(t, tr, model{5: 5, 1: 1, 9: 9})
		empty := newSum(sch).MultiInsert(nil, nil)
		mustMatch(t, empty, model{})
	})
}

func TestMultiDelete(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(23))
		tr, m := fromKeysBulk(sch, randKeys(rng, 3000, 4000))
		var doomed []int
		for k := range m {
			if k%3 == 0 {
				doomed = append(doomed, k)
			}
		}
		doomed = append(doomed, -1, -2, 99_999) // absent keys
		doomed = append(doomed, doomed[0])      // duplicate key in batch
		got := tr.MultiDelete(doomed)
		md := model{}
		for k, v := range m {
			if k%3 != 0 {
				md[k] = v
			}
		}
		mustMatch(t, got, md)
		mustMatch(t, tr, m)
		// Deleting everything.
		all := tr.Keys()
		empty := tr.MultiDelete(all)
		mustMatch(t, empty, model{})
	})
}

// TestBulkForkRule pins the batch-work fork rule at parallelism 2: a
// 64-key MultiInsert or MultiDelete into a 256k-entry tree (work
// 64·log2(4096+1) ≈ 768, under the 1024 grain) never forks, while a
// 16k-key MultiInsert into the same tree forks, in its tree recursion
// too. Every result equals the parallelism-1 result and validates, on
// flat and compressed leaves.
func TestBulkForkRule(t *testing.T) {
	old := parallel.Parallelism()
	defer parallel.SetParallelism(old)
	defer parallel.EnableStats(false)

	const n = 1 << 18
	base := make([]Entry[int, int64], n)
	for i := range base {
		base[i] = Entry[int, int64]{Key: 4 * i, Val: int64(i)}
	}
	// spread returns m entries spread over the tree's key range, offset
	// by off from its keys (0: present keys; 1: fresh keys).
	spread := func(m, off int) []Entry[int, int64] {
		out := make([]Entry[int, int64], m)
		for i := range out {
			k := 4*(i*(n/m)) + off
			out[i] = Entry[int, int64]{Key: k, Val: int64(-k)}
		}
		return out
	}
	keysOf := func(es []Entry[int, int64]) []int {
		ks := make([]int, len(es))
		for i, e := range es {
			ks[i] = e.Key
		}
		return ks
	}
	small, smallDel, large := spread(64, 1), keysOf(spread(64, 0)), spread(1<<14, 1)

	for name, empty := range map[string]sumTree{
		"flat":       newSum(WeightBalanced),
		"compressed": newSumComp(WeightBalanced, 0),
	} {
		t.Run(name, func(t *testing.T) {
			tr := empty.BuildSorted(base)
			for _, tc := range []struct {
				name string
				op   func() sumTree
				fork bool
			}{
				{"insert-64", func() sumTree { return tr.MultiInsert(small, nil) }, false},
				{"delete-64", func() sumTree { return tr.MultiDelete(smallDel) }, false},
				{"insert-16k", func() sumTree { return tr.MultiInsert(large, nil) }, true},
				// The sorted recursion alone, without the batch sort and
				// dedup, which fork on their own at this size.
				{"insert-16k-sorted", func() sumTree {
					return tr.with(tr.o().multiInsertSorted(inc(tr.root), large, nil))
				}, true},
			} {
				parallel.SetParallelism(1)
				want := tc.op()
				parallel.SetParallelism(2)
				parallel.EnableStats(true)
				got := tc.op()
				forks := parallel.Forks()
				parallel.EnableStats(false)
				if tc.fork && forks == 0 {
					t.Errorf("%s: no forks at parallelism 2", tc.name)
				}
				if !tc.fork && forks != 0 {
					t.Errorf("%s: %d forks at parallelism 2, want 0", tc.name, forks)
				}
				if err := got.Validate(i64eq); err != nil {
					t.Fatalf("%s: invariants: %v", tc.name, err)
				}
				if got.Size() != want.Size() || got.AugVal() != want.AugVal() || !slices.Equal(got.Entries(), want.Entries()) {
					t.Fatalf("%s: parallelism-2 result differs from parallelism 1", tc.name)
				}
			}
		})
	}
}

// TestBulkAllocs holds the shape of a serve shard flush to the
// allocations it needs: a 64-key MultiInsert of fresh keys, or
// MultiDelete of present keys, into a 64k-entry tree allocates the nodes
// it copies (Stats.Allocated) plus a few objects per batch key, the
// merge buffer and the byte strings of the blocks it packs. Closures
// built where the recursion does not fork, a decoded copy of each packed
// block and append growth while packing each cost several more per key.
// The recursion runs below the grain, so parallelism 2 must allocate as
// parallelism 1 does.
func TestBulkAllocs(t *testing.T) {
	old := parallel.Parallelism()
	defer parallel.SetParallelism(old)

	const n, m = 1 << 16, 64
	base := make([]Entry[int, int64], n)
	for i := range base {
		base[i] = Entry[int, int64]{Key: 4 * i, Val: int64(i)}
	}
	fresh, present := make([]Entry[int, int64], m), make([]int, m)
	for i := range fresh {
		k := 4 * (i * (n / m))
		fresh[i] = Entry[int, int64]{Key: k + 1, Val: int64(-k)}
		present[i] = k
	}
	for _, leaves := range []struct {
		name   string
		comp   any
		perKey float64
	}{
		{"flat", nil, 4},
		{"compressed", testComp{}, 8},
	} {
		st := &Stats{}
		tr := New[int, int64, int64, sumTraits](Config{Stats: st, Compress: leaves.comp}).BuildSorted(base)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"insert", func() { tr.MultiInsert(fresh, nil) }},
			{"delete", func() { tr.MultiDelete(present) }},
		} {
			for _, p := range []int{1, 2} {
				parallel.SetParallelism(p)
				const runs = 20
				st.Reset()
				allocs := testing.AllocsPerRun(runs, op.run)
				nodes := float64(st.Allocated.Load()) / (runs + 1) // AllocsPerRun adds a warm-up call
				if perKey := (allocs - nodes) / m; perKey > leaves.perKey {
					t.Errorf("%s %s at parallelism %d: %.0f allocations for %.0f nodes, %.1f per batch key, want at most %.0f",
						leaves.name, op.name, p, allocs, nodes, perKey, leaves.perKey)
				} else {
					t.Logf("%s %s at parallelism %d: %.0f allocations for %.0f nodes, %.1f per batch key",
						leaves.name, op.name, p, allocs, nodes, perKey)
				}
			}
		}
	}
}

func TestMultiInsertEquivalentToUnionBuild(t *testing.T) {
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(24))
		tr, _ := fromKeysBulk(sch, randKeys(rng, 1000, 3000))
		batch := make([]Entry[int, int64], 800)
		for i := range batch {
			k := rng.Intn(3000)
			batch[i] = Entry[int, int64]{Key: k, Val: int64(k) * 7}
		}
		viaMI := tr.MultiInsert(batch, nil)
		viaUnion := tr.Union(newSum(sch).Build(batch, nil))
		a, b := viaMI.Entries(), viaUnion.Entries()
		if len(a) != len(b) {
			t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("entry %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	})
}
