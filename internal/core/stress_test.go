package core

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// TestStressMixedOps interleaves every bulk operation against the model
// across all schemes — the interaction test for refcounts, joins, and
// parallelism. Sizes exceed the parallel grain so the forked paths run.
func TestStressMixedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forAllSchemes(t, func(t *testing.T, sch Scheme) {
		rng := rand.New(rand.NewSource(77))
		tr, m := fromKeysBulk(sch, randKeys(rng, 5000, 20000))
		var snaps []sumTree
		var snapModels []model
		for step := 0; step < 60; step++ {
			switch rng.Intn(7) {
			case 0: // union with a random batch tree
				other, mo := fromKeysBulk(sch, randKeys(rng, rng.Intn(3000), 20000))
				tr = tr.UnionWith(other, func(a, b int64) int64 { return a + b })
				for k, v := range mo {
					if old, ok := m[k]; ok {
						m[k] = old + v
					} else {
						m[k] = v
					}
				}
			case 1: // intersect with a supserset-ish tree to trim
				other, mo := fromKeysBulk(sch, randKeys(rng, 4000+rng.Intn(3000), 20000))
				tr = tr.IntersectWith(other, func(a, b int64) int64 { return a })
				for k := range m {
					if _, ok := mo[k]; !ok {
						delete(m, k)
					}
				}
			case 2: // difference with a small tree
				other, mo := fromKeysBulk(sch, randKeys(rng, rng.Intn(1000), 20000))
				tr = tr.Difference(other)
				for k := range mo {
					delete(m, k)
				}
			case 3: // multi-insert
				batch := make([]Entry[int, int64], rng.Intn(2000))
				for i := range batch {
					k := rng.Intn(20000)
					batch[i] = Entry[int, int64]{Key: k, Val: int64(k)}
					m[k] = int64(k)
				}
				tr = tr.MultiInsert(batch, nil)
			case 4: // filter
				mod := rng.Intn(5) + 2
				tr = tr.Filter(func(k int, _ int64) bool { return k%mod != 0 })
				for k := range m {
					if k%mod == 0 {
						delete(m, k)
					}
				}
			case 5: // range restriction
				if len(m) > 1000 {
					lo := rng.Intn(10000)
					hi := lo + 10000
					tr = tr.Range(lo, hi)
					for k := range m {
						if k < lo || k > hi {
							delete(m, k)
						}
					}
				}
			case 6: // snapshot
				snaps = append(snaps, tr)
				mc := model{}
				for k, v := range m {
					mc[k] = v
				}
				snapModels = append(snapModels, mc)
			}
			if step%10 == 9 {
				mustMatch(t, tr, m)
			}
		}
		mustMatch(t, tr, m)
		for i := range snaps {
			mustMatch(t, snaps[i], snapModels[i])
		}
	})
}

// TestStressPooledParallel runs parallel bulk operations and releases
// over trees that share structure with a long-lived base — the path
// where a refcount bug would resurface as cross-tree corruption or as
// leaked or double-freed nodes in Stats.Live.
func TestStressPooledParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	st := &Stats{}
	cfg := Config{Stats: st, Grain: 256}
	base := New[int, int64, int64, sumTraits](cfg)
	items := make([]Entry[int, int64], 20000)
	for i := range items {
		items[i] = Entry[int, int64]{Key: i * 3, Val: int64(i)}
	}
	base = base.BuildSorted(items)
	for round := 0; round < 30; round++ {
		other := New[int, int64, int64, sumTraits](cfg)
		oi := make([]Entry[int, int64], 5000)
		for i := range oi {
			oi[i] = Entry[int, int64]{Key: i*7 + round, Val: int64(i)}
		}
		other = other.Build(oi, nil)
		u := base.UnionWith(other, func(a, b int64) int64 { return a + b })
		if err := u.Validate(i64eq); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		f := u.Filter(func(k int, _ int64) bool { return k%2 == 0 })
		f.Release()
		u.Release()
		other.Release()
		// base must remain fully intact after every release cycle.
		if base.Size() != 20000 {
			t.Fatalf("round %d: base size %d", round, base.Size())
		}
	}
	if err := base.Validate(i64eq); err != nil {
		t.Fatal(err)
	}
	base.Release()
	if st.Live() != 0 {
		t.Fatalf("leaked %d nodes", st.Live())
	}
}

// TestRetainSurvivesRelease checks that a handle kept with Retain stays
// whole after the handle it was taken from is released, and that
// releasing both frees every node.
func TestRetainSurvivesRelease(t *testing.T) {
	st := &Stats{}
	items := make([]Entry[int, int64], 64)
	for i := range items {
		items[i] = Entry[int, int64]{Key: i, Val: int64(i)}
	}
	tr := New[int, int64, int64, sumTraits](Config{Stats: st}).BuildSorted(items)
	snap := tr.Retain()
	tr.Release()
	if snap.Size() != 64 {
		t.Fatalf("retained snapshot lost entries: %d", snap.Size())
	}
	if err := snap.Validate(i64eq); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if st.Live() != 0 {
		t.Fatalf("leaked %d nodes", st.Live())
	}
}

// TestStressHighParallelism runs the same workload at an exaggerated
// parallelism level to shake out token accounting and fork storms.
func TestStressHighParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	old := parallel.Parallelism()
	defer parallel.SetParallelism(old)
	parallel.SetParallelism(32)
	tr, m := fromKeysBulk(WeightBalanced, randKeys(rand.New(rand.NewSource(88)), 60000, 200000))
	other, mo := fromKeysBulk(WeightBalanced, randKeys(rand.New(rand.NewSource(89)), 60000, 200000))
	u := tr.UnionWith(other, func(a, b int64) int64 { return b })
	mu := model{}
	for k, v := range m {
		mu[k] = v
	}
	for k, v := range mo {
		mu[k] = v
	}
	if int(u.Size()) != len(mu) {
		t.Fatalf("union size %d want %d", u.Size(), len(mu))
	}
	if err := u.Validate(i64eq); err != nil {
		t.Fatal(err)
	}
	got := u.Filter(func(k int, _ int64) bool { return k%3 == 0 })
	var want int64
	for k := range mu {
		if k%3 == 0 {
			want++
		}
	}
	if got.Size() != want {
		t.Fatalf("filter size %d want %d", got.Size(), want)
	}
}
