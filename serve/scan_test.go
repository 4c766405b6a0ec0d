package serve

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/pam"
)

// lessCalls counts countingEntry.Less calls.
var lessCalls atomic.Int64

// countingEntry is pam.SumEntry with a Less that counts its calls, so a
// test can bound the comparisons an iteration makes.
type countingEntry struct{ pam.SumEntry[uint64, int64] }

func (countingEntry) Less(a, b uint64) bool {
	lessCalls.Add(1)
	return a < b
}

// TestHashScanCost checks the merged iteration of a hash-partitioned
// view on flat and on compressed leaves. Cost: a ForEachRange that
// visits k of n entries over s shards makes at most
// (s+1)·k + 2·s·log₂n key comparisons — one seek per shard, then s−1
// comparisons to pick the next entry plus one bound check per entry. A
// merge that finds each shard's successor from the root instead pays a
// descent per entry and exceeds the bound several times over.
// Boundaries: against a single-map oracle, with lo or hi on a stored
// key or in a gap between keys, lo below the first key, hi above the
// last, lo > hi, an early exit after the first entry, and a store whose
// last shard is empty.
func TestHashScanCost(t *testing.T) {
	const shards, log2n = 4, 16
	const n = 1 << log2n
	rng := rand.New(rand.NewSource(12))
	keys := make([]uint64, n)
	items := make([]pam.KV[uint64, int64], n)
	k := uint64(100)
	for i := range keys {
		k += 2 + uint64(rng.Intn(3)) // every key has a gap on both sides
		keys[i] = k
		items[i] = pam.KV[uint64, int64]{Key: k, Val: int64(rng.Intn(1000))}
	}
	oracle := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}).BuildSorted(items)
	first, last := keys[0], keys[n-1]
	spans := []struct {
		name   string
		lo, hi uint64
	}{
		{"stored-keys", keys[1000], keys[21000]},
		{"gaps", keys[1000] + 1, keys[21000] - 1},
		{"stored-lo-gap-hi", keys[300], keys[9000] + 1},
		{"gap-lo-stored-hi", keys[300] - 1, keys[9000]},
		{"one-key", keys[500], keys[500]},
		{"one-gap", keys[500] + 1, keys[501] - 1},
		{"below-first", 0, keys[4000]},
		{"above-last", keys[n-4000], ^uint64(0)},
		{"everything", 0, ^uint64(0)},
		{"before-all", 0, first - 1},
		{"after-all", last + 1, ^uint64(0)},
		{"lo-above-hi", keys[21000], keys[1000]},
	}
	hashes := map[string]func(uint64) uint64{
		"mixed": mixHash,
		// Never routes to the last shard.
		"empty-shard": func(k uint64) uint64 { return mixHash(k) % (shards - 1) },
	}
	layouts := map[string]pam.Options{
		"flat":       {},
		"compressed": {Compress: pam.CompressUint64()},
	}
	collect := func(each func(uint64, uint64, func(uint64, int64) bool), lo, hi uint64, limit int) []pam.KV[uint64, int64] {
		var out []pam.KV[uint64, int64]
		each(lo, hi, func(k uint64, v int64) bool {
			out = append(out, pam.KV[uint64, int64]{Key: k, Val: v})
			return len(out) != limit
		})
		return out
	}
	for lname, opts := range layouts {
		for hname, hash := range hashes {
			t.Run(lname+"/"+hname, func(t *testing.T) {
				s, err := NewHashStore[uint64, int64, int64, countingEntry](opts, shards, hash)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i := 0; i < n; i += 4096 {
					ops := make([]Op[uint64, int64], 0, 4096)
					for _, e := range items[i : i+4096] {
						ops = append(ops, Put(e.Key, e.Val))
					}
					if _, err := s.Apply(ops); err != nil {
						t.Fatal(err)
					}
				}
				v, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if hname == "empty-shard" && v.Shard(shards-1).Size() != 0 {
					t.Fatalf("last shard holds %d entries, want none", v.Shard(shards-1).Size())
				}
				for _, sp := range spans {
					for _, limit := range []int{0, 1} {
						lessCalls.Store(0)
						got := collect(v.ForEachRange, sp.lo, sp.hi, limit)
						calls := lessCalls.Load()
						want := collect(oracle.ForEachRange, sp.lo, sp.hi, limit)
						if !slices.Equal(got, want) {
							t.Fatalf("%s limit %d: got %d entries %v..., oracle %d", sp.name, limit, len(got), got[:min(len(got), 4)], len(want))
						}
						if bound := int64((shards+1)*len(got) + 2*shards*log2n); calls > bound {
							t.Errorf("%s limit %d: %d comparisons for %d entries (%.1f per entry), bound %d",
								sp.name, limit, calls, len(got), float64(calls)/float64(max(len(got), 1)), bound)
						}
					}
				}
				lessCalls.Store(0)
				if got, want := v.Entries(), oracle.Entries(); !slices.Equal(got, want) {
					t.Fatalf("Entries: %d entries, oracle %d", len(got), len(want))
				}
				if calls, bound := lessCalls.Load(), int64((shards+1)*n+2*shards*log2n); calls > bound {
					t.Errorf("Entries: %d comparisons for %d entries, bound %d", calls, n, bound)
				}
				if got, want := v.Keys(), oracle.Keys(); !slices.Equal(got, want) {
					t.Fatalf("Keys: %d keys, oracle %d", len(got), len(want))
				}
				visited := 0
				v.ForEach(func(uint64, int64) bool { visited++; return false })
				if visited != 1 {
					t.Fatalf("ForEach ran on for %d entries after visit returned false", visited)
				}
			})
		}
	}
}
