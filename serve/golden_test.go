package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

// TestDurableFormatGolden pins the on-disk formats and the file
// retention of both durable flavours: a fixed sequence of sync batches
// and checkpoints, then a Compact and a few more batches, runs through
// a 2-shard DurableStore (flat and compressed leaves) and a 2-shard
// DurablePointStore on MemFS. The sha256 of every ckpt-*/wal-* file,
// taken before and after the compaction, must match the table below. A
// moved digest, or a file that appears or disappears, is a format (or
// retention) change and must be deliberate; the failure message prints
// the table the code now produces.
func TestDurableFormatGolden(t *testing.T) {
	old := dynamic.SetFlushCap(8) // multi-level ladders in the point checkpoints
	defer dynamic.SetFlushCap(old)

	const batches, ckptEvery, tail = 26, 6, 4
	mapRun := func(opts pam.Options) [2]map[string]string {
		fs := NewMemFS()
		d, err := openDurSumOpts(opts, fs, 2, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer d.Close()
		rng := rand.New(rand.NewSource(42))
		batch := func() {
			ops := make([]kvop, 16)
			for i := range ops {
				k := uint64(rng.Intn(512))
				if rng.Intn(4) == 0 {
					ops[i] = kvop{Kind: OpDelete, Key: k}
				} else {
					ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(1000)) - 500}
				}
			}
			applyAll(t, d, ops)
		}
		var out [2]map[string]string
		for b := 0; b < batches; b++ {
			batch()
			if b%ckptEvery == ckptEvery-1 {
				if _, err := d.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		out[0] = goldenDigests(t, fs)
		if _, err := d.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		for b := 0; b < tail; b++ {
			batch()
		}
		out[1] = goldenDigests(t, fs)
		return out
	}
	pointRun := func() [2]map[string]string {
		fs := NewMemFS()
		d, err := OpenDurablePointStore(pam.Options{}, []float64{8}, DurableConfig{FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer d.Close()
		rng := rand.New(rand.NewSource(42))
		batch := func() {
			ops := make([]PointOp, 16)
			for i := range ops {
				p := rangetree.Point{X: float64(rng.Intn(16)), Y: float64(rng.Intn(16))}
				if rng.Intn(4) == 0 {
					ops[i] = DeletePoint(p)
				} else {
					ops[i] = InsertPoint(p, int64(1+rng.Intn(5)))
				}
			}
			if _, err := d.Apply(ops); err != nil {
				t.Fatalf("Apply: %v", err)
			}
		}
		var out [2]map[string]string
		for b := 0; b < batches; b++ {
			batch()
			if b%ckptEvery == ckptEvery-1 {
				if _, err := d.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		out[0] = goldenDigests(t, fs)
		if _, err := d.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		for b := 0; b < tail; b++ {
			batch()
		}
		out[1] = goldenDigests(t, fs)
		return out
	}

	for _, tc := range []struct {
		name string
		run  func() [2]map[string]string
		want [2]map[string]string
	}{
		{"map", func() [2]map[string]string { return mapRun(pam.Options{}) }, goldenMap},
		{"map-compressed", func() [2]map[string]string { return mapRun(pam.Options{Compress: pam.CompressUint64()}) }, goldenMapCompressed},
		{"points", pointRun, goldenPoints},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			for i, phase := range []string{"before compaction", "after compaction"} {
				if !maps.Equal(got[i], tc.want[i]) {
					t.Errorf("%s: file digests changed; the code now writes\n%s", phase, goldenTable(got[i]))
				}
			}
		})
	}
}

// goldenDigests returns the hex sha256 of every checkpoint and WAL file.
func goldenDigests(t *testing.T, fs *MemFS) map[string]string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	out := map[string]string{}
	for _, name := range names {
		if !strings.HasPrefix(name, "ckpt-") && !strings.HasPrefix(name, "wal-") {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		sum := sha256.Sum256(data)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// goldenTable renders digests as a Go map literal, sorted by name.
func goldenTable(m map[string]string) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "\t%q: %q,\n", name, m[name])
	}
	return b.String()
}

var goldenMap = [2]map[string]string{
	{ // before compaction
		"ckpt-000001": "24ef36e5ab0efff9966f24cb5e61a121abac2720de328e6ac5e7a97c47f2845b",
		"ckpt-000002": "7bc61b28ae8eddae00563e5d6308a0b76e40b7b10b1accc617a5279dcc0a7d62",
		"ckpt-000003": "4922db535b329ef8bc143c406b862115a2650d8f3ed0acec96a72282c2f213f5",
		"ckpt-000004": "655a4b65c3de7de8c287668372010e756c392f6e048476b1015daeb8f60abfd5",
		"wal-000003":  "0e76919288332bfb0dcab5f73a1e7473d4a1488a6d98acd876dd9ced33e2ef13",
		"wal-000004":  "107136aa9d0a642658b877dbe2ddcdf14f448c5a42d370c343713438ad9010d5",
	},
	{ // after compaction
		"ckpt-000005": "5bb556b658e66e353e0a6682faa9045685f9c21a1823d7677b91dddea134f9cf",
		"wal-000005":  "083f9e40927b76dfe377bf633fcedd15f2f6c2c16092a3bd02fbb00769d890f6",
	},
}

var goldenMapCompressed = [2]map[string]string{
	{ // before compaction
		"ckpt-000001": "e67597993db05b50d2b1210ee7be283a1f1954f6cf9ed63410dcb21620fa7a33",
		"ckpt-000002": "c65e8fd521bc0e4dceb24aa977a790cca85ef23ee75002e3717f688be310f933",
		"ckpt-000003": "b76083b7fa156185c69daeb0b5c222f3af72ff58e7f7c2c8cf64b8207720e5e3",
		"ckpt-000004": "8c7891735642ec0770b4af755927c250aafd375d214350cacf9346b3068205f8",
		"wal-000003":  "0e76919288332bfb0dcab5f73a1e7473d4a1488a6d98acd876dd9ced33e2ef13",
		"wal-000004":  "107136aa9d0a642658b877dbe2ddcdf14f448c5a42d370c343713438ad9010d5",
	},
	{ // after compaction
		"ckpt-000005": "8b5ceaa565559eb55d13a4865d4850399fb14c300798f397d7e4ae607a7b06c0",
		"wal-000005":  "083f9e40927b76dfe377bf633fcedd15f2f6c2c16092a3bd02fbb00769d890f6",
	},
}

var goldenPoints = [2]map[string]string{
	{ // before compaction
		"ckpt-000003": "42147ea78380a4d06dca492c6f6616fc913db4fa3ce727a9a6e8ab3a33aebbd7",
		"ckpt-000004": "facf2ce53b4fb38e40c33fec67fd768b34ef7259aa24ed3a1cbaba582793836d",
		"wal-000003":  "d2e7a14cd2ab9c73f6f4b243fa3c66aeb6774dd280693ecdf1c5bc3b097ab986",
		"wal-000004":  "463e50bddefab2423f69827369b87f7e5eb9c092f65b1353ccb1f0c05b2206ed",
	},
	{ // after compaction
		"ckpt-000005": "011a0a71374d6f04a067ffb77c48227476eb4b92fe83fd19a6c6bda4fe8f0e8c",
		"wal-000005":  "32267caa6e3ad141abae22f6aa0301bd2942838474fde5459f932b28a7122138",
	},
}
