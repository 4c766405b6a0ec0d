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

	"repro/pam"
	"repro/rangetree"
)

// TestDurableFormatGolden pins the on-disk formats and the file
// retention of both durable flavours: a fixed sequence of sync batches
// and checkpoints, then a Compact and a few more batches, runs through
// a 2-shard DurableStore (flat and compressed leaves) and a 2-shard
// DurablePointStore on MemFS. The map cases run twice: once with 16 ops
// per Apply, and once with the same op stream submitted one op per
// Apply, so the one-op tables pin the formats independently of how a
// shard flush shapes the tree. The sha256 of every ckpt-*/wal-* file,
// taken before and after the compaction, must match the table below. A
// moved digest, or a file that appears or disappears, is a format (or
// retention) change and must be deliberate; the failure message prints
// the table the code now produces.
func TestDurableFormatGolden(t *testing.T) {
	const batches, ckptEvery, tail = 26, 6, 4
	mapRun := func(opts pam.Options, oneOp bool) [2]map[string]string {
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
			if !oneOp {
				applyAll(t, d, ops)
				return
			}
			for i := range ops {
				applyAll(t, d, ops[i:i+1])
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
		{"map", func() [2]map[string]string { return mapRun(pam.Options{}, false) }, goldenMap},
		{"map-compressed", func() [2]map[string]string { return mapRun(pam.Options{Compress: pam.CompressUint64()}, false) }, goldenMapCompressed},
		{"map-one-op", func() [2]map[string]string { return mapRun(pam.Options{}, true) }, goldenMapOneOp},
		{"map-compressed-one-op", func() [2]map[string]string { return mapRun(pam.Options{Compress: pam.CompressUint64()}, true) }, goldenMapCompressedOneOp},
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
		"ckpt-000001": "caac6f61a72248629bb6cc834fd86100934e3739436677dee7874ecd6868e658",
		"ckpt-000002": "d3fe61bfd65573ea4dcebd5b985fc430c32fc21eb97bf31914fd342239f69ffe",
		"ckpt-000003": "a43b2114831feea0504a275f50624459f2af6c54ec9957e2a16650480fdc6ffe",
		"ckpt-000004": "7398049782db2a45ec1d645d3e1db6a5aee08ffa9d8b66f672272fdd87105be5",
		"wal-000003":  "0e76919288332bfb0dcab5f73a1e7473d4a1488a6d98acd876dd9ced33e2ef13",
		"wal-000004":  "107136aa9d0a642658b877dbe2ddcdf14f448c5a42d370c343713438ad9010d5",
	},
	{ // after compaction
		"ckpt-000005": "27e3b48bc704127de11bebab4be48d0d23dc9d31bdd48a562e0c731b24807060",
		"wal-000005":  "083f9e40927b76dfe377bf633fcedd15f2f6c2c16092a3bd02fbb00769d890f6",
	},
}

var goldenMapCompressed = [2]map[string]string{
	{ // before compaction
		"ckpt-000001": "f52e16ec3d063d16c441b89ce6eec3f5aa6eea36005f76c9e8aea4972d580adb",
		"ckpt-000002": "a5b590a6d66cb5a92b37f00b85a315cc7b3d9ddb8f6d9a919737f89d8a5d52b9",
		"ckpt-000003": "bbb163afe5a87bdfadf9b49a55b1ebb8010d5d9f4be538251b490904c2747677",
		"ckpt-000004": "02c14e5dfaefa674451c7d765836cee9894678ea6662aa39333e0f008bfd5443",
		"wal-000003":  "0e76919288332bfb0dcab5f73a1e7473d4a1488a6d98acd876dd9ced33e2ef13",
		"wal-000004":  "107136aa9d0a642658b877dbe2ddcdf14f448c5a42d370c343713438ad9010d5",
	},
	{ // after compaction
		"ckpt-000005": "14c0a3a472a975ce25baa38307020161af983bd5f8bc6a7af55c2cc6a34adea6",
		"wal-000005":  "083f9e40927b76dfe377bf633fcedd15f2f6c2c16092a3bd02fbb00769d890f6",
	},
}

var goldenMapOneOp = [2]map[string]string{
	{ // before compaction
		"ckpt-000001": "33cb1a2d1e4ee6ed474dfd7ab460651e409672a3523e6b70bcffb5158307bc49",
		"ckpt-000002": "d0810b9d716cf9ed7fdc55da2d04d2a3dc1794c53dfebd1066fa3f4848816073",
		"ckpt-000003": "775c06e80d715f518c088762960f9c97bc7440e4d1f73821c04b39afe5f4dfe4",
		"ckpt-000004": "7e8750bbc1ecf1a05c81e71b96dbb45ee8b16439acd4557c7d4b6280b56852ff",
		"wal-000003":  "cb10178a23af18864edb5749801e9c37439c0e95cdc8769a994b6964fa8448ce",
		"wal-000004":  "d94c215fef244945317fd11ef04bff5771693fce6ae4ab2b5a59e48be37be20e",
	},
	{ // after compaction
		"ckpt-000005": "5505561baafbcc7f28376b62833bd73a9acc44ea737d94c773c35d5544bc791e",
		"wal-000005":  "1b4e54942403fd11b032e927fcd2d6943bce74edc3bbdd2ba8c8c90159ea36f2",
	},
}

var goldenMapCompressedOneOp = [2]map[string]string{
	{ // before compaction
		"ckpt-000001": "6312c65d28df826a1f862bc728ba579beb5137abf8d36dac9ca5c2b3908a84de",
		"ckpt-000002": "f36025d05ac77b8b4e23e6abec76efa9040d128face825d09eb7654b25e5b349",
		"ckpt-000003": "b3e74dfed641691612cad2bd5dea0510f6e357709abc34e75b3e8e307dd99539",
		"ckpt-000004": "6fa3e85bdab115c7c5ad441a9d671ee88ad2cd00ff41c96f1ee5415869b612e5",
		"wal-000003":  "cb10178a23af18864edb5749801e9c37439c0e95cdc8769a994b6964fa8448ce",
		"wal-000004":  "d94c215fef244945317fd11ef04bff5771693fce6ae4ab2b5a59e48be37be20e",
	},
	{ // after compaction
		"ckpt-000005": "45357b0eab9167610883fd4ad5587031ecca3791b308a8bad3eeb3595ec7700e",
		"wal-000005":  "1b4e54942403fd11b032e927fcd2d6943bce74edc3bbdd2ba8c8c90159ea36f2",
	},
}

var goldenPoints = [2]map[string]string{
	{ // before compaction
		"ckpt-000003": "fa197ea462cff38df7ff21e21106771230a88ff903356c3cbb6f25754a59f26d",
		"ckpt-000004": "1c8f80ba18322b0f2c15647972480a1e30b1f0c6640afb68232987cd4d116136",
		"wal-000003":  "d2e7a14cd2ab9c73f6f4b243fa3c66aeb6774dd280693ecdf1c5bc3b097ab986",
		"wal-000004":  "463e50bddefab2423f69827369b87f7e5eb9c092f65b1353ccb1f0c05b2206ed",
	},
	{ // after compaction
		"ckpt-000005": "1a934255f21ef2595f918b550481ae0d9dc74f5bd1a982060a1c7f6bfe3768fe",
		"wal-000005":  "32267caa6e3ad141abae22f6aa0301bd2942838474fde5459f932b28a7122138",
	},
}
