package pam

import "testing"

// TestEncodeDeltaAfterInPlace edits a map in place after encoding it:
// the next delta must write the edited path again, and the decoded
// chain must equal the map. An in-place edit reuses the nodes of an
// unshared map, so a record that still described a reused node would
// drop the edit from every later checkpoint.
func TestEncodeDeltaAfterInPlace(t *testing.T) {
	type sumMap = AugMap[uint64, int64, int64, SumEntry[uint64, int64]]
	edits := []struct {
		name string
		edit func(m *sumMap)
	}{
		{"InsertInPlace", func(m *sumMap) { m.InsertInPlace(7, 700) }},
		{"DeleteInPlace", func(m *sumMap) { m.DeleteInPlace(500) }},
		{"MultiInsertInPlace", func(m *sumMap) {
			m.MultiInsertInPlace([]KV[uint64, int64]{{Key: 7, Val: 700}, {Key: 1003, Val: 3}, {Key: 4000, Val: 4}}, nil)
		}},
	}
	for _, comp := range []bool{false, true} {
		opts := Options{}
		if comp {
			opts.Compress = CompressUint64()
		}
		for _, e := range edits {
			t.Run(map[bool]string{false: "flat", true: "compressed"}[comp]+"/"+e.name, func(t *testing.T) {
				items := make([]KV[uint64, int64], 1000)
				for i := range items {
					items[i] = KV[uint64, int64]{Key: uint64(2 * i), Val: int64(i)}
				}
				m := NewAugMap[uint64, int64, int64, SumEntry[uint64, int64]](opts).BuildSorted(items)
				codec := Uint64Codec()
				rs := NewRecordSet[uint64, int64, int64]()
				buf, _, n0 := m.EncodeDelta(rs, codec, nil)
				e.edit(&m)
				buf, root, n1 := m.EncodeDelta(rs, codec, buf)
				if n1 == 0 {
					t.Fatal("the delta after an in-place edit wrote no records")
				}
				tb := NewDecodeTable[uint64, int64, int64, SumEntry[uint64, int64]](opts)
				if rest, err := tb.DecodeRecords(codec, buf, n0+n1); err != nil || len(rest) != 0 {
					t.Fatalf("decode: %v, %d bytes left", err, len(rest))
				}
				got, err := tb.Map(root)
				if err != nil {
					t.Fatalf("Map(%d): %v", root, err)
				}
				if err := got.Validate(func(a, b int64) bool { return a == b }); err != nil {
					t.Fatalf("decoded map invalid: %v", err)
				}
				want, have := m.Entries(), got.Entries()
				if len(have) != len(want) {
					t.Fatalf("decoded %d entries, want %d", len(have), len(want))
				}
				for i := range want {
					if have[i] != want[i] {
						t.Fatalf("entry %d = %v, want %v", i, have[i], want[i])
					}
				}
				sum, _ := tb.Digest(root)
				if ref, ok := m.RootDigest(rs); !ok || ref != sum {
					t.Fatalf("decoded root digest differs from the encoded one (ok %v)", ok)
				}
			})
		}
	}
}
