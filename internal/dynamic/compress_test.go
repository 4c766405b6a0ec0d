package dynamic

import (
	"math/rand"
	"testing"

	"repro/pam"
)

// Compressed-ladder tests: Options.Compress travels in the prototype
// structure, so every level the ladder builds stores packed leaf
// blocks. The write buffer (bounded at FlushCap records) stays flat by
// design — its maps are zero values — which these tests pin too.

func compProto() testS {
	return pam.NewAugMap[int, int64, struct{}, pam.NoAug[int, int64]](pam.Options{Compress: pam.CompressInt()})
}

func newCompLadder() testLadder {
	return New[int, int64, testS, pam.NoAug[int, int64]](compProto())
}

// TestLadderCompressedLevels checks that a compressed prototype reaches
// every level structure the ladder builds, and that the levels really
// pack (physical bytes well under the flat layout's).
func TestLadderCompressedLevels(t *testing.T) {
	l := newCompLadder()
	const n = 8 * BufCap
	for i := 0; i < n; i++ {
		l = l.Insert(testBE, i, int64(i%97), nil)
	}
	levels := 0
	l.EachSide(func(sign int64, s testS) {
		levels++
		if !s.Tree().Compressed() {
			t.Fatal("ladder level built without compression despite compressed prototype")
		}
	})
	if levels == 0 {
		t.Fatalf("%d inserts left no ladder levels", n)
	}
	s := l.Condense(testBE)
	if !s.Tree().Compressed() {
		t.Fatal("Condense dropped the compressed layout")
	}
	stats := s.Tree().SpaceStats()
	if stats.CompressionRatio < 2 {
		t.Fatalf("condensed level compression ratio %.2f, want >= 2 for dense keys", stats.CompressionRatio)
	}
	if err := l.Validate(testBE); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestLadderCompressedDifferential mirrors TestLadderDifferential with
// a compressed prototype, running flat and compressed ladders through
// the same op sequence and demanding identical observable state.
func TestLadderCompressedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cl := newCompLadder()
	fl := New[int, int64, testS, pam.NoAug[int, int64]](testS{})
	m := map[int]int64{}
	for i := 0; i < 4000; i++ {
		k := rng.Intn(400)
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			cl = cl.Insert(testBE, k, int64(i), addv)
			fl = fl.Insert(testBE, k, int64(i), addv)
			m[k] += int64(i)
		case 6, 7:
			cl = cl.Delete(testBE, k)
			fl = fl.Delete(testBE, k)
			delete(m, k)
		default:
			cv, cok := cl.Find(testBE, k)
			fv, fok := fl.Find(testBE, k)
			wv, wok := m[k]
			if cok != wok || cv != wv || fok != cok || fv != cv {
				t.Fatalf("step %d: Find(%d) = %d,%v compressed / %d,%v flat, oracle %d,%v",
					i, k, cv, cok, fv, fok, wv, wok)
			}
		}
		if i%500 == 499 {
			ladderMustAgree(t, cl, m, "compressed")
			ladderMustAgree(t, fl, m, "flat")
		}
	}
	ladderMustAgree(t, cl, m, "compressed final")
	ce, fe := cl.Entries(testBE), fl.Entries(testBE)
	if len(ce) != len(fe) {
		t.Fatalf("compressed ladder has %d entries, flat %d", len(ce), len(fe))
	}
	for i := range ce {
		if ce[i] != fe[i] {
			t.Fatalf("entry %d: %v compressed vs %v flat", i, ce[i], fe[i])
		}
	}
}

// FuzzDynamicLadder drives flat and compressed ladders through the
// same byte-decoded op program (with a small flush cap, so carries
// cascade constantly) against a map oracle.
func FuzzDynamicLadder(f *testing.F) {
	old := SetFlushCap(8)
	f.Cleanup(func() { SetFlushCap(old) })
	f.Add([]byte{})
	f.Add([]byte{0, 10, 1, 10, 0, 20, 2, 15, 0, 30})
	// Carry edges: a run of inserts past the flush boundary, then
	// cancelling deletes (whole-level annihilation).
	var carry []byte
	for i := 0; i < 20; i++ {
		carry = append(carry, 0, byte(i))
	}
	for i := 0; i < 20; i++ {
		carry = append(carry, 1, byte(i))
	}
	f.Add(carry)
	f.Fuzz(func(t *testing.T, prog []byte) {
		cl := newCompLadder()
		fl := New[int, int64, testS, pam.NoAug[int, int64]](testS{})
		m := map[int]int64{}
		for i := 0; i+1 < len(prog) && i < 160; i += 2 {
			op, k := prog[i], int(prog[i+1])
			switch op % 4 {
			case 0:
				v := int64(k) * 7
				cl = cl.Insert(testBE, k, v, nil)
				fl = fl.Insert(testBE, k, v, nil)
				m[k] = v
			case 1:
				cl = cl.Delete(testBE, k)
				fl = fl.Delete(testBE, k)
				delete(m, k)
			case 2:
				cl = cl.InsertDeferred(testBE, k, 1, addv)
				fl = fl.InsertDeferred(testBE, k, 1, addv)
				m[k]++
			case 3:
				cl = cl.CarryAll(testBE)
				fl = fl.CarryAll(testBE)
			}
			cv, cok := cl.Find(testBE, k)
			wv, wok := m[k]
			if cok != wok || (wok && cv != wv) {
				t.Fatalf("op %d: compressed Find(%d) = %d,%v, oracle %d,%v", i, k, cv, cok, wv, wok)
			}
		}
		ladderMustAgree(t, cl.CarryAll(testBE), m, "compressed")
		ladderMustAgree(t, fl.CarryAll(testBE), m, "flat")
	})
}
