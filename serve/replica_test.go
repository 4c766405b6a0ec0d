package serve

// Read replicas and the PR-9 bugfix regressions: the float-padding
// Rebalance fix (pad++ is a no-op at 2^53 and ±Inf), constructor and
// rebalance error returns replacing panics, NaN rejection, and the
// replica staleness contract — each shard's slice of a ReaderView
// equals that shard's state after some prefix of its applied
// sub-batches, with versions and epochs monotone.

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

func TestNewHashStoreZeroShards(t *testing.T) {
	for _, shards := range []int{0, -3} {
		s, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, shards, mixHash)
		if !errors.Is(err, ErrNoShards) {
			t.Fatalf("NewHashStore(shards=%d) err = %v, want ErrNoShards", shards, err)
		}
		if s != nil {
			t.Fatal("NewHashStore returned a store alongside the error")
		}
	}
}

// TestNilHashOrCodec checks the constructors reject a nil hash or codec
// with an error: a store built on one panics on its first write, under
// the sequencer lock, wedging it even if the caller recovers.
func TestNilHashOrCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (opened bool, err error)
	}{
		{"NewHashStore/hash", func() (bool, error) {
			s, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 2, nil)
			return s != nil, err
		}},
		{"OpenDurableStore/hash", func() (bool, error) {
			d, err := OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
				pam.Options{}, 2, nil, pam.Uint64Codec(), DurableConfig{FS: NewMemFS()})
			return d != nil, err
		}},
		{"OpenDurableStore/codec", func() (bool, error) {
			d, err := OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
				pam.Options{}, 2, mixHash, nil, DurableConfig{FS: NewMemFS()})
			return d != nil, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opened, err := tc.open()
			if err == nil {
				t.Fatalf("%s accepted a nil argument", tc.name)
			}
			if opened {
				t.Fatalf("%s returned a store alongside the error", tc.name)
			}
		})
	}
}

// TestRebalanceShardCountError feeds the engine a redistribute function
// that changes the shard count: the rebalance must fail with
// ErrRebalanceShards instead of panicking, reinstall the old states,
// and leave the store fully serving.
func TestRebalanceShardCountError(t *testing.T) {
	s := newHash(t, 3)
	for k := uint64(0); k < 64; k++ {
		if _, err := s.Put(k, int64(k)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	type m = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	err := s.eng.rebalance(func(states []m) ([]m, func(kvop) int) {
		return states[:len(states)-1], nil // drops a shard
	})
	if !errors.Is(err, ErrRebalanceShards) {
		t.Fatalf("count-changing rebalance err = %v, want ErrRebalanceShards", err)
	}
	// The store must still serve: writes, snapshots, replica views.
	if _, err := s.Put(1000, 1); err != nil {
		t.Fatalf("Put after failed rebalance: %v", err)
	}
	v, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after failed rebalance: %v", err)
	}
	if v.Size() != 65 {
		t.Fatalf("Size after failed rebalance = %d, want 65", v.Size())
	}
	if _, err := s.ReaderView(); err != nil {
		t.Fatalf("ReaderView after failed rebalance: %v", err)
	}
}

// TestRebalanceFloatPadding is the regression for the pad++ padding
// loop: incrementing a float64 by 1 is a no-op at x >= 2^53 (1 is below
// the ulp) and at +Inf, so a point set whose maximum x sits there used
// to loop forever when fewer distinct xs than shards exist. The
// Nextafter-based padding must terminate, keep the splits strictly
// increasing, preserve the shard count, and route every point home.
func TestRebalanceFloatPadding(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"2^53", []float64{1 << 53}},
		{"+Inf", []float64{math.Inf(1)}},
		{"2^53 pair", []float64{1 << 53, 3}},
		{"MaxFloat64", []float64{math.MaxFloat64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewPointStore(pam.Options{}, []float64{1, 2}) // 3 shards
			defer s.Close()
			var want int64
			for i, x := range tc.xs {
				if _, err := s.Insert(rangetree.Point{X: x, Y: float64(i)}, 1); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				want++
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.Rebalance()
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Rebalance: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Rebalance hung (padding loop did not terminate)")
			}
			splits := s.Splits()
			if len(splits) != 2 {
				t.Fatalf("splits after rebalance = %v, want 2 entries", splits)
			}
			for i := 1; i < len(splits); i++ {
				if !(splits[i-1] < splits[i]) {
					t.Fatalf("splits not strictly increasing: %v", splits)
				}
			}
			v, err := s.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if v.NumShards() != 3 {
				t.Fatalf("shard count changed to %d", v.NumShards())
			}
			if got := v.QueryCount(everything); got != want {
				t.Fatalf("QueryCount = %d, want %d", got, want)
			}
			for i, x := range tc.xs {
				p := rangetree.Point{X: x, Y: float64(i)}
				if w, ok := v.Weight(p); !ok || w != 1 {
					t.Fatalf("Weight(%v) = %d,%v after rebalance", p, w, ok)
				}
			}
			// The store keeps accepting writes routed by the new splits.
			if _, err := s.Insert(rangetree.Point{X: 0.5, Y: 9}, 2); err != nil {
				t.Fatalf("Insert after rebalance: %v", err)
			}
		})
	}
}

func TestNaNPointRejected(t *testing.T) {
	s := NewPointStore(pam.Options{}, []float64{0})
	defer s.Close()
	for _, p := range []rangetree.Point{
		{X: math.NaN(), Y: 1},
		{X: 1, Y: math.NaN()},
	} {
		if _, err := s.Insert(p, 1); !errors.Is(err, ErrNaNPoint) {
			t.Fatalf("Insert(%v) err = %v, want ErrNaNPoint", p, err)
		}
		if _, err := s.InsertAsync(p, 1); !errors.Is(err, ErrNaNPoint) {
			t.Fatalf("InsertAsync(%v) err = %v, want ErrNaNPoint", p, err)
		}
		if _, err := s.Delete(p); !errors.Is(err, ErrNaNPoint) {
			t.Fatalf("Delete(%v) err = %v, want ErrNaNPoint", p, err)
		}
	}
	// Rejections consume no sequence number and leave the store clean.
	seqn, err := s.Insert(rangetree.Point{X: 1, Y: 1}, 1)
	if err != nil {
		t.Fatalf("clean Insert: %v", err)
	}
	if seqn != 0 {
		t.Fatalf("NaN rejections burned sequence numbers: first clean write at seq %d", seqn)
	}
}

// TestReplicaPrefixConsistency is the replica-side differential check:
// concurrent writers stream batches into a hash store while readers
// record ReaderViews; afterwards each recorded view's shards are
// verified against the oracle — shard i at version v must equal the
// replay of exactly the first v sub-batches routed to shard i in global
// sequence order (hash stores never rebalance, so versions count
// applied sub-batches only).
func TestReplicaPrefixConsistency(t *testing.T) {
	const (
		shards   = 4
		writers  = 4
		perW     = 150
		keySpace = 256
	)
	s := newHash(t, shards)

	type acked struct {
		seq uint64
		ops []kvop
	}
	var mu sync.Mutex
	var all []acked

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := uint64((w*perW + i*13) % keySpace)
				ops := []kvop{{Kind: OpPut, Key: k, Val: int64(w<<20 | i)}}
				if i%5 == 4 {
					ops = append(ops, kvop{Kind: OpDelete, Key: (k + 31) % keySpace})
				}
				seqn, err := s.Apply(ops)
				if err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				mu.Lock()
				all = append(all, acked{seq: seqn, ops: ops})
				mu.Unlock()
			}
		}(w)
	}

	// Concurrent readers record replica views (bounded) and check
	// monotonicity online.
	const maxViews = 64
	var views []sumView
	stop := make(chan struct{})
	var aux sync.WaitGroup
	for r := 0; r < 3; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			var prevE, prevV []uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := s.ReaderView()
				if err != nil {
					t.Errorf("ReaderView: %v", err)
					return
				}
				e, ver := v.Epochs(), v.Versions()
				if prevE != nil {
					for i := range e {
						if e[i] < prevE[i] || ver[i] < prevV[i] {
							t.Errorf("replica shard %d went backwards: epoch %d->%d version %d->%d",
								i, prevE[i], e[i], prevV[i], ver[i])
						}
					}
				}
				prevE, prevV = e, ver
				mu.Lock()
				if len(views) < maxViews {
					views = append(views, v)
				}
				mu.Unlock()
				runtime.Gosched()
			}
		}()
	}

	wg.Wait()
	// One more view after all writes: it may still trail (publication is
	// asynchronous), so it joins the prefix check rather than a final
	// equality check.
	vlast, err := s.ReaderView()
	if err != nil {
		t.Fatalf("ReaderView: %v", err)
	}
	close(stop)
	aux.Wait()
	views = append(views, vlast)
	if t.Failed() {
		t.FailNow()
	}

	// Oracle: replay acked batches in sequence order, recording each
	// shard's state after every sub-batch (pam maps are persistent, so
	// snapshots are free).
	sortAcked := all
	if len(sortAcked) != writers*perW {
		t.Fatalf("recorded %d acked batches, want %d", len(sortAcked), writers*perW)
	}
	bySeq := make([][]kvop, len(sortAcked))
	for _, a := range sortAcked {
		if bySeq[a.seq] != nil {
			t.Fatalf("duplicate seq %d", a.seq)
		}
		bySeq[a.seq] = a.ops
	}
	type shardMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]
	states := make([][]shardMap, shards) // states[i][v] = shard i after v sub-batches
	cur := make([]shardMap, shards)
	for i := range cur {
		cur[i] = pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
		states[i] = []shardMap{cur[i]}
	}
	route := func(k uint64) int { return int(mixHash(k) % uint64(shards)) }
	for _, ops := range bySeq {
		per := make([][]kvop, shards)
		for _, op := range ops {
			i := route(op.Key)
			per[i] = append(per[i], op)
		}
		for i, sub := range per {
			if len(sub) == 0 {
				continue
			}
			cur[i] = applyOps(cur[i], sub)
			states[i] = append(states[i], cur[i])
		}
	}

	for vi, v := range views {
		vers := v.Versions()
		for i := 0; i < shards; i++ {
			vv := vers[i]
			if vv >= uint64(len(states[i])) {
				t.Fatalf("view %d shard %d: version %d exceeds %d applied sub-batches",
					vi, i, vv, len(states[i])-1)
			}
			want := states[i][vv]
			got := v.Shard(i)
			if got.Size() != want.Size() {
				t.Fatalf("view %d shard %d @v%d: Size %d, oracle %d", vi, i, vv, got.Size(), want.Size())
			}
			we := want.Entries()
			for j, e := range got.Entries() {
				if we[j] != e {
					t.Fatalf("view %d shard %d @v%d: entry %d = %v, oracle %v", vi, i, vv, j, e, we[j])
				}
			}
		}
	}
}

// TestPointReplicaPrefix is the spatial counterpart with background
// carries on: single-writer per-shard streams make each shard's state a
// pure function of its version, so each recorded replica view must
// equal the oracle prefix exactly — even when the published trees carry
// overflow runs whose background carry hasn't landed.
func TestPointReplicaPrefix(t *testing.T) {
	old := dynamic.SetFlushCap(3)
	defer dynamic.SetFlushCap(old)

	const perShard = 160
	splits := []float64{10}
	s := NewPointStore(pam.Options{}, splits,
		Tuning{CarryWorkers: 2, MaxPendingCarries: 2})
	defer s.Close()

	// One writer per shard, each inserting only into its own x range:
	// shard i's version v means exactly the first v of that writer's
	// writes are in (sub-batch = batch here: one op per batch).
	var wg sync.WaitGroup
	for sh := 0; sh < 2; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				p := rangetree.Point{X: float64(sh*10 + i%8), Y: float64(i)}
				if _, err := s.Insert(p, int64(i+1)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(sh)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		var prevE []uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := s.ReaderView()
			if err != nil {
				t.Errorf("ReaderView: %v", err)
				return
			}
			if e := v.Epochs(); prevE != nil {
				for i := range e {
					if e[i] < prevE[i] {
						t.Errorf("replica epoch went backwards on shard %d", i)
					}
				}
				prevE = e
			} else {
				prevE = v.Epochs()
			}
			// Per-shard prefix: shard sh at version v holds exactly the
			// writer's first v inserts (weights accumulate per point).
			for sh := 0; sh < 2; sh++ {
				vv := v.Versions()[sh]
				oracle := map[rangetree.Point]int64{}
				for i := 0; i < int(vv); i++ {
					oracle[rangetree.Point{X: float64(sh*10 + i%8), Y: float64(i)}] += int64(i + 1)
				}
				tr := v.Shard(sh)
				if got, want := tr.Size(), int64(len(oracle)); got != want {
					t.Errorf("shard %d @v%d: Size %d, oracle %d", sh, vv, got, want)
					return
				}
				for p, w := range oracle {
					if got, ok := tr.Weight(p); !ok || got != w {
						t.Errorf("shard %d @v%d: Weight(%v) = %d,%v, oracle %d", sh, vv, p, got, ok, w)
						return
					}
				}
			}
			runtime.Gosched()
		}
	}()

	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Background carries really ran (flushCap 3 over 160 writes/shard).
	v, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < v.NumShards(); i++ {
		if err := v.Shard(i).Validate(); err != nil {
			t.Fatalf("final shard %d Validate: %v", i, err)
		}
	}
}

// TestServeStressCarries is the carry-worker -race stress: writers
// stream into a carrier-backed point store with a tiny flush capacity
// while a rebalancer (which invalidates in-flight carries), replica
// readers, and validating snapshotters run concurrently.
func TestServeStressCarries(t *testing.T) {
	old := dynamic.SetFlushCap(3)
	defer dynamic.SetFlushCap(old)

	s := NewPointStore(pam.Options{}, []float64{5, 11},
		Tuning{CarryWorkers: 3, MaxPendingCarries: 2})
	defer s.Close()

	const writers, perW = 3, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				p := rangetree.Point{X: float64((w*3 + i) % 16), Y: float64(i % 16)}
				if i%4 == 3 {
					s.Delete(p)
				} else {
					s.Insert(p, int64(1+i%5))
				}
			}
		}(w)
	}
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // rebalancer: each pass invalidates in-flight carries
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Rebalance()
			runtime.Gosched()
		}
	}()
	aux.Add(1)
	go func() { // snapshotting reader: queries + per-shard Validate
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _ := s.Snapshot()
			if got := v.QueryCount(everything); got != v.Size() {
				t.Errorf("QueryCount(everything) = %d, Size = %d", got, v.Size())
			}
			for i := 0; i < v.NumShards(); i++ {
				if err := v.Shard(i).Validate(); err != nil {
					t.Errorf("shard %d Validate: %v", i, err)
				}
			}
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func() { // replica readers racing publications and rebalances
			defer aux.Done()
			var prevE []uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := s.ReaderView()
				if err != nil {
					t.Errorf("ReaderView: %v", err)
					return
				}
				e := v.Epochs()
				if prevE != nil {
					for i := range e {
						if e[i] < prevE[i] {
							t.Errorf("replica epoch went backwards on shard %d", i)
						}
					}
				}
				prevE = e
				if got := v.QueryCount(everything); got != v.Size() {
					t.Errorf("replica QueryCount = %d, Size = %d", got, v.Size())
				}
				runtime.Gosched()
			}
		}()
	}

	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		t.FailNow()
	}
	final, _ := s.Snapshot()
	for i := 0; i < final.NumShards(); i++ {
		if err := final.Shard(i).Validate(); err != nil {
			t.Fatalf("final shard %d Validate: %v", i, err)
		}
	}
}

// TestDurablePointsCarryWorkers checks the durability interplay:
// checkpoints taken while background carries are pending must store
// every point of the captured ladders, overflow runs included, and a
// reopened store replays to the same contents.
func TestDurablePointsCarryWorkers(t *testing.T) {
	old := dynamic.SetFlushCap(3)
	defer dynamic.SetFlushCap(old)

	fs := NewMemFS()
	cfg := DurableConfig{FS: fs, Tuning: Tuning{CarryWorkers: 2, MaxPendingCarries: 2}}
	d, err := OpenDurablePointStore(pam.Options{}, []float64{8}, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := map[rangetree.Point]int64{}
	for i := 0; i < 300; i++ {
		p := rangetree.Point{X: float64(i % 16), Y: float64(i % 7)}
		if i%5 == 4 {
			if _, err := d.Delete(p); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(oracle, p)
		} else {
			if _, err := d.Insert(p, int64(1+i%3)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			oracle[p] += int64(1 + i%3)
		}
		if i%90 == 89 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := OpenDurablePointStore(pam.Options{}, []float64{8}, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	v, err := d2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, oracle %d", got, want)
	}
	for p, w := range oracle {
		if got, ok := v.Weight(p); !ok || got != w {
			t.Fatalf("recovered Weight(%v) = %d,%v, oracle %d", p, got, ok, w)
		}
	}
	// The recovered store still runs background carries.
	if _, err := d2.Insert(rangetree.Point{X: 3, Y: 99}, 7); err != nil {
		t.Fatalf("Insert after reopen: %v", err)
	}
	if _, err := d2.ReaderView(); err != nil {
		t.Fatalf("ReaderView after reopen: %v", err)
	}
}
