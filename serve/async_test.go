package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pam"
	"repro/rangetree"
)

// newTunedRange is newRange with an explicit pipeline tuning.
func newTunedRange(t testing.TB, tun Tuning, splits ...uint64) *sumStore {
	s := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, splits, tun)
	t.Cleanup(s.Close)
	return s
}

// TestBackpressureBlockProgress drives many async writers through a
// deliberately starved pipeline (single shard, one-slot mailbox, a
// four-op admission budget, and a slow flush timer standing in for a
// slow consumer) in the default block mode. The test passes iff every
// write completes — a lost wakeup or a budget leak shows up as a hang,
// which the suite timeout converts into a failure with stacks.
func TestBackpressureBlockProgress(t *testing.T) {
	s := newTunedRange(t, Tuning{
		MailboxDepth:  1,
		ShardOpBudget: 4,
		FlushWait:     200 * time.Microsecond,
		FlushOps:      8,
	}) // no splits: one shard, every op contends
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	futs := make([][]*Future, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(w*perWriter + i)
				f, err := s.PutAsync(k, int64(k))
				if err != nil {
					t.Errorf("writer %d: PutAsync: %v", w, err)
					return
				}
				futs[w] = append(futs[w], f)
			}
		}(w)
	}
	wg.Wait()
	for w := range futs {
		for _, f := range futs[w] {
			if a := f.Wait(); a.Err != nil {
				t.Fatalf("future seq %d resolved with error: %v", f.Seq(), a.Err)
			}
		}
	}
	v, _ := s.Snapshot()
	if got, want := v.Size(), int64(writers*perWriter); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
}

// TestBackpressureFastFail fills a single shard's admission budget with
// held async writes and checks that the next write is rejected with
// ErrOverloaded immediately — and that the rejection costs nothing: the
// previously accepted writes still resolve and survive into snapshots,
// and the pipeline accepts new writes once the budget drains.
func TestBackpressureFastFail(t *testing.T) {
	s := newTunedRange(t, Tuning{
		MailboxDepth:  4,
		ShardOpBudget: 2,
		Backpressure:  BackpressureFastFail,
		FlushWait:     10 * time.Second, // hold writes until something forces a flush
		FlushOps:      1 << 20,
	})
	f1, err := s.PutAsync(1, 10)
	if err != nil {
		t.Fatalf("PutAsync(1): %v", err)
	}
	f2, err := s.PutAsync(2, 20)
	if err != nil {
		t.Fatalf("PutAsync(2): %v", err)
	}
	if _, err := s.PutAsync(3, 30); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget PutAsync = %v, want ErrOverloaded", err)
	}
	if _, err := s.Put(4, 40); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget sync Put = %v, want ErrOverloaded", err)
	}
	// A snapshot marker forces the held sub-batches to flush first, so
	// the accepted writes must all be visible and their futures resolve.
	v, _ := s.Snapshot()
	for _, want := range []struct {
		k uint64
		v int64
	}{{1, 10}, {2, 20}} {
		if got, ok := v.Find(want.k); !ok || got != want.v {
			t.Fatalf("Find(%d) = %d, %v after overload; accepted write lost", want.k, got, ok)
		}
	}
	if v.Contains(3) || v.Contains(4) {
		t.Fatal("rejected write leaked into the store")
	}
	for _, f := range []*Future{f1, f2} {
		if a := f.Wait(); a.Err != nil {
			t.Fatalf("accepted future seq %d resolved with error: %v", f.Seq(), a.Err)
		}
	}
	// Budget drained by the flush: the pipeline accepts writes again.
	if _, err := s.PutAsync(5, 50); err != nil {
		t.Fatalf("PutAsync after drain: %v", err)
	}
}

// TestCloseGoroutineBaseline checks that Close tears down every
// pipeline goroutine — shard loops, the resolver, and the auto-rebalance
// policy ticker — by comparing the process goroutine count before and
// after a burst of store lifecycles.
func TestCloseGoroutineBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		h, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 4, mixHash)
		if err != nil {
			t.Fatalf("NewHashStore: %v", err)
		}
		r := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, []uint64{100, 200},
			Tuning{AutoRebalance: &AutoRebalance{CheckEvery: time.Millisecond}})
		p := NewPointStore(pam.Options{}, []float64{0})
		d, err := openDurSum(NewMemFS(), 2, 4)
		if err != nil {
			t.Fatalf("openDurSum: %v", err)
		}
		var futs []*Future
		for k := uint64(0); k < 32; k++ {
			if f, err := h.PutAsync(k, 1); err == nil {
				futs = append(futs, f)
			}
			if f, err := r.PutAsync(k, 1); err == nil {
				futs = append(futs, f)
			}
			if f, err := d.PutAsync(k, 1); err == nil {
				futs = append(futs, f)
			}
			if f, err := p.InsertAsync(rangetree.Point{X: float64(k), Y: 1}, 1); err == nil {
				futs = append(futs, f)
			}
		}
		h.Close()
		r.Close()
		p.Close()
		d.Close()
		for _, f := range futs {
			if _, ok := f.TryAck(); !ok {
				t.Fatal("future enqueued before Close left unresolved")
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge any parked goroutines through exit
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrClosedSticky closes each store flavor and checks every write
// entry point returns the sticky ErrClosed instead of panicking, sync
// and async alike.
func TestErrClosedSticky(t *testing.T) {
	kv, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 2, mixHash)
	if err != nil {
		t.Fatalf("NewHashStore: %v", err)
	}
	kv.Close()
	kv.Close() // idempotent
	pt := NewPointStore(pam.Options{}, []float64{0})
	pt.Close()
	d, err := openDurSum(NewMemFS(), 2, 0)
	if err != nil {
		t.Fatalf("openDurSum: %v", err)
	}
	d.Close()
	dp, err := OpenDurablePointStore(pam.Options{}, []float64{0}, DurableConfig{FS: NewMemFS()})
	if err != nil {
		t.Fatalf("OpenDurablePointStore: %v", err)
	}
	dp.Close()
	p := rangetree.Point{X: 1, Y: 2}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"store/Apply", func() error { _, err := kv.Apply([]kvop{{Kind: OpPut, Key: 1, Val: 1}}); return err }},
		{"store/ApplyAsync", func() error { _, err := kv.ApplyAsync(nil); return err }},
		{"store/Put", func() error { _, err := kv.Put(1, 1); return err }},
		{"store/PutAsync", func() error { _, err := kv.PutAsync(1, 1); return err }},
		{"store/Delete", func() error { _, err := kv.Delete(1); return err }},
		{"store/DeleteAsync", func() error { _, err := kv.DeleteAsync(1); return err }},
		{"points/Apply", func() error { _, err := pt.Apply([]PointOp{InsertPoint(p, 1)}); return err }},
		{"points/ApplyAsync", func() error { _, err := pt.ApplyAsync(nil); return err }},
		{"points/Insert", func() error { _, err := pt.Insert(p, 1); return err }},
		{"points/InsertAsync", func() error { _, err := pt.InsertAsync(p, 1); return err }},
		{"points/Delete", func() error { _, err := pt.Delete(p); return err }},
		{"points/DeleteAsync", func() error { _, err := pt.DeleteAsync(p); return err }},
		{"durable/Apply", func() error { _, err := d.Apply([]kvop{{Kind: OpPut, Key: 1, Val: 1}}); return err }},
		{"durable/ApplyAsync", func() error { _, err := d.ApplyAsync(nil); return err }},
		{"durable/Put", func() error { _, err := d.Put(1, 1); return err }},
		{"durable/PutAsync", func() error { _, err := d.PutAsync(1, 1); return err }},
		{"durable/Delete", func() error { _, err := d.Delete(1); return err }},
		{"durable/DeleteAsync", func() error { _, err := d.DeleteAsync(1); return err }},
		{"durablepoints/Apply", func() error { _, err := dp.Apply([]PointOp{InsertPoint(p, 1)}); return err }},
		{"durablepoints/ApplyAsync", func() error { _, err := dp.ApplyAsync(nil); return err }},
		{"durablepoints/Insert", func() error { _, err := dp.Insert(p, 1); return err }},
		{"durablepoints/InsertAsync", func() error { _, err := dp.InsertAsync(p, 1); return err }},
		{"durablepoints/Delete", func() error { _, err := dp.Delete(p); return err }},
		{"durablepoints/DeleteAsync", func() error { _, err := dp.DeleteAsync(p); return err }},
		{"store/Snapshot", func() error { _, err := kv.Snapshot(); return err }},
		{"store/Rebalance", func() error {
			s := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, []uint64{10})
			s.Close()
			_, err := s.Rebalance()
			return err
		}},
		{"points/Snapshot", func() error { _, err := pt.Snapshot(); return err }},
		{"points/Rebalance", func() error { _, err := pt.Rebalance(); return err }},
		{"durable/Snapshot", func() error { _, err := d.Snapshot(); return err }},
		{"durable/Checkpoint", func() error { _, err := d.Checkpoint(); return err }},
		{"durable/Compact", func() error { _, err := d.Compact(); return err }},
		{"durablepoints/Snapshot", func() error { _, err := dp.Snapshot(); return err }},
		{"durablepoints/Checkpoint", func() error { _, err := dp.Checkpoint(); return err }},
		{"durablepoints/Compact", func() error { _, err := dp.Compact(); return err }},
		{"store/ReaderView", func() error { _, err := kv.ReaderView(); return err }},
		{"points/ReaderView", func() error { _, err := pt.ReaderView(); return err }},
		{"durable/ReaderView", func() error { _, err := d.ReaderView(); return err }},
		{"durablepoints/ReaderView", func() error { _, err := dp.ReaderView(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s on closed store = %v, want ErrClosed", tc.name, err)
			}
		})
	}
}

// TestCloseDuringInflight closes a store while writers are mid-batch:
// every write must either succeed (future resolves cleanly) or return
// ErrClosed — never panic, never hang, never resolve a future that was
// accepted before Close with an error.
func TestCloseDuringInflight(t *testing.T) {
	for _, mode := range []Backpressure{BackpressureBlock, BackpressureFastFail} {
		name := map[Backpressure]string{BackpressureBlock: "block", BackpressureFastFail: "fastfail"}[mode]
		t.Run(name, func(t *testing.T) {
			s := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
				pam.Options{}, []uint64{1 << 32},
				Tuning{MailboxDepth: 2, ShardOpBudget: 16, Backpressure: mode, FlushWait: 100 * time.Microsecond})
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						k := uint64(w)<<40 | uint64(i)
						var f *Future
						var err error
						if i%2 == 0 {
							f, err = s.PutAsync(k, int64(i))
						} else {
							_, err = s.Put(k, int64(i))
						}
						switch {
						case errors.Is(err, ErrClosed):
							return
						case errors.Is(err, ErrOverloaded):
							runtime.Gosched()
						case err != nil:
							t.Errorf("unexpected error: %v", err)
							return
						default:
							accepted.Add(1)
							if f != nil {
								if a := f.Wait(); a.Err != nil {
									t.Errorf("accepted future seq %d got %v", f.Seq(), a.Err)
									return
								}
							}
						}
					}
				}(w)
			}
			time.Sleep(2 * time.Millisecond)
			s.Close()
			wg.Wait()
			if accepted.Load() == 0 {
				t.Error("Close won every race; no write was ever accepted")
			}
			if _, err := s.Put(0, 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("Put after Close = %v, want sticky ErrClosed", err)
			}
		})
	}
}

// TestAutoRebalanceTrigger loads every key into shard 0 of a wildly
// mis-split range store and waits for the background policy to notice
// the sustained size skew and re-split: the whole point of the policy
// is that no one calls Rebalance by hand.
func TestAutoRebalanceTrigger(t *testing.T) {
	s := newTunedRange(t, Tuning{
		AutoRebalance: &AutoRebalance{
			CheckEvery: time.Millisecond,
			SizeSkew:   1.5,
			Sustain:    2,
			MinSize:    16,
		},
	}, 1000, 2000, 3000)
	for k := uint64(0); k < 100; k++ { // all below the first split: shard 0 owns everything
		if _, err := s.Put(k, int64(k)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, _ := s.Snapshot()
		maxSz, total := int64(0), int64(0)
		for i := 0; i < v.NumShards(); i++ {
			sz := v.Shard(i).Size()
			total += sz
			if sz > maxSz {
				maxSz = sz
			}
		}
		if total != 100 {
			t.Fatalf("Size = %d, want 100", total)
		}
		// Rebalance splits 100 keys across 4 shards: max shard ends
		// within one of 25, far under the 1.5x-mean trigger.
		if maxSz*int64(v.NumShards()) <= int64(1.5*float64(total)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-rebalance never fired: max shard %d of %d total", maxSz, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPointAutoRebalanceTrigger is the PointStore twin: the policy must
// watch point-count skew through the same machinery.
func TestPointAutoRebalanceTrigger(t *testing.T) {
	s := NewPointStore(pam.Options{}, []float64{1000, 2000}, Tuning{
		AutoRebalance: &AutoRebalance{
			CheckEvery: time.Millisecond,
			SizeSkew:   1.5,
			Sustain:    2,
			MinSize:    16,
		},
	})
	t.Cleanup(s.Close)
	for i := 0; i < 90; i++ {
		if _, err := s.Insert(rangetree.Point{X: float64(i), Y: float64(i % 7)}, 1); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, _ := s.Snapshot()
		maxSz, total := int64(0), int64(0)
		for i := 0; i < v.NumShards(); i++ {
			sz := v.Shard(i).Size()
			total += sz
			if sz > maxSz {
				maxSz = sz
			}
		}
		if total != 90 {
			t.Fatalf("Size = %d, want 90", total)
		}
		if maxSz*int64(v.NumShards()) <= int64(1.5*float64(total)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-rebalance never fired: max shard %d of %d total", maxSz, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatsCounters sanity-checks the ShardStats sampling: applied
// counts add up after quiescence, queue charges return to zero, and the
// flush-latency EWMA is populated once a shard has flushed.
func TestStatsCounters(t *testing.T) {
	s := newTunedRange(t, Tuning{FlushWait: 50 * time.Microsecond}, 50)
	var futs []*Future
	for k := uint64(0); k < 100; k++ {
		f, err := s.PutAsync(k, int64(k))
		if err != nil {
			t.Fatalf("PutAsync: %v", err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if a := f.Wait(); a.Err != nil {
			t.Fatalf("future: %v", a.Err)
		}
		if a := f.Wait(); a.Enqueued.After(a.Flushed) || a.Flushed.After(a.Committed) {
			t.Fatalf("timestamps out of order: enq %v flush %v commit %v",
				a.Enqueued, a.Flushed, a.Committed)
		}
		if f.Wait().QueueLatency() < 0 || f.Wait().CommitLatency() < 0 {
			t.Fatal("negative latency")
		}
	}
	var applied uint64
	for i, st := range s.Stats() {
		if st.QueuedBatches != 0 || st.QueuedOps != 0 {
			t.Fatalf("shard %d still charged after quiescence: %+v", i, st)
		}
		applied += st.AppliedOps
		if st.AppliedOps > 0 && st.FlushLatency <= 0 {
			t.Fatalf("shard %d flushed %d ops but FlushLatency = %v", i, st.AppliedOps, st.FlushLatency)
		}
	}
	if applied != 100 {
		t.Fatalf("AppliedOps sum = %d, want 100", applied)
	}
}
