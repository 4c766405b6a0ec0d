package serve

import (
	"errors"
	"runtime"
	"slices"
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

// hookApply makes every flush of e call before first, on the shard
// goroutine, with the ops about to be applied. Call it before the
// store's first write: the mailbox send carrying that write orders the
// swap of e.apply before any shard goroutine reads it.
func hookApply[O, T any](e *engine[O, T], before func(shard int, ops []O)) {
	apply := e.apply
	e.apply = func(shard int, state T, ops []O) T {
		before(shard, ops)
		return apply(shard, state, ops)
	}
}

// holdFlushes makes every flush of e wait inside apply until release
// is called; entered is closed once the first flush waits. Queued work
// stays queued, and its budget charged, until then. Like hookApply,
// call it before the store's first write. Cleanup releases the gate,
// so a failing test still closes its store.
func holdFlushes[O, T any](t testing.TB, e *engine[O, T]) (entered <-chan struct{}, release func()) {
	ent, gate := make(chan struct{}), make(chan struct{})
	var first, open sync.Once
	hookApply(e, func(int, []O) {
		first.Do(func() { close(ent) })
		<-gate
	})
	release = func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return ent, release
}

// TestBackpressureBlockProgress drives many async writers through a
// deliberately starved pipeline (single shard, one-slot mailbox, a
// four-op admission budget, and an apply slowed by 200µs standing in
// for a slow consumer) in the default block mode. The test passes iff
// every write completes — a lost wakeup or a budget leak shows up as a
// hang, which the suite timeout converts into a failure with stacks.
func TestBackpressureBlockProgress(t *testing.T) {
	s := newTunedRange(t, Tuning{
		MailboxDepth:  1,
		ShardOpBudget: 4,
		FlushOps:      8,
	}) // no splits: one shard, every op contends
	hookApply(s.eng, func(int, []kvop) { time.Sleep(200 * time.Microsecond) })
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
	})
	// Hold the shard inside its first flush: nothing applies, so
	// nothing releases budget, until the gate opens.
	_, release := holdFlushes(t, s.eng)
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
	// Open the gate. The snapshot marker queues behind the accepted
	// writes, so they must all be visible and their futures resolve.
	release()
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

// TestFlushDrainsQueued pins how a shard coalesces: the sub-batches
// queued behind a flush reach apply as one call, and a snapshot marker
// queued among them splits that drain into two calls and sees exactly
// the writes sequenced before it.
func TestFlushDrainsQueued(t *testing.T) {
	const n = 6
	for _, snap := range []bool{false, true} {
		name := map[bool]string{false: "queued", true: "snapshot-among-queued"}[snap]
		t.Run(name, func(t *testing.T) {
			s := newTunedRange(t, Tuning{}) // no splits: one shard
			var mu sync.Mutex
			var calls [][]uint64 // the keys of each apply call
			hookApply(s.eng, func(_ int, ops []kvop) {
				keys := make([]uint64, len(ops))
				for i, op := range ops {
					keys[i] = op.Key
				}
				mu.Lock()
				calls = append(calls, keys)
				mu.Unlock()
			})
			entered, release := holdFlushes(t, s.eng)
			put := func(lo, hi uint64) []*Future {
				var futs []*Future
				for k := lo; k < hi; k++ {
					f, err := s.PutAsync(k, int64(k))
					if err != nil {
						t.Fatalf("PutAsync(%d): %v", k, err)
					}
					futs = append(futs, f)
				}
				return futs
			}
			futs := put(0, 1)
			<-entered // key 0's flush holds the shard; the rest queue
			futs = append(futs, put(1, n+1)...)
			want := [][]uint64{{0}, seqKeys(1, n+1)}
			var views chan sumView
			if snap {
				views = make(chan sumView, 1)
				go func() {
					v, err := s.Snapshot()
					if err != nil {
						t.Errorf("Snapshot: %v", err)
					}
					views <- v
				}()
				// The marker is queued once the mailbox holds it behind
				// the n writes; then queue n more behind it.
				mail := s.eng.shards[0].mail
				for deadline := time.Now().Add(10 * time.Second); len(mail) < n+1; {
					if time.Now().After(deadline) {
						t.Fatalf("snapshot marker never queued: %d in mailbox", len(mail))
					}
					runtime.Gosched()
				}
				futs = append(futs, put(n+1, 2*n+1)...)
				want = append(want, seqKeys(n+1, 2*n+1))
			}
			release()
			for _, f := range futs {
				if a := f.Wait(); a.Err != nil {
					t.Fatalf("future seq %d: %v", f.Seq(), a.Err)
				}
			}
			mu.Lock()
			got := calls
			mu.Unlock()
			if !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
				t.Fatalf("apply calls = %v, want %v", got, want)
			}
			if !snap {
				return
			}
			v := <-views
			if v.Seq() != n+1 {
				t.Fatalf("snapshot Seq = %d, want %d", v.Seq(), n+1)
			}
			if keys := v.Keys(); !slices.Equal(keys, seqKeys(0, n+1)) {
				t.Fatalf("snapshot keys = %v, want the prefix %v", keys, seqKeys(0, n+1))
			}
		})
	}
}

// seqKeys returns lo, lo+1, ..., hi-1.
func seqKeys(lo, hi uint64) []uint64 {
	var ks []uint64
	for k := lo; k < hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestCloseGoroutineBaseline checks that Close tears down every
// background goroutine — shard loops, the resolver, the carry pool, the
// checkpointer and the scrubber — by comparing the process goroutine
// count before and after a burst of store lifecycles.
func TestCloseGoroutineBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		h, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 4, mixHash)
		if err != nil {
			t.Fatalf("NewHashStore: %v", err)
		}
		r := NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, []uint64{100, 200})
		p := NewPointStore(pam.Options{}, []float64{0})
		pc := NewPointStore(pam.Options{}, []float64{0}, Tuning{CarryWorkers: 2})
		d, err := openDurSum(NewMemFS(), 2, 4)
		if err != nil {
			t.Fatalf("openDurSum: %v", err)
		}
		ds, err := openDurCfg(NewMemFS(), 2, DurableConfig{CheckpointEvery: 4, ScrubEvery: time.Millisecond})
		if err != nil {
			t.Fatalf("openDurCfg: %v", err)
		}
		dp, err := OpenDurablePointStore(pam.Options{}, []float64{0}, DurableConfig{FS: NewMemFS(), CheckpointEvery: 4})
		if err != nil {
			t.Fatalf("OpenDurablePointStore: %v", err)
		}
		var futs []*Future
		for k := uint64(0); k < 32; k++ {
			for _, put := range []func(uint64, int64) (*Future, error){h.PutAsync, r.PutAsync, d.PutAsync, ds.PutAsync} {
				if f, err := put(k, 1); err == nil {
					futs = append(futs, f)
				}
			}
			pt := rangetree.Point{X: float64(k), Y: 1}
			for _, ins := range []func(rangetree.Point, int64) (*Future, error){p.InsertAsync, pc.InsertAsync, dp.InsertAsync} {
				if f, err := ins(pt, 1); err == nil {
					futs = append(futs, f)
				}
			}
		}
		h.Close()
		r.Close()
		p.Close()
		pc.Close()
		d.Close()
		ds.Close()
		dp.Close()
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

// TestErrClosedSticky closes each store flavor twice (Close is
// idempotent; point stores with and without carry workers) and checks
// every write entry point returns the sticky ErrClosed instead of
// panicking, sync and async alike.
func TestErrClosedSticky(t *testing.T) {
	kv, err := NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{}, 2, mixHash)
	if err != nil {
		t.Fatalf("NewHashStore: %v", err)
	}
	kv.Close()
	kv.Close()
	pt := NewPointStore(pam.Options{}, []float64{0})
	pt.Close()
	pt.Close()
	d, err := openDurSum(NewMemFS(), 2, 0)
	if err != nil {
		t.Fatalf("openDurSum: %v", err)
	}
	d.Close()
	d.Close()
	dp, err := OpenDurablePointStore(pam.Options{}, []float64{0}, DurableConfig{FS: NewMemFS()})
	if err != nil {
		t.Fatalf("OpenDurablePointStore: %v", err)
	}
	dp.Close()
	dp.Close()
	for _, tc := range []struct {
		name  string
		twice func(t *testing.T)
	}{
		{"points/CarryWorkers2", func(t *testing.T) {
			s := NewPointStore(pam.Options{}, []float64{0}, Tuning{CarryWorkers: 2})
			s.Close()
			s.Close()
		}},
		{"durablepoints/CarryWorkers2", func(t *testing.T) {
			s, err := OpenDurablePointStore(pam.Options{}, []float64{0}, DurableConfig{FS: NewMemFS(), Tuning: Tuning{CarryWorkers: 2}})
			if err != nil {
				t.Fatalf("OpenDurablePointStore: %v", err)
			}
			s.Close()
			s.Close()
		}},
	} {
		t.Run("CloseTwice/"+tc.name, tc.twice)
	}
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
		{"hash/Rebalance", func() error { _, err := kv.Rebalance(); return err }},
		{"points/Snapshot", func() error { _, err := pt.Snapshot(); return err }},
		{"points/Rebalance", func() error { _, err := pt.Rebalance(); return err }},
		{"durable/Snapshot", func() error { _, err := d.Snapshot(); return err }},
		{"durable/Rebalance", func() error { _, err := d.Rebalance(); return err }},
		{"durable/Checkpoint", func() error { _, err := d.Checkpoint(); return err }},
		{"durable/Compact", func() error { _, err := d.Compact(); return err }},
		{"durablepoints/Snapshot", func() error { _, err := dp.Snapshot(); return err }},
		{"durablepoints/Rebalance", func() error { _, err := dp.Rebalance(); return err }},
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
				Tuning{MailboxDepth: 2, ShardOpBudget: 16, Backpressure: mode})
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

// TestStatsCounters sanity-checks the ShardStats sampling: applied
// counts add up after quiescence, and queue charges return to zero.
func TestStatsCounters(t *testing.T) {
	s := newRange(t, 50)
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
	}
	if applied != 100 {
		t.Fatalf("AppliedOps sum = %d, want 100", applied)
	}
}
