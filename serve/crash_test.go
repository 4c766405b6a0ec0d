package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

// Crash–recovery fault injection. Each schedule runs a durable store on
// a MemFS armed with a randomized kill point: after a random number of
// mutating filesystem operations, the filesystem "loses power" — the
// crashing write lands as a torn prefix and every later operation fails
// with ErrCrashed. The kill point lands anywhere: mid-batch flush,
// mid-checkpoint, mid-WAL append, mid-rename. Concurrent writers record
// every batch they submitted (sequence number, ops, whether the write
// was acknowledged). We then mount what DurableState says survived —
// synced bytes plus a random torn prefix of unsynced tails — reopen,
// and check the recovery contract:
//
//  1. the recovered store holds exactly the batches [0, R) for some R
//     (a gapless sequence prefix, verified against an oracle replay),
//  2. R covers every acknowledged batch (acked writes are never lost),
//  3. the recovered store is live: it accepts writes and checkpoints.
//
// A third of schedules additionally crash during recovery itself and
// then recover from that second wreckage; recovery must be idempotent.

// crashBatch records one submitted batch as seen by its writer.
type crashBatch struct {
	seq   uint64
	ops   []kvop
	acked bool
}

func runCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	if rng.Intn(5) > 0 { // 1 in 5 schedules runs with no kill point (clean shutdown)
		fs.SetKillPoint(int64(rng.Intn(140)), rand.New(rand.NewSource(seed^0x5deece66d)))
	}
	shards := 1 + rng.Intn(3)
	writers := 1 + rng.Intn(3)
	every := rng.Intn(4) * 3 // 0 disables automatic checkpoints
	var tuning []Tuning
	if rng.Intn(2) == 0 { // half the schedules run a non-default pipeline
		tuning = append(tuning, crashTuning(rng))
	}
	opts := crashOpts(seed) // half the schedules store compressed leaf blocks
	const keySpace = 24

	d, err := openDurSumOpts(opts, fs, shards, every, tuning...)
	if err != nil {
		t.Fatalf("initial open on an empty filesystem: %v", err)
	}

	// Pre-generate each writer's plan so goroutines never touch rng.
	type step struct {
		ops  []kvop
		ckpt bool
	}
	plans := make([][]step, writers)
	for w := range plans {
		for b := 2 + rng.Intn(8); b > 0; b-- {
			ops := make([]kvop, 1+rng.Intn(5))
			for i := range ops {
				k := uint64(rng.Intn(keySpace))
				if rng.Intn(3) == 0 {
					ops[i] = kvop{Kind: OpDelete, Key: k}
				} else {
					ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(100))}
				}
			}
			plans[w] = append(plans[w], step{ops: ops, ckpt: rng.Intn(4) == 0})
		}
	}

	var mu sync.Mutex
	var subs []crashBatch
	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(steps []step) {
			defer wg.Done()
			for _, s := range steps {
				seq, err := d.Apply(s.ops)
				mu.Lock()
				subs = append(subs, crashBatch{seq: seq, ops: s.ops, acked: err == nil})
				mu.Unlock()
				if err != nil {
					return // the filesystem is gone; this writer stops
				}
				if s.ckpt {
					if _, err := d.Checkpoint(); err != nil {
						return
					}
				}
			}
		}(plans[w])
	}
	wg.Wait()
	d.Close() // after a crash this fails with ErrCrashed; a clean run flushes

	// Mount the surviving bytes and recover.
	fs2 := NewMemFSFrom(fs.DurableState())
	if rng.Intn(3) == 0 {
		// Crash during recovery, then recover from the second wreckage.
		fs2.SetKillPoint(int64(rng.Intn(12)), rand.New(rand.NewSource(seed^0x2545f49)))
		d2, err := openDurSumOpts(opts, fs2, shards, 0)
		if err == nil {
			// The kill point is still armed; liveness probes may trip it.
			verifyCrashRecovery(t, d2, subs, true)
			d2.Close()
			return
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("recovery failed with a non-crash error: %v", err)
		}
		fs2 = NewMemFSFrom(fs2.DurableState())
	}
	d2, err := openDurSumOpts(opts, fs2, shards, 0)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	verifyCrashRecovery(t, d2, subs, false)
	d2.Close()
}

// crashOpts gives half the crash schedules compressed leaf blocks, so
// checkpoint, WAL replay, compaction, and torn-write recovery all run
// against packed payloads too. Recovery must reopen with the same
// options, so the choice is a pure function of the seed.
func crashOpts(seed int64) pam.Options {
	if seed%2 == 0 {
		return pam.Options{Compress: pam.CompressUint64()}
	}
	return pam.Options{}
}

// verifyCrashRecovery asserts the recovery contract against the record
// of submitted batches. If mayStillCrash, the filesystem is armed and
// liveness probes tolerate ErrCrashed.
func verifyCrashRecovery(t *testing.T, d *durSumStore, subs []crashBatch, mayStillCrash bool) {
	t.Helper()
	v, _ := d.Snapshot()
	r := v.Seq()

	sort.Slice(subs, func(i, j int) bool { return subs[i].seq < subs[j].seq })
	for i, b := range subs {
		if b.seq != uint64(i) {
			t.Fatalf("submitted sequence numbers not dense: position %d holds seq %d", i, b.seq)
		}
	}
	if r > uint64(len(subs)) {
		t.Fatalf("recovered prefix [0,%d) extends past the %d submitted batches", r, len(subs))
	}
	for _, b := range subs {
		if b.acked && b.seq >= r {
			t.Fatalf("acknowledged batch seq=%d lost: recovered prefix ends at %d", b.seq, r)
		}
	}

	oracle := map[uint64]int64{}
	for _, b := range subs[:r] {
		for _, op := range b.ops {
			if op.Kind == OpDelete {
				delete(oracle, op.Key)
			} else {
				oracle[op.Key] = op.Val
			}
		}
	}
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, oracle prefix [0,%d) has %d keys", got, r, want)
	}
	var sum int64
	for k, want := range oracle {
		sum += want
		if got, ok := v.Find(k); !ok || got != want {
			t.Fatalf("recovered Find(%d) = %d,%v; oracle prefix [0,%d) says %d", k, got, ok, r, want)
		}
	}
	if got := v.AugVal(); got != sum {
		t.Fatalf("recovered AugVal = %d, oracle sum %d", got, sum)
	}

	// Liveness: the recovered store must accept writes and checkpoints.
	if _, err := d.Put(1<<40, 1); err != nil && !(mayStillCrash && errors.Is(err, ErrCrashed)) {
		t.Fatalf("post-recovery Put: %v", err)
	} else if err == nil {
		if _, err := d.Checkpoint(); err != nil && !(mayStillCrash && errors.Is(err, ErrCrashed)) {
			t.Fatalf("post-recovery Checkpoint: %v", err)
		}
	}
}

// TestCrashRecoverySchedules is the headline fault-injection run: 1000+
// randomized kill-point schedules (a reduced count under -short), each
// crashing the store at an arbitrary filesystem operation and checking
// that recovery restores exactly an acknowledged-covering prefix.
func TestCrashRecoverySchedules(t *testing.T) {
	n := 1100
	if testing.Short() {
		n = 150
	}
	for i := 0; i < n; i++ {
		seed := int64(i) + 1
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSchedule(t, seed)
		})
	}
}

// crashTuning derives a randomized async-pipeline tuning for a crash
// schedule: small mailboxes and budgets keep the admission path hot,
// and small flush caps split queued async batches across several
// flushes when the filesystem dies.
func crashTuning(rng *rand.Rand) Tuning {
	tun := Tuning{
		MailboxDepth:  1 + rng.Intn(4),
		ShardOpBudget: 2 + rng.Intn(24),
		FlushOps:      1 + rng.Intn(8),
	}
	// Discard a fourth draw so that every seed's later draws, and with
	// them its whole schedule, stay the ones the seed has always made.
	rng.Intn(150)
	return tun
}

// runAsyncCrashSchedule is the asynchronous twin of runCrashSchedule:
// writers submit through ApplyAsync and keep going without waiting, so
// the kill point lands anywhere between a future's enqueue and the WAL
// fsync that would resolve it. Close resolves every outstanding future;
// a future that resolved with a nil Ack.Err is an acknowledged durable
// batch and must survive recovery exactly like a sync ack.
func runAsyncCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	if rng.Intn(5) > 0 {
		fs.SetKillPoint(int64(rng.Intn(140)), rand.New(rand.NewSource(seed^0x7f4a7c15)))
	}
	shards := 1 + rng.Intn(3)
	writers := 1 + rng.Intn(3)
	every := rng.Intn(4) * 3
	tun := crashTuning(rng)
	opts := crashOpts(seed)
	const keySpace = 24

	d, err := openDurSumOpts(opts, fs, shards, every, tun)
	if err != nil {
		t.Fatalf("initial open on an empty filesystem: %v", err)
	}

	type step struct {
		ops  []kvop
		ckpt bool
	}
	plans := make([][]step, writers)
	for w := range plans {
		for b := 2 + rng.Intn(8); b > 0; b-- {
			ops := make([]kvop, 1+rng.Intn(5))
			for i := range ops {
				k := uint64(rng.Intn(keySpace))
				if rng.Intn(3) == 0 {
					ops[i] = kvop{Kind: OpDelete, Key: k}
				} else {
					ops[i] = kvop{Kind: OpPut, Key: k, Val: int64(rng.Intn(100))}
				}
			}
			plans[w] = append(plans[w], step{ops: ops, ckpt: rng.Intn(5) == 0})
		}
	}

	type asyncSub struct {
		fut *Future
		ops []kvop
	}
	var mu sync.Mutex
	var pending []asyncSub
	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(steps []step) {
			defer wg.Done()
			for _, s := range steps {
				f, err := d.ApplyAsync(s.ops)
				if err != nil {
					// Block-mode admission on an open store never fails;
					// the WAL error surfaces in the Ack, not here.
					t.Errorf("ApplyAsync: %v", err)
					return
				}
				mu.Lock()
				pending = append(pending, asyncSub{fut: f, ops: s.ops})
				mu.Unlock()
				if s.ckpt {
					if _, err := d.Checkpoint(); err != nil {
						return // the filesystem is gone; this writer stops
					}
				}
			}
		}(plans[w])
	}
	wg.Wait()
	d.Close() // resolves every outstanding future, durably or with its error

	subs := make([]crashBatch, 0, len(pending))
	for _, s := range pending {
		a, ok := s.fut.TryAck()
		if !ok {
			t.Fatalf("future seq %d still unresolved after Close", s.fut.Seq())
		}
		if a.Seq != s.fut.Seq() {
			t.Fatalf("Ack.Seq %d != Future.Seq %d", a.Seq, s.fut.Seq())
		}
		if a.Err == nil && (a.Enqueued.After(a.Flushed) || a.Flushed.After(a.Committed)) {
			t.Fatalf("seq %d: timestamps out of order: enq %v flush %v commit %v",
				a.Seq, a.Enqueued, a.Flushed, a.Committed)
		}
		subs = append(subs, crashBatch{seq: s.fut.Seq(), ops: s.ops, acked: a.Err == nil})
	}

	d2, err := openDurSumOpts(opts, NewMemFSFrom(fs.DurableState()), shards, 0)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	verifyCrashRecovery(t, d2, subs, false)
	d2.Close()
}

// TestAsyncCrashRecoverySchedules runs the fault-injection harness with
// fire-and-forget writers: the recovery contract must hold with "acked"
// meaning "future resolved with nil error" instead of "Apply returned".
func TestAsyncCrashRecoverySchedules(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	for i := 0; i < n; i++ {
		seed := int64(i) + 40001
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runAsyncCrashSchedule(t, seed)
		})
	}
}

// pointCrashBatch records one submitted point batch.
type pointCrashBatch struct {
	seq   uint64
	ops   []PointOp
	acked bool
}

func runPointCrashSchedule(t *testing.T, seed int64) {
	old := dynamic.SetFlushCap(4) // tiny buffer: checkpoints hit multi-level ladders
	defer dynamic.SetFlushCap(old)

	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	if rng.Intn(5) > 0 {
		fs.SetKillPoint(int64(rng.Intn(120)), rand.New(rand.NewSource(seed^0x9e3779b9)))
	}
	shards := 1 + rng.Intn(2)
	splits := []float64{8, 16}[:shards-1]
	writers := 1 + rng.Intn(2)
	every := rng.Intn(4) * 3 // 0 disables automatic checkpoints
	var tuning Tuning
	if rng.Intn(2) == 0 {
		// Background carries put the automatic checkpoints (taken on the
		// resolver) next to in-flight carry merges when the kill lands.
		tuning = crashTuning(rng)
		tuning.CarryWorkers = 1
	}

	open := func(f FS) (*DurablePointStore, error) {
		return OpenDurablePointStore(pam.Options{}, splits, DurableConfig{FS: f})
	}
	d, err := OpenDurablePointStore(pam.Options{}, splits, DurableConfig{FS: fs, CheckpointEvery: every, Tuning: tuning})
	if err != nil {
		t.Fatalf("initial open: %v", err)
	}

	type step struct {
		ops  []PointOp
		ckpt bool
	}
	plans := make([][]step, writers)
	for w := range plans {
		for b := 2 + rng.Intn(6); b > 0; b-- {
			ops := make([]PointOp, 1+rng.Intn(4))
			for i := range ops {
				p := rangetree.Point{X: float64(rng.Intn(24)), Y: float64(rng.Intn(24))}
				if rng.Intn(4) == 0 {
					ops[i] = PointOp{Kind: OpDelete, P: p}
				} else {
					ops[i] = PointOp{Kind: OpPut, P: p, W: int64(1 + rng.Intn(3))}
				}
			}
			plans[w] = append(plans[w], step{ops: ops, ckpt: rng.Intn(3) == 0})
		}
	}

	var mu sync.Mutex
	var subs []pointCrashBatch
	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(steps []step) {
			defer wg.Done()
			for _, s := range steps {
				seq, err := d.Apply(s.ops)
				mu.Lock()
				subs = append(subs, pointCrashBatch{seq: seq, ops: s.ops, acked: err == nil})
				mu.Unlock()
				if err != nil {
					return
				}
				if s.ckpt {
					if _, err := d.Checkpoint(); err != nil {
						return
					}
				}
			}
		}(plans[w])
	}
	wg.Wait()
	d.Close()

	d2, err := open(NewMemFSFrom(fs.DurableState()))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer d2.Close()
	v, _ := d2.Snapshot()
	r := v.Seq()

	sort.Slice(subs, func(i, j int) bool { return subs[i].seq < subs[j].seq })
	for i, b := range subs {
		if b.seq != uint64(i) {
			t.Fatalf("submitted sequence numbers not dense at position %d: %d", i, b.seq)
		}
	}
	if r > uint64(len(subs)) {
		t.Fatalf("recovered prefix [0,%d) extends past %d submitted batches", r, len(subs))
	}
	for _, b := range subs {
		if b.acked && b.seq >= r {
			t.Fatalf("acknowledged point batch seq=%d lost: prefix ends at %d", b.seq, r)
		}
	}
	oracle := map[rangetree.Point]int64{}
	for _, b := range subs[:r] {
		for _, op := range b.ops {
			if op.Kind == OpDelete {
				delete(oracle, op.P)
			} else {
				oracle[op.P] += op.W
			}
		}
	}
	if got, want := v.Size(), int64(len(oracle)); got != want {
		t.Fatalf("recovered Size = %d, oracle prefix [0,%d) has %d points", got, r, want)
	}
	var sum int64
	for _, w := range oracle {
		sum += w
	}
	if got := v.QuerySum(everything); got != sum {
		t.Fatalf("recovered QuerySum = %d, oracle %d", got, sum)
	}
	for _, p := range v.ReportAll(everything) {
		if w, ok := oracle[p.Point]; !ok || w != p.W {
			t.Fatalf("recovered point (%v, %d); oracle %d,%v", p.Point, p.W, w, ok)
		}
	}
}

// TestPointCrashRecoverySchedules runs the fault-injection harness
// against the durable point store (full-ladder checkpoints + WAL).
func TestPointCrashRecoverySchedules(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		seed := int64(i) + 7001
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPointCrashSchedule(t, seed)
		})
	}
}
