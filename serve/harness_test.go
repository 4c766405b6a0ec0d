package serve

// The linearizability-style differential harness: randomized concurrent
// schedules (internal/workload.Schedule) run against a sharded store,
// with every acknowledged batch replayed — in the global order the
// store's sequencer assigned — against a single sequential pam map, and
// every snapshot asserted to equal the sequential state at exactly its
// sequence position. Run under -race by `make race` and the CI
// serve-stress job.
//
// What the harness proves, per schedule:
//   - sequence numbers are unique and contiguous (one total write order);
//   - the final view equals the full sequential replay (so the assigned
//     order is the real one: a wrong order shows up as a wrong value on
//     any key written twice);
//   - every snapshot equals the sequential prefix state at its Seq —
//     atomic, gapless cuts (prefix consistency);
//   - snapshots taken by a writer right after an acknowledged batch have
//     Seq above the batch's (the real-time visibility bound);
//   - version vectors and Seq are monotonic across a snapshotter's
//     successive snapshots;
//   - merged cross-shard iteration yields strictly increasing keys and
//     agrees with the oracle's entries, full and range-bounded.

import (
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/workload"
	"repro/pam"
	"repro/rangetree"
)

// maxRecordedSnaps bounds the snapshots a background snapshotter
// records for oracle verification (it keeps snapshotting past the cap,
// still checking monotonicity).
const maxRecordedSnaps = 48

type ackedBatch struct {
	seq uint64
	ops []workload.KVOp
}

func toOps(b []workload.KVOp) []kvop {
	out := make([]kvop, len(b))
	for i, op := range b {
		if op.Del {
			out[i] = kvop{Kind: OpDelete, Key: op.Key}
		} else {
			out[i] = kvop{Kind: OpPut, Key: op.Key, Val: op.Val}
		}
	}
	return out
}

// mapSchedOpts gives odd-seeded schedules compressed leaf blocks, so
// the concurrency harness (and FuzzServe, which routes through it)
// exercises both layouts. The oracle map stays flat — it is compared
// only through Find/Entries, never merged with store maps.
func mapSchedOpts(seed uint64) pam.Options {
	if seed%2 == 1 {
		return pam.Options{Compress: pam.CompressUint64()}
	}
	return pam.Options{}
}

// runMapSchedule runs one randomized concurrent schedule against a
// sharded store (range- or hash-partitioned) and differentially
// verifies every snapshot. rebalance additionally keeps a concurrent
// rebalancer running (range stores only).
func runMapSchedule(t *testing.T, seed uint64, cfg workload.ScheduleCfg, shards int, ranged, rebalance bool) {
	t.Helper()
	opts := mapSchedOpts(seed)
	var s *sumStore
	if ranged {
		splits := make([]uint64, shards-1)
		for i := range splits {
			splits[i] = uint64(i+1) * cfg.KeySpace / uint64(shards)
		}
		s = NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts, splits)
	} else {
		var err error
		s, err = NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts, shards, mixHash)
		if err != nil {
			t.Fatalf("NewHashStore: %v", err)
		}
	}
	defer s.Close()

	sched := workload.Schedule(seed, cfg)
	var mu sync.Mutex
	var acked []ackedBatch
	var snaps []sumView

	var wg sync.WaitGroup
	for w := range sched {
		wg.Add(1)
		go func(batches []workload.KVBatch) {
			defer wg.Done()
			for _, b := range batches {
				seqn, err := s.Apply(toOps(b.Ops))
				if err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				mu.Lock()
				acked = append(acked, ackedBatch{seq: seqn, ops: b.Ops})
				mu.Unlock()
				if b.Snap {
					v, _ := s.Snapshot()
					if v.Seq() <= seqn {
						t.Errorf("real-time violation: batch acked at seq %d invisible to later snapshot at seq %d", seqn, v.Seq())
					}
					mu.Lock()
					snaps = append(snaps, v)
					mu.Unlock()
				}
			}
		}(sched[w])
	}

	// A concurrent snapshotter: records early views for the oracle check
	// and asserts Seq/version monotonicity throughout.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		var prev sumView
		have := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _ := s.Snapshot()
			if have {
				if v.Seq() < prev.Seq() {
					t.Errorf("snapshot Seq went backwards: %d then %d", prev.Seq(), v.Seq())
				}
				for i, ver := range v.Versions() {
					if ver < prev.Versions()[i] {
						t.Errorf("shard %d version went backwards: %d then %d", i, prev.Versions()[i], ver)
					}
				}
			}
			prev, have = v, true
			mu.Lock()
			if len(snaps) < maxRecordedSnaps {
				snaps = append(snaps, v)
			}
			mu.Unlock()
			runtime.Gosched()
		}
	}()
	if rebalance && ranged {
		aux.Add(1)
		go func() {
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
	}
	aux.Add(1)
	go func() { // replica reader: lock-free views, monotone and coherent
		defer aux.Done()
		replicaReadLoop(t, s.ReaderView, stop)
	}()

	wg.Wait()
	close(stop)
	aux.Wait()
	vfinal, _ := s.Snapshot()
	snaps = append(snaps, vfinal)
	verifyMapSnapshots(t, acked, snaps, cfg.KeySpace)
}

// replicaReadLoop hammers ReaderView until stop, asserting the replica
// staleness contract that holds under any schedule (rebalances
// included): per-shard epochs and versions only move forward across
// successive views, and each view is internally coherent — its merged
// iteration is strictly increasing and sums to its own AugVal (every
// structure in the view is an immutable published state, so a torn read
// would surface here).
func replicaReadLoop(t *testing.T, view func() (sumView, error), stop chan struct{}) {
	var prevE, prevV []uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		v, err := view()
		if err != nil {
			t.Errorf("ReaderView: %v", err)
			return
		}
		e, ver := v.Epochs(), v.Versions()
		if prevE != nil && len(e) == len(prevE) {
			for i := range e {
				if e[i] < prevE[i] {
					t.Errorf("replica epoch went backwards on shard %d: %d then %d", i, prevE[i], e[i])
				}
				if ver[i] < prevV[i] {
					t.Errorf("replica version went backwards on shard %d: %d then %d", i, prevV[i], ver[i])
				}
			}
		}
		prevE, prevV = e, ver
		if v.Seq() != 0 {
			t.Errorf("replica view reports Seq %d, want 0", v.Seq())
		}
		var n, sum int64
		var prev uint64
		first := true
		v.ForEach(func(k uint64, val int64) bool {
			if !first && k <= prev {
				t.Errorf("replica iteration not strictly increasing")
				return false
			}
			prev, first = k, false
			n++
			sum += val
			return true
		})
		if n != v.Size() {
			t.Errorf("replica iterated %d entries, Size says %d", n, v.Size())
		}
		if sum != v.AugVal() {
			t.Errorf("replica iterated sum %d, AugVal says %d", sum, v.AugVal())
		}
		runtime.Gosched()
	}
}

// verifyMapSnapshots replays the acknowledged batches in sequence order
// against a sequential pam oracle and checks every snapshot against the
// prefix state at its Seq.
func verifyMapSnapshots(t *testing.T, acked []ackedBatch, snaps []sumView, keySpace uint64) {
	t.Helper()
	sort.Slice(acked, func(i, j int) bool { return acked[i].seq < acked[j].seq })
	for i, b := range acked {
		if b.seq != uint64(i) {
			t.Fatalf("sequence numbers not contiguous: batch %d has seq %d", i, b.seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Seq() < snaps[j].Seq() })
	if last := snaps[len(snaps)-1]; last.Seq() != uint64(len(acked)) {
		t.Fatalf("final snapshot Seq = %d, want %d (all batches)", last.Seq(), len(acked))
	}

	oracle := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](pam.Options{})
	ai := 0
	for _, v := range snaps {
		for uint64(ai) < v.Seq() {
			for _, op := range acked[ai].ops {
				if op.Del {
					oracle = oracle.Delete(op.Key)
				} else {
					oracle = oracle.Insert(op.Key, op.Val)
				}
			}
			ai++
		}
		compareViewOracle(t, v, oracle, keySpace)
		if t.Failed() {
			t.Fatalf("snapshot at seq %d diverged from the sequential prefix", v.Seq())
		}
	}
}

// compareViewOracle checks a snapshot against the sequential state it
// must equal: size, entries, augmented values, range sums, point
// lookups, and merged ordered iteration.
func compareViewOracle(t *testing.T, v sumView, oracle pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]], keySpace uint64) {
	t.Helper()
	if got, want := v.Size(), oracle.Size(); got != want {
		t.Errorf("Size = %d, oracle %d", got, want)
		return
	}
	want := oracle.Entries()
	if got := v.Entries(); !slices.Equal(got, want) {
		t.Errorf("Entries diverged: view %v, oracle %v", got, want)
		return
	}
	if got, wantA := v.AugVal(), oracle.AugVal(); got != wantA {
		t.Errorf("AugVal = %d, oracle %d", got, wantA)
	}
	// Range sums and lookups at fixed fractions of the key space.
	for _, frac := range [][2]uint64{{0, 4}, {1, 3}, {2, 4}, {0, 1}} {
		lo := frac[0] * keySpace / 4
		hi := frac[1] * keySpace / 4
		if got, wantA := v.AugRange(lo, hi), oracle.AugRange(lo, hi); got != wantA {
			t.Errorf("AugRange(%d,%d) = %d, oracle %d", lo, hi, got, wantA)
		}
		gv, gok := v.Find(lo)
		wv, wok := oracle.Find(lo)
		if gv != wv || gok != wok {
			t.Errorf("Find(%d) = %d,%v, oracle %d,%v", lo, gv, gok, wv, wok)
		}
	}
	// Merged iteration: strictly increasing and equal to Entries.
	var prev uint64
	first := true
	i := 0
	v.ForEach(func(k uint64, val int64) bool {
		if !first && k <= prev {
			t.Errorf("merged iteration not strictly increasing: %d after %d", k, prev)
			return false
		}
		if i >= len(want) || want[i].Key != k || want[i].Val != val {
			t.Errorf("merged iteration diverged at index %d: (%d,%d)", i, k, val)
			return false
		}
		prev, first = k, false
		i++
		return true
	})
	if !t.Failed() && i != len(want) {
		t.Errorf("merged iteration visited %d entries, oracle %d", i, len(want))
	}
	// Bounded iteration against the oracle's Range.
	lo, hi := keySpace/4, 3*keySpace/4
	wantR := oracle.Range(lo, hi).Entries()
	var gotR []pam.KV[uint64, int64]
	v.ForEachRange(lo, hi, func(k uint64, val int64) bool {
		gotR = append(gotR, pam.KV[uint64, int64]{Key: k, Val: val})
		return true
	})
	if !slices.Equal(gotR, wantR) {
		t.Errorf("ForEachRange(%d,%d) = %v, oracle %v", lo, hi, gotR, wantR)
	}
}

// TestServeDifferentialSchedules is the headline check: 1000+
// randomized concurrent schedules, alternating hash and range
// partitioning across varied shard/writer/batch shapes, each
// differentially verified against the sequential oracle. Run under
// -race by `make race` and CI.
func TestServeDifferentialSchedules(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 120
	}
	for i := 0; i < schedules; i++ {
		cfg := workload.ScheduleCfg{
			Writers:   1 + i%3,
			Batches:   3 + i%5,
			BatchLen:  1 + i%8,
			KeySpace:  32 << (i % 3),
			DelEvery:  3,
			SnapEvery: 2,
		}
		shards := 1 + i%5
		runMapSchedule(t, uint64(i+1), cfg, shards, i%2 == 0, false)
		if t.Failed() {
			t.Fatalf("schedule %d (seed %d, %+v, shards %d) failed", i, i+1, cfg, shards)
		}
	}
}

// TestServeDifferentialDeep runs fewer, much larger schedules with a
// concurrent rebalancer in flight.
func TestServeDifferentialDeep(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := workload.ScheduleCfg{
			Writers:   4,
			Batches:   30,
			BatchLen:  16,
			KeySpace:  256,
			DelEvery:  3,
			SnapEvery: 3,
		}
		runMapSchedule(t, seed, cfg, 4, true, true)
		if t.Failed() {
			t.Fatalf("deep schedule seed %d failed", seed)
		}
	}
}

// ---- the async pipeline, differentially ----------------------------

// runAsyncMapSchedule is the async-aware variant of runMapSchedule:
// writers submit every batch fire-and-forget via ApplyAsync (retrying
// on ErrOverloaded under fast-fail backpressure), record the assigned
// seqno at enqueue, and only after the whole schedule has been
// submitted are the futures collected — out of order (newest first per
// writer) — and their acks verified. On top of runMapSchedule's
// oracle checks it proves:
//
//   - every future resolves with a nil error and its enqueue-time seq;
//   - ack timestamps are ordered: Enqueued <= Flushed <= Committed;
//   - futures resolve in sequence order: whenever a future has
//     resolved, so has every future with a smaller seq (checked per
//     writer via TryAck, and globally via Committed monotone in seq);
//   - a snapshot taken between enqueue and resolve already covers the
//     enqueued batch's sequence position (v.Seq() > f.Seq()), and the
//     oracle replay proves it shows the batch's prefix exactly;
//   - fast-fail rejections consume no sequence number (the dense-seq
//     check in verifyMapSnapshots would catch a burned seqno).
func runAsyncMapSchedule(t *testing.T, seed uint64, cfg workload.ScheduleCfg, shards int, ranged, rebalance bool, tun Tuning) {
	t.Helper()
	opts := mapSchedOpts(seed)
	var s *sumStore
	if ranged {
		splits := make([]uint64, shards-1)
		for i := range splits {
			splits[i] = uint64(i+1) * cfg.KeySpace / uint64(shards)
		}
		s = NewRangeStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts, splits, tun)
	} else {
		var err error
		s, err = NewHashStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts, shards, mixHash, tun)
		if err != nil {
			t.Fatalf("NewHashStore: %v", err)
		}
	}
	defer s.Close()

	sched := workload.Schedule(seed, cfg)
	var mu sync.Mutex
	var acked []ackedBatch
	var snaps []sumView
	futsByWriter := make([][]*Future, len(sched))

	var wg sync.WaitGroup
	for w := range sched {
		wg.Add(1)
		go func(w int, batches []workload.KVBatch) {
			defer wg.Done()
			for _, b := range batches {
				var f *Future
				for {
					var err error
					f, err = s.ApplyAsync(toOps(b.Ops))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("ApplyAsync: %v", err)
						return
					}
					runtime.Gosched() // fast-fail backpressure: retry
				}
				futsByWriter[w] = append(futsByWriter[w], f)
				mu.Lock()
				acked = append(acked, ackedBatch{seq: f.Seq(), ops: b.Ops})
				mu.Unlock()
				if b.Snap {
					// Between enqueue and resolve: the batch is already
					// sequenced, so the snapshot must sit above it (and
					// the oracle replay proves it contains the batch).
					v, _ := s.Snapshot()
					if v.Seq() <= f.Seq() {
						t.Errorf("snapshot at seq %d below enqueued batch seq %d", v.Seq(), f.Seq())
					}
					mu.Lock()
					if len(snaps) < maxRecordedSnaps {
						snaps = append(snaps, v)
					}
					mu.Unlock()
				}
			}
		}(w, sched[w])
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // concurrent snapshotter, as in runMapSchedule
		defer aux.Done()
		var prev sumView
		have := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _ := s.Snapshot()
			if have && v.Seq() < prev.Seq() {
				t.Errorf("snapshot Seq went backwards: %d then %d", prev.Seq(), v.Seq())
			}
			prev, have = v, true
			mu.Lock()
			if len(snaps) < maxRecordedSnaps {
				snaps = append(snaps, v)
			}
			mu.Unlock()
			runtime.Gosched()
		}
	}()
	if rebalance && ranged {
		aux.Add(1)
		go func() {
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
	}

	wg.Wait()
	close(stop)
	aux.Wait()

	// Collect out of order: newest first within each writer. When a
	// future has resolved, every earlier (smaller-seq) future of the
	// same writer must have resolved too — resolution follows the
	// sequencer, not completion luck.
	var acks []Ack
	for w, futs := range futsByWriter {
		for i := len(futs) - 1; i >= 0; i-- {
			a := futs[i].Wait()
			if a.Err != nil {
				t.Fatalf("writer %d future seq %d resolved with error: %v", w, futs[i].Seq(), a.Err)
			}
			if a.Seq != futs[i].Seq() {
				t.Fatalf("ack seq %d != enqueue seq %d", a.Seq, futs[i].Seq())
			}
			if a.Flushed.Before(a.Enqueued) || a.Committed.Before(a.Flushed) {
				t.Fatalf("ack timestamps out of order: enq %v flush %v commit %v", a.Enqueued, a.Flushed, a.Committed)
			}
			for j := 0; j < i; j++ {
				if _, ok := futs[j].TryAck(); !ok {
					t.Fatalf("future seq %d resolved before earlier future seq %d of the same writer", futs[i].Seq(), futs[j].Seq())
				}
			}
			acks = append(acks, a)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Seq < acks[j].Seq })
	for i := 1; i < len(acks); i++ {
		if acks[i].Committed.Before(acks[i-1].Committed) {
			t.Errorf("commit timestamps violate sequence order: seq %d at %v before seq %d at %v",
				acks[i].Seq, acks[i].Committed, acks[i-1].Seq, acks[i-1].Committed)
		}
	}

	vfinal, _ := s.Snapshot()
	snaps = append(snaps, vfinal)
	verifyMapSnapshots(t, acked, snaps, cfg.KeySpace)
}

// asyncHarnessTuning varies the pipeline knobs across schedules: the
// default pipeline, tiny mailbox/op budgets (full-mailbox admission
// paths), small flush caps (drains split across flushes), and every
// seventh schedule fast-fail backpressure (writers retry).
func asyncHarnessTuning(i int) Tuning {
	var tun Tuning
	switch i % 4 {
	case 0: // defaults: deep mailboxes, 4096-op flush cap
	case 1:
		tun.MailboxDepth = 1 + i%3
		tun.ShardOpBudget = 4 + i%13
	case 2:
		tun.FlushOps = 2 + i%11
	case 3:
		tun.MailboxDepth = 2
		tun.ShardOpBudget = 8
	}
	if i%7 == 3 {
		tun.Backpressure = BackpressureFastFail
	}
	return tun
}

// TestServeAsyncDifferentialSchedules is the async half of the headline
// check: 1000+ randomized schedules of fire-and-forget writers across
// varied partitioning, mailbox bounds, backpressure policies, and
// flush caps, each differentially verified against the
// sequential oracle. Run under -race by `make race` and CI.
func TestServeAsyncDifferentialSchedules(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 120
	}
	for i := 0; i < schedules; i++ {
		cfg := workload.ScheduleCfg{
			Writers:   1 + i%3,
			Batches:   3 + i%5,
			BatchLen:  1 + i%8,
			KeySpace:  32 << (i % 3),
			DelEvery:  3,
			SnapEvery: 2,
		}
		shards := 1 + i%5
		tun := asyncHarnessTuning(i)
		runAsyncMapSchedule(t, uint64(i+1), cfg, shards, i%2 == 0, false, tun)
		if t.Failed() {
			t.Fatalf("async schedule %d (seed %d, %+v, shards %d, tuning %+v) failed", i, i+1, cfg, shards, tun)
		}
	}
}

// TestServeAsyncDeep runs fewer, larger async schedules with a
// concurrent rebalancer in flight and tight budgets, so blocked
// admission, coalesced drains, markers, and route changes interleave.
func TestServeAsyncDeep(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := workload.ScheduleCfg{
			Writers:   4,
			Batches:   30,
			BatchLen:  16,
			KeySpace:  256,
			DelEvery:  3,
			SnapEvery: 3,
		}
		tun := Tuning{MailboxDepth: 2, ShardOpBudget: 48, FlushOps: 24}
		runAsyncMapSchedule(t, seed, cfg, 4, true, true, tun)
		if t.Failed() {
			t.Fatalf("deep async schedule seed %d failed", seed)
		}
	}
}

// ---- the spatial store, differentially -----------------------------

// gridPoint quantizes an op's unit-square coordinates onto a small
// integer grid, so concurrent writers collide on points and deletes hit
// live entries.
func gridPoint(a, b float64) rangetree.Point {
	const grid = 16
	return rangetree.Point{X: float64(int(a * grid)), Y: float64(int(b * grid))}
}

type pointAck struct {
	seq uint64
	del bool
	p   rangetree.Point
	w   int64
}

// runPointSchedule runs concurrent writers + snapshotters + a
// rebalancer against a sharded PointStore with the given ladder write
// buffer capacity (small capacities pack carry cascades between
// snapshots), then differentially verifies every snapshot.
// carryWorkers > 0 moves the carry cascades onto a background pool
// (MaxPendingCarries 2, so the backpressure path runs too) while the
// same oracle checks apply — deferred carries must be invisible to
// queries.
func runPointSchedule(t *testing.T, seed uint64, writers, n, shards, flushCap, carryWorkers int) {
	t.Helper()
	old := dynamic.SetFlushCap(flushCap)
	defer dynamic.SetFlushCap(old)

	splits := make([]float64, shards-1)
	for i := range splits {
		splits[i] = float64(i+1) * 16 / float64(shards)
	}
	s := NewPointStore(pam.Options{}, splits,
		Tuning{CarryWorkers: carryWorkers, MaxPendingCarries: 2})
	defer s.Close()

	mix := workload.Mix{Insert: 8, Delete: 4, Snapshot: 3}
	streams := workload.WriterOps(seed, writers, n, mix)

	var mu sync.Mutex
	var acked []pointAck
	var snaps []PointView

	var wg sync.WaitGroup
	for _, ops := range streams {
		wg.Add(1)
		go func(ops []workload.Op) {
			defer wg.Done()
			lastSeq := uint64(0)
			wrote := false
			for _, op := range ops {
				p := gridPoint(op.A, op.B)
				switch op.Kind {
				case workload.OpInsert:
					seqn, err := s.Insert(p, op.W)
					if err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					mu.Lock()
					acked = append(acked, pointAck{seq: seqn, p: p, w: op.W})
					mu.Unlock()
					lastSeq, wrote = seqn, true
				case workload.OpDelete:
					seqn, err := s.Delete(p)
					if err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
					mu.Lock()
					acked = append(acked, pointAck{seq: seqn, del: true, p: p})
					mu.Unlock()
					lastSeq, wrote = seqn, true
				case workload.OpSnapshot:
					v, _ := s.Snapshot()
					if wrote && v.Seq() <= lastSeq {
						t.Errorf("real-time violation: write at seq %d invisible to later snapshot at seq %d", lastSeq, v.Seq())
					}
					mu.Lock()
					if len(snaps) < maxRecordedSnaps {
						snaps = append(snaps, v)
					}
					mu.Unlock()
				}
			}
		}(ops)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // rebalancer in flight
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
	go func() { // replica reader racing the background carries
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
						t.Errorf("replica epoch went backwards on shard %d: %d then %d", i, prevE[i], e[i])
					}
				}
			}
			prevE = e
			// Internal coherence of the published trees: the signed-sum
			// count over everything must equal the summed sizes, exactly,
			// even while overflow runs await their background carry.
			if got, want := v.QueryCount(everything), v.Size(); got != want {
				t.Errorf("replica QueryCount(everything) = %d, Size = %d", got, want)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	vfinal, _ := s.Snapshot()
	snaps = append(snaps, vfinal)
	verifyPointSnapshots(t, acked, snaps)
}

// verifyPointSnapshots replays the acknowledged point ops in sequence
// order against a brute-force oracle and checks each snapshot's size,
// rectangle sums/counts, full report, and point lookups.
func verifyPointSnapshots(t *testing.T, acked []pointAck, snaps []PointView) {
	t.Helper()
	sort.Slice(acked, func(i, j int) bool { return acked[i].seq < acked[j].seq })
	for i, a := range acked {
		if a.seq != uint64(i) {
			t.Fatalf("sequence numbers not contiguous: op %d has seq %d", i, a.seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Seq() < snaps[j].Seq() })
	oracle := map[rangetree.Point]int64{}
	ai := 0
	rects := []rangetree.Rect{
		{XLo: 0, XHi: 16, YLo: 0, YHi: 16},
		{XLo: 3, XHi: 9, YLo: 2, YHi: 14},
		{XLo: 7.5, XHi: 12, YLo: 0, YHi: 7.5},
	}
	for _, v := range snaps {
		for uint64(ai) < v.Seq() {
			a := acked[ai]
			if a.del {
				delete(oracle, a.p)
			} else {
				oracle[a.p] += a.w
			}
			ai++
		}
		if got, want := v.Size(), int64(len(oracle)); got != want {
			t.Fatalf("snapshot seq %d: Size = %d, oracle %d", v.Seq(), got, want)
		}
		for _, r := range rects {
			var wantSum, wantCnt int64
			for p, w := range oracle {
				if p.X >= r.XLo && p.X <= r.XHi && p.Y >= r.YLo && p.Y <= r.YHi {
					wantSum += w
					wantCnt++
				}
			}
			if got := v.QuerySum(r); got != wantSum {
				t.Fatalf("snapshot seq %d: QuerySum(%v) = %d, oracle %d", v.Seq(), r, got, wantSum)
			}
			if got := v.QueryCount(r); got != wantCnt {
				t.Fatalf("snapshot seq %d: QueryCount(%v) = %d, oracle %d", v.Seq(), r, got, wantCnt)
			}
		}
		rep := v.ReportAll(everything)
		if len(rep) != len(oracle) {
			t.Fatalf("snapshot seq %d: ReportAll returned %d points, oracle %d", v.Seq(), len(rep), len(oracle))
		}
		for i, p := range rep {
			if i > 0 {
				prev := rep[i-1]
				if p.X < prev.X || (p.X == prev.X && p.Y <= prev.Y) {
					t.Fatalf("snapshot seq %d: ReportAll not sorted at %d", v.Seq(), i)
				}
			}
			if w, ok := oracle[p.Point]; !ok || w != p.W {
				t.Fatalf("snapshot seq %d: reported (%v, %d), oracle %d,%v", v.Seq(), p.Point, p.W, w, ok)
			}
			if w, ok := v.Weight(p.Point); !ok || w != p.W {
				t.Fatalf("snapshot seq %d: Weight(%v) = %d,%v, report says %d", v.Seq(), p.Point, w, ok, p.W)
			}
		}
	}
}

// TestServePointsDifferential exercises the ladder-backed spatial store
// under concurrency, with small flush capacities so snapshot
// acquisition interleaves with carry cascades.
func TestServePointsDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed               uint64
		writers, n, shards int
		flushCap           int
		carryWorkers       int
	}{
		{seed: 1, writers: 3, n: 120, shards: 3, flushCap: 4},
		{seed: 2, writers: 2, n: 200, shards: 2, flushCap: 16},
		{seed: 3, writers: 4, n: 80, shards: 4, flushCap: 2},
		{seed: 4, writers: 3, n: 160, shards: 3, flushCap: 3, carryWorkers: 2},
		{seed: 5, writers: 4, n: 120, shards: 2, flushCap: 2, carryWorkers: 1},
	} {
		runPointSchedule(t, tc.seed, tc.writers, tc.n, tc.shards, tc.flushCap, tc.carryWorkers)
		if t.Failed() {
			t.Fatalf("point schedule %+v failed", tc)
		}
	}
}
