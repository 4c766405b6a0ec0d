package serve

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/dynamic"
	"repro/pam"
	"repro/rangetree"
)

// PointOp is one write of a PointStore batch.
type PointOp struct {
	Kind OpKind
	P    rangetree.Point
	W    int64 // ignored by OpDelete
}

// InsertPoint returns an OpPut point op (weights of an already-present
// point add, matching rangetree.Tree.Insert).
func InsertPoint(p rangetree.Point, w int64) PointOp { return PointOp{Kind: OpPut, P: p, W: w} }

// DeletePoint returns an OpDelete point op.
func DeletePoint(p rangetree.Point) PointOp { return PointOp{Kind: OpDelete, P: p} }

// PointStore shards a dynamic 2D range tree (rangetree.Tree, backed by
// the internal/dynamic ladder) across goroutine-owned x-range
// partitions, so spatial queries are servable under the same
// snapshot-consistency guarantee as Store: each shard's ladder carries
// its own write buffer and geometric levels, and a snapshot freezes all
// of them at one sequencer point. All methods are safe for concurrent
// use.
type PointStore struct {
	eng   *engine[PointOp, rangetree.Tree]
	proto rangetree.Tree // empty tree with the configured options, for rebuilds

	// pool/carriers implement background ladder carries
	// (Tuning.CarryWorkers > 0): one carrier per shard schedules that
	// shard's deferred level merges onto the shared worker pool.
	pool     *dynamic.CarryPool
	carriers []*rangetree.Carrier
	// splits is the active x-partition vector, swapped by Rebalance
	// (observable via Splits without taking the sequencer).
	splits atomic.Pointer[[]float64]
}

// pointStore is PointStore under an unexported name: DurablePointStore
// embeds it, promoting the store's methods without exporting a field
// that reaches the inner store (whose Close would skip the WAL flush and
// whose Rebalance would change the on-disk routing).
type pointStore = PointStore

// NewPointStore returns a point store partitioned at the given strictly
// increasing x splits (len(splits)+1 shards): a point belongs to the
// shard of its x coordinate, points with x at or above a split go
// right. Point stores support Rebalance. An optional Tuning configures
// the async pipeline; Tuning.CarryWorkers > 0 moves ladder carry
// cascades off the shard goroutines onto a background pool.
func NewPointStore(opts pam.Options, splits []float64, tuning ...Tuning) *PointStore {
	states := make([]rangetree.Tree, len(splits)+1)
	for i := range states {
		states[i] = rangetree.New(opts)
	}
	return newPointStoreAt(opts, splits, states, 0, hooks[PointOp]{}, pickTuning(tuning))
}

// newPointStoreAt wires a point store around pre-built shard states —
// shared by NewPointStore and the durable recovery path. When
// tun.CarryWorkers > 0 it builds the carry pool and per-shard carriers
// and binds the carrier-aware apply.
func newPointStoreAt(opts pam.Options, splits []float64, states []rangetree.Tree, startSeq uint64, h hooks[PointOp], tun Tuning) *PointStore {
	tun = tun.withDefaults()
	s := &PointStore{proto: rangetree.New(opts)}
	sp := append([]float64(nil), splits...)
	s.splits.Store(&sp)
	apply := func(_ int, t rangetree.Tree, ops []PointOp) rangetree.Tree {
		return applyPointOps(t, ops)
	}
	if tun.CarryWorkers > 0 {
		s.pool = dynamic.NewCarryPool(tun.CarryWorkers)
		s.carriers = make([]*rangetree.Carrier, len(states))
		for i := range s.carriers {
			s.carriers[i] = rangetree.NewCarrier(s.pool, tun.MaxPendingCarries)
		}
		apply = func(i int, t rangetree.Tree, ops []PointOp) rangetree.Tree {
			return applyPointOpsWith(s.carriers[i], t, ops)
		}
	}
	s.eng = newEngineAt(states, pointRouter(splits), apply, startSeq, h, tun)
	return s
}

// pointRouter routes a point to the count of splits at or below its x.
// A NaN x compares false against every split and lands deterministically
// in the last shard — but writes reject NaN coordinates with
// ErrNaNPoint before routing, so only crafted states can carry one.
func pointRouter(splits []float64) func(PointOp) int {
	return func(o PointOp) int {
		lo, hi := 0, len(splits)
		for lo < hi {
			mid := (lo + hi) / 2
			if o.P.X < splits[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
}

// applyPointOps feeds a sub-batch through the shard tree's ladder;
// carry cascades and condenses happen here, inside the shard goroutine
// (the synchronous path, and WAL replay at recovery).
func applyPointOps(t rangetree.Tree, ops []PointOp) rangetree.Tree {
	for _, op := range ops {
		if op.Kind == OpPut {
			t = t.Insert(op.P, op.W)
		} else {
			t = t.Delete(op.P)
		}
	}
	return t
}

// applyPointOpsWith is applyPointOps with the carry cascades deferred
// to the shard's carrier: full write buffers spill to overflow runs
// that background workers merge into the levels, so the shard
// goroutine's per-op cost stays O(log n) + O(cap).
func applyPointOpsWith(c *rangetree.Carrier, t rangetree.Tree, ops []PointOp) rangetree.Tree {
	for _, op := range ops {
		if op.Kind == OpPut {
			t = t.InsertWith(c, op.P, op.W)
		} else {
			t = t.DeleteWith(c, op.P)
		}
	}
	return t
}

// checkPointOps rejects batches containing NaN coordinates (NaN is
// unordered: such a point could never be routed or queried coherently).
func checkPointOps(ops []PointOp) error {
	for _, op := range ops {
		if math.IsNaN(op.P.X) || math.IsNaN(op.P.Y) {
			return ErrNaNPoint
		}
	}
	return nil
}

// Apply submits one write batch, blocks until every involved shard has
// applied it and every earlier batch has resolved, and returns the
// batch's global sequence number. Returns ErrClosed after Close,
// ErrOverloaded under fast-fail backpressure, and ErrNaNPoint for a
// batch containing a NaN coordinate (in every case no sequence number
// was consumed).
func (s *PointStore) Apply(ops []PointOp) (uint64, error) {
	if err := checkPointOps(ops); err != nil {
		return 0, err
	}
	return s.eng.applyBatch(ops)
}

// ApplyAsync submits one write batch fire-and-forget and returns its
// completion future; see Store.ApplyAsync. Batches with NaN
// coordinates are rejected with ErrNaNPoint before sequencing.
func (s *PointStore) ApplyAsync(ops []PointOp) (*Future, error) {
	if err := checkPointOps(ops); err != nil {
		return nil, err
	}
	return s.eng.applyAsync(ops)
}

// Insert adds the weighted point (weights add for an already-present
// point) and returns the write's sequence number.
func (s *PointStore) Insert(p rangetree.Point, w int64) (uint64, error) {
	return s.Apply([]PointOp{InsertPoint(p, w)})
}

// InsertAsync is the fire-and-forget Insert.
func (s *PointStore) InsertAsync(p rangetree.Point, w int64) (*Future, error) {
	return s.ApplyAsync([]PointOp{InsertPoint(p, w)})
}

// Delete removes the point (a no-op when absent) and returns the
// write's sequence number.
func (s *PointStore) Delete(p rangetree.Point) (uint64, error) {
	return s.Apply([]PointOp{DeletePoint(p)})
}

// DeleteAsync is the fire-and-forget Delete.
func (s *PointStore) DeleteAsync(p rangetree.Point) (*Future, error) {
	return s.ApplyAsync([]PointOp{DeletePoint(p)})
}

// Stats samples the per-shard pipeline counters; see Store.Stats.
func (s *PointStore) Stats() []ShardStats { return s.eng.stats() }

// Snapshot assembles a consistent cross-shard view of the point set;
// see Store.Snapshot for the guarantee. Returns ErrClosed after Close.
func (s *PointStore) Snapshot() (PointView, error) {
	states, versions, seq, route, err := s.eng.snapshot()
	if err != nil {
		return PointView{}, err
	}
	return PointView{shards: states, versions: versions, seq: seq, route: route}, nil
}

// ReaderView assembles a read-only replica view from the per-shard
// trees last published at an epoch boundary, without touching the
// sequencer; see Store.ReaderView for the staleness contract
// (per-shard prefix consistency, monotone epochs, no cross-shard
// atomicity, Seq reports 0). Shard trees may carry spilled overflow
// runs whose background carry is still in flight — queries on them are
// exact regardless. Returns ErrClosed after Close.
func (s *PointStore) ReaderView() (PointView, error) {
	p, err := s.eng.readerView()
	if err != nil {
		return PointView{}, err
	}
	return PointView{shards: p.states, versions: p.versions, epochs: p.epochs, route: p.route}, nil
}

// Splits returns the active x-partition vector (a copy). Rebalance
// swaps it atomically with the router.
func (s *PointStore) Splits() []float64 {
	return append([]float64(nil), (*s.splits.Load())...)
}

// NumShards returns the partition count.
func (s *PointStore) NumShards() int { return s.eng.numShards() }

// Close stops the shard goroutines, then the carry workers: in-flight
// background carries finish (shards waiting on one are woken) before
// the pool shuts down. See Store.Close.
func (s *PointStore) Close() {
	s.eng.close()
	if s.pool != nil {
		s.pool.Close()
	}
}

// Rebalance re-splits the x partitions so shard point counts are as
// equal as the distinct x coordinates allow (routing is by x, so
// points sharing an x can never be split across shards), rebuilding
// each shard tree (fully condensed ladders) from the redistributed
// points. Blocks writers and snapshotters for the duration; changes no
// logical content. Returns ErrClosed after Close.
func (s *PointStore) Rebalance() (bool, error) {
	err := s.eng.rebalance(func(states []rangetree.Tree) ([]rangetree.Tree, func(PointOp) int) {
		n := len(states)
		var pts []rangetree.Weighted
		for _, t := range states {
			pts = append(pts, t.Points()...)
		}
		if len(pts) == 0 || n == 1 {
			return states, nil
		}
		// states are ascending x ranges and Points sorts by (x, y), so
		// pts is globally sorted; split j at rank j*len/n, advanced
		// past any x already used so splits stay strictly increasing
		// (a dominant x value would otherwise produce duplicate splits
		// and unroutable empty shards).
		splits := make([]float64, 0, n-1)
		for j := 1; j < n; j++ {
			r := j * len(pts) / n
			if r >= len(pts) {
				r = len(pts) - 1
			}
			x := pts[r].X
			for len(splits) > 0 && x <= splits[len(splits)-1] {
				for r < len(pts) && pts[r].X <= splits[len(splits)-1] {
					r++
				}
				if r == len(pts) {
					break
				}
				x = pts[r].X
			}
			if len(splits) > 0 && x <= splits[len(splits)-1] {
				break // no distinct x left; fewer, strictly increasing splits
			}
			splits = append(splits, x)
		}
		// Pad with strictly increasing splits above every point so the
		// shard count is preserved; the trailing shards stay empty (with
		// fewer distinct xs than shards, some must). Nextafter steps one
		// representable float at a time — pad++ would be a no-op for
		// x >= 2^53 (1 is below the ulp) and for ±Inf, looping forever.
		pad := pts[len(pts)-1].X
		if len(splits) > 0 && splits[len(splits)-1] > pad {
			pad = splits[len(splits)-1]
		}
		for len(splits) < n-1 {
			next := math.Nextafter(pad, math.Inf(1))
			if next == pad {
				break // pinned at +Inf; pad downward instead
			}
			pad = next
			splits = append(splits, pad)
		}
		if len(splits) < n-1 {
			// The top is pinned at +Inf: prepend strictly decreasing
			// splits below every point, so the *leading* shards go empty.
			low := pts[0].X
			if len(splits) > 0 && splits[0] < low {
				low = splits[0]
			}
			var lower []float64
			for len(splits)+len(lower) < n-1 {
				next := math.Nextafter(low, math.Inf(-1))
				if next == low {
					break // the whole float line is exhausted
				}
				low = next
				lower = append(lower, low)
			}
			slices.Reverse(lower)
			splits = append(lower, splits...)
		}
		route := pointRouter(splits)
		buckets := make([][]rangetree.Weighted, n)
		for _, p := range pts {
			i := route(PointOp{P: p.Point})
			buckets[i] = append(buckets[i], p)
		}
		newStates := make([]rangetree.Tree, n)
		for i := range newStates {
			newStates[i] = s.proto.Build(buckets[i])
		}
		// Shards are frozen at markers here: discard in-flight background
		// carries against the old trees and publish the new partition.
		for _, c := range s.carriers {
			c.Invalidate()
		}
		sp := append([]float64(nil), splits...)
		s.splits.Store(&sp)
		return newStates, route
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// PointView is a consistent cross-shard snapshot of a PointStore. The
// shard trees are immutable; every query sums or concatenates disjoint
// per-shard answers.
type PointView struct {
	shards   []rangetree.Tree
	versions []uint64
	epochs   []uint64 // non-nil only for replica views (ReaderView)
	seq      uint64
	route    func(PointOp) int
}

// Seq returns the snapshot's position in the global write sequence: the
// view contains exactly the batches sequenced before it. Replica views
// (ReaderView) are not cut at a sequence point and report 0.
func (v PointView) Seq() uint64 { return v.seq }

// Versions returns the per-shard version vector (applied sub-batch
// counts); treat it as read-only.
func (v PointView) Versions() []uint64 { return v.versions }

// Epochs returns the per-shard replica-publication epochs for views
// from ReaderView (componentwise nondecreasing across successive
// replica views), or nil for marker-based snapshots. Treat it as
// read-only.
func (v PointView) Epochs() []uint64 { return v.epochs }

// NumShards returns the partition count.
func (v PointView) NumShards() int { return len(v.shards) }

// Shard exposes one frozen shard tree.
func (v PointView) Shard(i int) rangetree.Tree { return v.shards[i] }

// Size returns the number of distinct points.
func (v PointView) Size() int64 {
	var n int64
	for _, t := range v.shards {
		n += t.Size()
	}
	return n
}

// Weight returns the weight at p.
func (v PointView) Weight(p rangetree.Point) (int64, bool) {
	return v.shards[v.route(PointOp{P: p})].Weight(p)
}

// Contains reports whether the point is present.
func (v PointView) Contains(p rangetree.Point) bool {
	_, ok := v.Weight(p)
	return ok
}

// QuerySum returns the total weight inside r, summing the disjoint
// per-shard answers.
func (v PointView) QuerySum(r rangetree.Rect) int64 {
	var sum int64
	for _, t := range v.shards {
		sum += t.QuerySum(r)
	}
	return sum
}

// QueryCount returns the number of points inside r.
func (v PointView) QueryCount(r rangetree.Rect) int64 {
	var n int64
	for _, t := range v.shards {
		n += t.QueryCount(r)
	}
	return n
}

// ReportAll returns the points inside r with their weights, sorted by
// (x, y): the shards are ascending disjoint x ranges, so concatenating
// their sorted reports is already globally sorted.
func (v PointView) ReportAll(r rangetree.Rect) []rangetree.Weighted {
	var out []rangetree.Weighted
	for _, t := range v.shards {
		out = append(out, t.ReportAll(r)...)
	}
	return out
}
