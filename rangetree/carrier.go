package rangetree

import "repro/internal/dynamic"

// Background carries (see internal/dynamic): a Carrier lets the
// goroutine that owns a Tree defer ladder level merges to a shared
// worker pool. Writes go through InsertWith/DeleteWith; a full write
// buffer spills to a pending overflow run instead of cascading
// synchronously, and every query keeps answering exactly from
// {buffer + overflow runs + levels} while the carry runs in the
// background. serve.PointStore wires one Carrier per shard when
// Tuning.CarryWorkers > 0.

// Carrier schedules background ladder carries for trees owned by one
// goroutine. Construct with NewCarrier; see dynamic.Carrier for the
// threading contract.
type Carrier struct {
	c *dynamic.Carrier[Point, int64, outer, bufEntry]
}

// NewCarrier returns a carrier feeding the given pool; maxPending is
// the pending-overflow-run count at which writes block on the
// in-flight carry.
func NewCarrier(pool *dynamic.CarryPool, maxPending int) *Carrier {
	return &Carrier{c: dynamic.NewCarrier[Point, int64, outer, bufEntry](backend, pool, maxPending)}
}

// Invalidate discards any in-flight or undelivered carry result; call
// it when the trees the carrier serves are replaced wholesale (e.g. a
// shard rebalance rebuilds them).
func (c *Carrier) Invalidate() { c.c.Invalidate() }

// Carries reports the number of background carries installed so far.
func (c *Carrier) Carries() uint64 { return c.c.Carries() }

// InsertWith is Insert with the carry deferred to the carrier's worker
// pool: the update itself is O(log n) plus at most one O(cap) overflow
// spill, never a synchronous level cascade.
func (t Tree) InsertWith(c *Carrier, p Point, w int64) Tree {
	return Tree{lad: c.c.Insert(t.lad, p, w, addWeights)}
}

// DeleteWith is Delete with the carry deferred; see InsertWith.
func (t Tree) DeleteWith(c *Carrier, p Point) Tree {
	return Tree{lad: c.c.Delete(t.lad, p)}
}
