package dynamic

import (
	"sync"

	"repro/pam"
)

// Background carries: a Carrier moves a ladder's level merges off the
// updating goroutine. The updating goroutine writes through
// InsertDeferred/DeleteDeferred, so a full write buffer spills to a
// cheap overflow run instead of cascading; the Carrier captures the
// pending runs plus the level vector (both immutable persistent
// values), folds them on a shared CarryPool worker, and hands the
// finished level vector back for the owner to install — a pointer
// swap. Queries stay exact throughout because overflow runs are
// consulted like extra newest levels.

// CarryPool is a fixed pool of workers executing background carry
// jobs, shared by the carriers of one store.
type CarryPool struct {
	jobs chan func()
	wg   sync.WaitGroup
	once sync.Once
}

// NewCarryPool starts a pool of the given number of workers (min 1).
func NewCarryPool(workers int) *CarryPool {
	if workers < 1 {
		workers = 1
	}
	p := &CarryPool{jobs: make(chan func(), workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// submit enqueues one job, blocking while every worker is busy and the
// queue is full. Callers must not hold a carrier's mutex: a worker
// finishing a job needs that mutex to deliver the result.
func (p *CarryPool) submit(f func()) { p.jobs <- f }

// Close waits for in-flight jobs and stops the workers; safe to call
// more than once. No submits may follow.
func (p *CarryPool) Close() {
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// Carrier schedules the background carries of one ladder. All entry
// points except Invalidate must be called from the single goroutine
// that owns the ladder (in serve, the shard goroutine); the mutex only
// coordinates with pool workers delivering results.
//
// At most one carry is in flight per carrier. While the pending
// overflow runs stay under maxPending the owner never waits; at
// maxPending the write blocks until the in-flight carry lands, which
// surfaces upstream as ordinary admission backpressure.
type Carrier[K, V, S any, E pam.Aug[K, V, struct{}]] struct {
	be         *Backend[K, V, S]
	pool       *CarryPool
	maxPending int

	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64 // bumped by Invalidate; stale results are dropped
	inflight bool
	done     bool
	consumed int
	result   []Level[S]
	carries  uint64 // completed carries, for stats/tests
}

// NewCarrier returns a carrier feeding the given pool. maxPending is
// the overflow-run count at which writes block on the in-flight carry
// (min 1).
func NewCarrier[K, V, S any, E pam.Aug[K, V, struct{}]](be *Backend[K, V, S], pool *CarryPool, maxPending int) *Carrier[K, V, S, E] {
	if maxPending < 1 {
		maxPending = 1
	}
	c := &Carrier[K, V, S, E]{be: be, pool: pool, maxPending: maxPending}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Insert writes through the carrier: the update is deferred
// (spill-don't-carry) and pending carries are managed — finished
// results install, new carries schedule, and the write blocks only at
// the maxPending bound.
func (c *Carrier[K, V, S, E]) Insert(l Ladder[K, V, S, E], k K, v V, combine func(old, new V) V) Ladder[K, V, S, E] {
	return c.manage(l.InsertDeferred(c.be, k, v, combine))
}

// Delete is the write-through counterpart of Insert for removals.
func (c *Carrier[K, V, S, E]) Delete(l Ladder[K, V, S, E], k K) Ladder[K, V, S, E] {
	return c.manage(l.DeleteDeferred(c.be, k))
}

// manage installs any finished carry into l, schedules a carry when
// runs are pending and none is in flight, and blocks while the pending
// count is at the limit.
func (c *Carrier[K, V, S, E]) manage(l Ladder[K, V, S, E]) Ladder[K, V, S, E] {
	for {
		c.mu.Lock()
		if c.done {
			l = l.withCarry(c.consumed, c.result)
			c.done, c.inflight, c.result = false, false, nil
			c.carries++
			c.mu.Unlock()
			continue
		}
		over := l.OverflowRuns()
		if over == 0 {
			c.mu.Unlock()
			return l
		}
		if !c.inflight {
			c.inflight = true
			gen := c.gen
			runs, levels := l.captureCarry()
			proto := l.Proto()
			c.mu.Unlock()
			c.pool.submit(func() {
				out := carryInto(c.be, proto, runs, levels)
				c.mu.Lock()
				if gen == c.gen {
					c.result, c.consumed, c.done = out, len(runs), true
					c.cond.Broadcast()
				}
				c.mu.Unlock()
			})
			continue
		}
		if over < c.maxPending {
			c.mu.Unlock()
			return l
		}
		// Backpressure: wait for the in-flight carry to land (or be
		// invalidated), then reconsider from the top.
		for !c.done && c.inflight {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
}

// Invalidate discards any in-flight or undelivered carry result. The
// owner calls it when the ladder the carrier serves is replaced
// wholesale (serve's rebalance rebuilds shard structures), so a carry
// captured from the old ladder can't be installed into the new one. It
// is safe to call from another goroutine while the owner is quiescent.
func (c *Carrier[K, V, S, E]) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.done, c.inflight, c.result = false, false, nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Carries reports the number of background carries installed so far.
func (c *Carrier[K, V, S, E]) Carries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.carries
}
