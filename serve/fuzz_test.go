package serve

// FuzzServe fuzzes the differential harness itself: every input is one
// randomized concurrent schedule (map leg + ladder-backed spatial leg)
// whose snapshots must all equal their sequential prefix states, plus
// an async leg running the same schedule through the future pipeline
// under fuzzed tuning (mailbox depth, op budget, flush size cap,
// backpressure mode). The seed corpus interleaves snapshot acquisition
// with carry cascades and pins the async corner cases: a perpetually
// full mailbox, drains cut short by a small flush cap, and explicit
// rebalances racing writers on a tightly budgeted range store.

import (
	"testing"

	"repro/internal/workload"
)

func FuzzServe(f *testing.F) {
	// seed, shards, writers, batches, batchLen, flushCap,
	// depth, budget, carry, ranged, fastfail
	f.Add(uint64(1), uint8(2), uint8(2), uint8(4), uint8(6), uint8(4), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(uint64(7), uint8(3), uint8(3), uint8(8), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0), false, false)
	// Carry-cascade seeds: flushCap 2 with op counts crossing 2^k flushes,
	// snapshots interleaved with the cascades.
	f.Add(uint64(17), uint8(4), uint8(2), uint8(9), uint8(7), uint8(2), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(uint64(33), uint8(1), uint8(3), uint8(5), uint8(5), uint8(3), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(uint64(64), uint8(2), uint8(4), uint8(7), uint8(4), uint8(2), uint8(0), uint8(0), uint8(0), false, false)
	// Leaf-block boundary: a single shard with maximal batch volume on
	// the 64-key space drives the shard map across the default 32-entry
	// block size, so coalesced MultiInserts split and re-merge blocks
	// while snapshots hold references to the old ones.
	f.Add(uint64(91), uint8(1), uint8(3), uint8(8), uint8(8), uint8(3), uint8(0), uint8(0), uint8(0), true, false)
	// Full-mailbox seed: depth 1 and a 2-op budget on a single shard keep
	// every admission decision on the backpressure path, in both modes.
	f.Add(uint64(1001), uint8(0), uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(0), true, false)
	f.Add(uint64(1002), uint8(0), uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(0), true, true)
	// Flush-cap seed: a deep mailbox and a large budget with a 3-op
	// FlushOps, so drains stop at the cap, not at an empty mailbox.
	f.Add(uint64(1003), uint8(2), uint8(2), uint8(6), uint8(2), uint8(4), uint8(7), uint8(31), uint8(0), true, false)
	// Rebalance seed: four range shards with a 4-deep mailbox and a
	// 16-op budget, the rebalancer racing writers on a 64-key space.
	f.Add(uint64(1004), uint8(3), uint8(3), uint8(8), uint8(6), uint8(3), uint8(3), uint8(15), uint8(0), true, false)
	// Background-carry seeds: carry workers with flushCap 2 force spill +
	// deferred cascades on every few writes while replica readers and a
	// rebalancer are in flight; maximal batch volume on one shard keeps
	// several overflow runs pending at once (the backpressure bound is 2).
	f.Add(uint64(2001), uint8(2), uint8(3), uint8(9), uint8(8), uint8(2), uint8(0), uint8(0), uint8(1), true, false)
	f.Add(uint64(2002), uint8(0), uint8(4), uint8(9), uint8(8), uint8(2), uint8(0), uint8(0), uint8(2), false, false)
	f.Add(uint64(2003), uint8(3), uint8(3), uint8(8), uint8(6), uint8(3), uint8(3), uint8(15), uint8(2), true, false)

	f.Fuzz(func(t *testing.T, seed uint64, shards, writers, batches, batchLen, flushCap, depth, budget, carry uint8, ranged, fastfail bool) {
		cfg := workload.ScheduleCfg{
			Writers:   1 + int(writers)%3,
			Batches:   1 + int(batches)%8,
			BatchLen:  1 + int(batchLen)%8,
			KeySpace:  64,
			DelEvery:  3,
			SnapEvery: 2,
		}
		nShards := 1 + int(shards)%4
		runMapSchedule(t, seed, cfg, nShards, ranged, ranged)
		runPointSchedule(t, seed, cfg.Writers, 16+int(batches)*8, 1+int(shards)%3, 2+int(flushCap)%14, int(carry)%3)

		tun := Tuning{
			MailboxDepth:  1 + int(depth)%8,
			ShardOpBudget: 1 + int(budget)%32,
			FlushOps:      1 + int(batchLen)%16,
		}
		if fastfail {
			tun.Backpressure = BackpressureFastFail
		}
		runAsyncMapSchedule(t, seed, cfg, nShards, ranged, ranged, tun)
	})
}
