package main

import (
	"time"
)

// batchSize is what a write batch carries: ops, and user bytes (keys and
// values) for write amplification.
type batchSize struct{ ops, bytes int }

// writeParts splits an acknowledged batch's latency into consecutive
// stages from its Ack timestamps: generator lateness (due to call), admit
// (call to sequenced), queue (sequenced to applied), commit wait (applied
// to resolved, the WAL fsync on durable stores) and collect (resolved to
// seen by the collector). The parts add up to the latency exactly.
var writeParts = []string{"gen.late", "serve.admit", "serve.queue", "serve.commit_wait", "gen.collect"}

func (w writeRec) parts() [5]time.Time {
	return [5]time.Time{w.due, w.call, w.ack.Enqueued, w.ack.Flushed, w.ack.Committed}
}

// addWriteSpans records an acknowledged write batch as a request span with
// one child span per stage.
func addWriteSpans(tr *tracer, w writeRec) {
	if tr == nil || w.failed() != nil {
		return
	}
	req := int64(w.idx)
	root := tr.add("write", w.due, w.done, -1, req)
	p := w.parts()
	for i, name := range writeParts {
		end := w.done
		if i+1 < len(p) {
			end = p[i+1]
		}
		tr.add(name, p[i], end, root, req)
	}
}

func writeLatencies(recs []writeRec) []float64 {
	var xs []float64
	for _, w := range recs {
		if w.failed() == nil {
			xs = append(xs, float64(w.latency()))
		}
	}
	return xs
}

// writeP50 is the median open-loop write latency in milliseconds.
func writeP50(recs []writeRec) float64 { return median(writeLatencies(recs)) / 1e6 }

func setWriteP50(r *result, recs []writeRec) {
	r.set("write_p50_ms", writeP50(recs))
	r.note("write_p50_ms: n=%d open-loop batches, latency from due time", len(recs))
}

// capacityRate is the acknowledged ops per second of a closed-loop write
// phase, from the first send to the last resolution.
func capacityRate(recs []writeRec) float64 {
	if len(recs) == 0 {
		return 0
	}
	ops := 0
	for _, w := range recs {
		if w.failed() == nil {
			ops += w.size.ops
		}
	}
	return float64(ops) / recs[len(recs)-1].done.Sub(recs[0].call).Seconds()
}

// writeLayers sets the write pipeline's per-stage metrics from a traced
// open-loop phase.
func writeLayers(r *result, tr *tracer, recs []writeRec) {
	late := tr.durations("gen.late")
	r.setPct("serve.gen_late_ms_p50", late, 0.5, 1e-6)
	r.set("serve.gen_late_ms_max", maxOf(late)/1e6)
	r.setPct("serve.admit_us_p50", tr.durations("serve.admit"), 0.5, 1e-3)
	r.setPct("serve.admit_us_p99", tr.durations("serve.admit"), 0.99, 1e-3)
	r.setPct("serve.queue_ms_p50", tr.durations("serve.queue"), 0.5, 1e-6)
	r.setPct("serve.queue_ms_p99", tr.durations("serve.queue"), 0.99, 1e-6)
	r.setPct("serve.commit_wait_ms_p50", tr.durations("serve.commit_wait"), 0.5, 1e-6)
	r.setPct("serve.commit_wait_ms_p99", tr.durations("serve.commit_wait"), 0.99, 1e-6)
	r.setPct("serve.collect_ms_p50", tr.durations("gen.collect"), 0.5, 1e-6)
	total := writeLatencies(recs)
	r.setPct("serve.write_p99_ms", total, 0.99, 1e-6)

	// Each batch's stages add up to its latency exactly, so the gap between
	// the stage medians' sum and the median latency measures only how skewed
	// the stages are: how far the per-stage medians can be read as a
	// breakdown of the median write.
	var sum float64
	for _, name := range writeParts {
		sum += median(tr.durations(name))
	}
	p50 := median(total)
	gap := sum - p50
	if gap < 0 {
		gap = -gap
	}
	r.set("trace.write_parts_gap_pct", 100*ratio(gap, p50))

	miss := 0
	for _, w := range recs {
		if w.failed() != nil || w.latency() > sloLimit {
			miss++
		}
	}
	r.set("serve.write_slo_miss", ratio(float64(miss), float64(len(recs))))
}

// readLayers sets the replica, snapshot and core probe metrics from a
// traced phase's read spans.
func readLayers(r *result, tr *tracer, queries, scanEntries int) {
	r.setPct("serve.readerview_ns_p50", tr.durations("serve.readerview"), 0.5, 1)
	if sn := tr.durations("serve.snapshot"); len(sn) > 0 {
		r.setPct("serve.snapshot_us_p50", sn, 0.5, 1e-3)
		r.setPct("serve.snapshot_us_p99", sn, 0.99, 1e-3)
	}
	if f := tr.durations("core.find"); len(f) > 0 {
		// Each core.find span is one request's batch of probes.
		r.set("core.find_ns", mean(f)/float64(queries))
	}
	if sc := tr.durations("core.scan"); len(sc) > 0 {
		r.set("core.scan_ns_per_entry", ratio(mean(sc)*float64(len(sc)), float64(scanEntries)))
	}
}

// runtimeLayers sets the collector and heap metrics of a traced phase.
func runtimeLayers(r *result, gcw gcWindow, smp *sampler) {
	gcRate, pause := gcw.end()
	r.set("runtime.gc_per_s", gcRate)
	r.set("runtime.gc_pause_p99_us", pause)
	r.set("runtime.heap_peak_mb", float64(smp.heapPeak)/(1<<20))
	r.set("serve.queued_ops_max", float64(smp.queuedMax))
}

// fsLayers sets the filesystem metrics: syncs and write amplification over
// the traced open-loop phase, checkpoint write times over everything from
// that phase to the end of the explicit compaction.
func fsLayers(r *result, phase, all fsCounts, recs []writeRec) {
	syncs := durs(phase.walSyncs)
	r.setPct("fs.sync_ms_p50", syncs, 0.5, 1e-6)
	r.setPct("fs.sync_ms_p99", syncs, 0.99, 1e-6)
	r.set("fs.syncs", float64(len(phase.walSyncs)+phase.ckptSyncs))
	user, batches := 0, 0
	for _, w := range recs {
		if w.failed() == nil {
			user += w.size.bytes
			batches++
		}
	}
	r.set("fs.batches_per_sync", ratio(float64(batches), float64(len(phase.walSyncs))))
	r.set("fs.wal_bytes_per_user_byte", ratio(float64(phase.walBytes), float64(user)))
	r.set("fs.ckpt_bytes_per_user_byte", ratio(float64(phase.ckptBytes), float64(user)))
	r.set("fs.ckpt_write_ms_p50", median(durs(all.ckptWrites))/1e6)
}
