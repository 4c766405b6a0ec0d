package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number's name and unit. BENCHMARK.json at the
// repository root lists the same names and units; the smoke test holds the
// two in step.
type metric struct{ name, unit string }

// endToEnd is what an untraced run reports: what a user of the library or
// of a store sees. Every workload reports every one; README.md says what
// each means per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"write_p50_ms", "ms"},
	{"bytes_per_entry", "B"},
}

// perLayer is what a traced run reports, named <module>.<metric>. A layer
// a workload leaves idle reads 0.
var perLayer = []metric{
	{"parallel.speedup", "ratio"},
	{"core.build_ms", "ms"},
	{"core.union_ms", "ms"},
	{"core.multiinsert_ms", "ms"},
	{"core.multidelete_ms", "ms"},
	{"core.allocs_per_key", "count"},
	{"core.augrange_ns", "ns"},
	{"core.find_ns", "ns"},
	{"core.scan_ns_per_entry", "ns"},
	{"core.compression_ratio", "ratio"},
	{"pam.wrapper_ns_op", "ns"},
	{"rangetree.querycount_us", "us"},
	{"dynamic.levels", "count"},
	{"dynamic.buffer_pending", "count"},
	{"req.get_p50_us", "us"},
	{"req.get_p99_us", "us"},
	{"req.range_p50_us", "us"},
	{"req.range_p99_us", "us"},
	{"req.scan_p50_us", "us"},
	{"req.scan_p99_us", "us"},
	{"serve.readerview_ns_p50", "ns"},
	{"serve.snapshot_us_p50", "us"},
	{"serve.snapshot_us_p99", "us"},
	{"serve.gen_late_ms_p50", "ms"},
	{"serve.gen_late_ms_max", "ms"},
	{"serve.admit_us_p50", "us"},
	{"serve.admit_us_p99", "us"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.commit_wait_ms_p50", "ms"},
	{"serve.commit_wait_ms_p99", "ms"},
	{"serve.collect_ms_p50", "ms"},
	{"serve.write_p99_ms", "ms"},
	{"serve.write_slo_miss", "ratio"},
	{"serve.queued_ops_max", "count"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.checkpoint_records", "count"},
	{"serve.checkpoint_bytes", "B"},
	{"serve.compact_ms", "ms"},
	{"serve.recovery_ms", "ms"},
	{"serve.recovery_chain_records", "count"},
	{"serve.recovery_wal_batches", "count"},
	{"fs.sync_ms_p50", "ms"},
	{"fs.sync_ms_p99", "ms"},
	{"fs.syncs", "count"},
	{"fs.batches_per_sync", "ratio"},
	{"fs.wal_bytes_per_user_byte", "ratio"},
	{"fs.ckpt_bytes_per_user_byte", "ratio"},
	{"fs.ckpt_write_ms_p50", "ms"},
	{"runtime.gc_per_s", "1/s"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.write_parts_gap_pct", "%"},
	{"trace.spans", "count"},
	{"ladder.core_ns_op", "ns"},
	{"ladder.pam_ns_op", "ns"},
	{"ladder.serve_ns_op", "ns"},
	{"ladder.serve_delta_ns_op", "ns"},
	{"ladder.wal_mem_ns_op", "ns"},
	{"ladder.wal_mem_delta_ns_op", "ns"},
	{"ladder.wal_fsync_ns_op", "ns"},
	{"ladder.wal_fsync_delta_ns_op", "ns"},
	{"ladder.checkpoint_ms", "ms"},
	{"ladder.recovery_ms", "ms"},
	{"ladder.rangetree_ns_op", "ns"},
	{"ladder.pointstore_ns_op", "ns"},
	{"ladder.pointstore_delta_ns_op", "ns"},
	{"ladder.pointstore_wal_ns_op", "ns"},
	{"ladder.pointstore_wal_delta_ns_op", "ns"},
}

// sloLimit is the write latency a batch must meet to count as on time in
// serve.write_slo_miss.
const sloLimit = 50 * time.Millisecond

// result collects one run's counts, checks and metric values. The counters
// and problem list are safe for concurrent use; values is written only by
// the goroutine driving the run.
type result struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string

	values map[string]float64
	notes  []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%v", err)
	}
}

// check counts one correctness check, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure that was already counted as attempted.
func (r *result) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// note records a human-readable line printed before the result.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setPct sets name to the p-quantile of xs scaled by scale and notes the
// sample count. A quantile the sample cannot support (fewer than ten samples
// above it) is reported as the sample maximum, and the note says so.
func (r *result) setPct(name string, xs []float64, p, scale float64) {
	v, ok := percentile(xs, p)
	if !ok {
		v = maxOf(xs)
		r.note("%s: n=%d has fewer than 10 samples above p%g; reporting the maximum", name, len(xs), p*100)
	} else {
		r.note("%s: n=%d", name, len(xs))
	}
	r.set(name, v*scale)
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]outputItem `json:"metrics"`
}

type outputItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish builds the result line from the metrics of the requested kind.
// An end-to-end metric that is missing, zero or not finite fails the run:
// the regression bounds are shares of the value, so none may read 0.
func (r *result) finish(traced bool) output {
	ms := endToEnd
	if traced {
		ms = perLayer
	}
	out := output{Metrics: map[string]outputItem{}}
	for _, m := range ms {
		v, ok := r.values[m.name]
		bad := math.IsNaN(v) || math.IsInf(v, 0)
		if !traced {
			r.check(ok && !bad && v > 0, "metric %s not measured (value %v)", m.name, v)
		} else if bad {
			r.check(false, "metric %s is %v", m.name, v)
		}
		if bad {
			v = 0
		}
		out.Metrics[m.name] = outputItem{Value: v, Unit: m.unit}
	}
	if r.attempted.Load() == 0 {
		r.check(false, "nothing was attempted")
	}
	out.Attempted = r.attempted.Load()
	out.Failed = r.failed.Load()
	out.Correct = out.Failed == 0
	return out
}

func (o output) line() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // finish replaced every non-finite value
	}
	return string(b)
}

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank, and
// whether at least ten samples lie above it — the highest quantile a sample
// of len(xs) supports, so p99 needs 1000 samples.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durs converts durations to float64 nanoseconds.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
