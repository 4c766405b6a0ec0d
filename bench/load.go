package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/serve"
)

// writeRec is one write batch's timeline. An open-loop batch's latency runs
// from due, the time the schedule said to send it, so a stall that delays
// later batches is charged to them.
type writeRec struct {
	idx  int // the batch's index in the workload's write stream
	size batchSize
	due  time.Time
	call time.Time // when ApplyAsync was entered
	done time.Time // when the collector saw the future resolve
	ack  serve.Ack
	err  error // ApplyAsync refused the batch
	fut  *serve.Future
}

func (w writeRec) latency() time.Duration { return w.done.Sub(w.due) }

// failed reports whether the batch was refused or resolved with an error.
func (w writeRec) failed() error {
	if w.err != nil {
		return w.err
	}
	return w.ack.Err
}

// acks records, by write batch index, whether each batch was acknowledged;
// the checks replay the acknowledged ones.
type acks []bool

// record counts the batches, which continue the stream, as attempted
// operations and notes which were acknowledged.
func (a *acks) record(r *result, recs []writeRec) {
	for _, w := range recs {
		r.op(w.failed())
		*a = append(*a, w.failed() == nil)
	}
}

// writePhase runs the open-loop writer for d, continuing the write stream
// at batch first, while read runs on the calling goroutine until the same
// deadline, and returns the writer's batches once all have resolved.
//
// Batch first+i is due at start + i*every and is sent then, or at once when
// the writer is behind; gen builds it before its due time, so building is
// not charged as lateness. A goroutine collects the futures by blocking in
// Wait in issue order. Futures resolve in sequence order, which is issue
// order for one writer, so collecting in order adds no head-of-line delay,
// and the writer never polls a future.
func writePhase[B any](cfg config, d time.Duration, first int, gen func(i int) (B, batchSize), apply func(B) (*serve.Future, error), read func(until time.Time)) []writeRec {
	runtime.GC()
	start := time.Now()
	until := start.Add(d)
	every := time.Duration(float64(cfg.batch) / cfg.writeRate * float64(time.Second))
	// Sized to hold a whole phase's batches at the benchmark's rates so the
	// writer never waits on the collector; if it ever fills, the writer
	// blocks and the delay still shows in latencies measured from due.
	pending := make(chan writeRec, 1<<15)
	var out []writeRec
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for w := range pending {
			if w.fut != nil {
				w.ack = w.fut.Wait()
				w.fut = nil
			}
			w.done = time.Now()
			out = append(out, w)
		}
	}()
	go func() {
		defer wg.Done()
		defer close(pending)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * every)
			if !due.Before(until) {
				return
			}
			b, n := gen(first + i)
			sleepUntil(due)
			call := time.Now()
			f, err := apply(b)
			pending <- writeRec{idx: first + i, size: n, due: due, call: call, fut: f, err: err}
		}
	}()
	read(until)
	wg.Wait()
	return out
}

// capacity keeps cfg.inflight batches in flight for n batches, continuing
// the write stream at batch first, and returns their timelines in issue
// order; each batch's due time is when it was sent.
func capacity[B any](cfg config, n, first int, gen func(i int) (B, batchSize), apply func(B) (*serve.Future, error)) []writeRec {
	runtime.GC()
	out := make([]writeRec, 0, n)
	inflight := make([]writeRec, 0, cfg.inflight)
	reap := func() {
		w := inflight[0]
		inflight = inflight[1:]
		if w.fut != nil {
			w.ack = w.fut.Wait()
			w.fut = nil
		}
		w.done = time.Now()
		out = append(out, w)
	}
	for i := first; i < first+n; i++ {
		b, size := gen(i)
		if len(inflight) == cfg.inflight {
			reap()
		}
		now := time.Now()
		f, err := apply(b)
		inflight = append(inflight, writeRec{idx: i, size: size, due: now, call: now, fut: f, err: err})
	}
	for len(inflight) > 0 {
		reap()
	}
	return out
}

// tailBatches is how many synchronous batches syncTail writes.
const tailBatches = 64

// syncTail writes tailBatches synchronous batches after the acknowledged
// ones, so a reopen has WAL batches to replay on top of the newest
// checkpoint.
func syncTail[B any](r *result, a *acks, gen func(i int) (B, batchSize), apply func(B) (uint64, error)) {
	for i := 0; i < tailBatches; i++ {
		b, _ := gen(len(*a))
		_, err := apply(b)
		r.op(err)
		*a = append(*a, err == nil)
	}
}

// pacedReads is a reader that waits for each reply: request first+i is
// sent at start + i*every, or as soon as the previous request has returned
// if that is later, until the deadline; every zero sends requests back to
// back. It returns each request's latency from its send: a caller that
// waits for replies is a closed loop, so the time it waits for its turn is
// not the store's.
func pacedReads(every time.Duration, until time.Time, first int, do func(i int)) []time.Duration {
	var lat []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		sleepUntil(start.Add(time.Duration(i) * every))
		sent := time.Now()
		if !sent.Before(until) {
			return lat
		}
		do(first + i)
		lat = append(lat, time.Since(sent))
	}
}

// timeSetups times complete set-ups, each after a full collection, and
// sets setup_s to their median: at least cfg.setups of them, and more until
// they have taken cfg.setupTime in all (at most maxSetups), so that a
// set-up of a tenth of a second is timed often enough for its median to
// hold still. drop releases the previous set-up before the next is timed;
// the last set-up is kept.
func timeSetups(r *result, cfg config, setup func(i int) error, drop func() error) error {
	var ts []float64
	var total time.Duration
	for i := 0; i < cfg.setups || (total < cfg.setupTime && i < maxSetups); i++ {
		if i > 0 {
			if err := drop(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		d := time.Since(start)
		ts = append(ts, d.Seconds())
		total += d
	}
	r.set("setup_s", median(ts))
	r.note("setup_s: median of %d set-ups %v", len(ts), ts)
	return nil
}

const maxSetups = 9

// reopens checks that a closed durable store reopens to what it held.
// Untraced, it reopens once. Traced, it times at least minRestarts and at
// least cfg.restartTime of restarts (at most maxRestarts), after one untimed
// restart that warms the allocator and the page cache, and reports their
// median as serve.recovery_ms: restarts are short and a shared machine's
// speed drifts within a run, so one would say little.
func reopens(cfg config, r *result, traced bool, restart func(i int) (time.Duration, error)) error {
	if !traced {
		_, err := restart(0)
		return err
	}
	var ts []float64
	var total time.Duration
	for i := 0; i <= minRestarts || (total < cfg.restartTime && i <= maxRestarts); i++ {
		runtime.GC()
		d, err := restart(i)
		if err != nil {
			return err
		}
		if i > 0 {
			ts = append(ts, float64(d))
			total += d
		}
	}
	r.set("serve.recovery_ms", median(ts)/1e6)
	return nil
}

const (
	minRestarts = 3
	maxRestarts = 200
)

// sampler polls the store's pipeline counters and the live heap every
// 100 ms while a traced phase runs.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	queuedMax int64
	heapPeak  uint64
}

func startSampler(stats func() []serve.ShardStats) *sampler {
	s := &sampler{stop: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if stats != nil {
				var q int64
				for _, st := range stats() {
					q += st.QueuedOps
				}
				s.queuedMax = max(s.queuedMax, q)
			}
			metrics.Read(heap)
			s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// gcWindow reads the collector's counters at the start of a phase; end
// reports GCs per second and the p99 GC pause over the phase.
type gcWindow struct {
	at      time.Time
	samples []metrics.Sample
}

func startGCWindow() gcWindow {
	w := gcWindow{at: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}}
	metrics.Read(w.samples)
	return w
}

func (w gcWindow) end() (gcPerSec, pauseP99us float64) {
	now := []metrics.Sample{{Name: w.samples[0].Name}, {Name: w.samples[1].Name}}
	metrics.Read(now)
	cycles := now[0].Value.Uint64() - w.samples[0].Value.Uint64()
	gcPerSec = float64(cycles) / time.Since(w.at).Seconds()

	before, after := w.samples[1].Value.Float64Histogram(), now[1].Value.Float64Histogram()
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return gcPerSec, 0
	}
	// The bucket holding the 99th percentile pause; report its upper bound.
	target := (total*99 + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return gcPerSec, hi * 1e6
		}
	}
	return gcPerSec, 0
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
