package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// maxSpans caps the spans one run keeps (about 48 MB); later spans are
// counted as dropped and left out of the self times.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. Each
// span is recorded by the benchmark around one call into a layer, or built
// afterwards from a write's Ack timestamps; nothing inside the program is
// instrumented. A nil *tracer records nothing, so untraced runs pass nil.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

type span struct {
	name       string
	start, end time.Duration // since t0
	parent     int32         // index of the enclosing span, -1 for a request root
	req        int64         // request id shared by a request's spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// add records the span [start, end] and returns its index, or -1 when
// nothing was recorded.
func (t *tracer) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	s := span{name: name, start: start.Sub(t.t0), end: end.Sub(t.t0), parent: parent, req: req}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// durations returns the durations, in nanoseconds, of the spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// spanStat is the per-name summary written with the trace.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := map[string]spanStat{}
	for i, s := range t.spans {
		self := selfTime(s, t.spans, children[int32(i)])
		st := out[s.name]
		st.Count++
		st.TotalMs += float64(s.end-s.start) / 1e6
		st.SelfMs += float64(self) / 1e6
		out[s.name] = st
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// each clipped to s.
func selfTime(s span, spans []span, kids []int32) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return s.end - s.start - covered
}

// write saves the spans and their per-name self times as JSON: each span
// is [name, start_ns, end_ns, parent, request]. Call it once recording has
// stopped.
func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Seed     uint64              `json:"seed"`
		Dropped  int                 `json:"dropped"`
		Self     map[string]spanStat `json:"self"`
	}{workload, seed, t.dropped, t.selfTimes()})
	if err != nil {
		f.Close()
		return err
	}
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":[`)
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.start), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.end), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.req, 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
