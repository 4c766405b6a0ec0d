package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every size and phase so both workloads, traced and
// untraced, run in a few seconds.
func tiny(t *testing.T, seed uint64) config {
	c := full(seed, 0.3)
	c.warmup, c.setupTime, c.restartTime = 50*time.Millisecond, 50*time.Millisecond, 50*time.Millisecond
	c.dir = t.TempDir()
	c.bulkN, c.bulkSpace, c.bulkUpdate, c.bulkRequests, c.speedupRounds = 4096, 1<<14, 256, 64, 1
	c.kvN, c.kvSpace, c.kvSpanKeys, c.kvReadRate, c.kvCapacity = 4096, 1<<14, 64, 5000, 64
	c.checkpointEvery, c.compactEvery = 16, 2
	c.ladderOps = 4096
	return c
}

// benchmarkJSON reads the metric lists of the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer []metric) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	return e2e, layer
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark reports %v", layer, perLayer)
	}
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and traced,
// and checks that each reports every metric of BENCHMARK.json with its unit
// and that no operation or check failed.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, 7)
			cfg.trace = traced
			r, _ := run(name, cfg)
			out := r.finish(traced)
			want := e2e
			if traced {
				want = layer
			}
			for _, m := range want {
				got, ok := out.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(out.Metrics), len(want))
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, out.Correct, out.Attempted, out.Failed, r.problems)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ten samples above
		{999, 0.99, 990, false}, // nine above
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}

	r := newResult()
	r.setPct("x", seq(999), 0.99, 1)
	if r.values["x"] != 999 || !strings.Contains(r.notes[0], "n=999") {
		t.Errorf("unsupported p99 of 999 samples: value %g, note %q; want the maximum and the count", r.values["x"], r.notes[0])
	}
	r.setPct("y", seq(1000), 0.99, 1)
	if r.values["y"] != 990 || !strings.Contains(r.notes[1], "n=1000") {
		t.Errorf("p99 of 1000 samples: value %g, note %q", r.values["y"], r.notes[1])
	}
}

// TestGeneratorsDeterministic checks that every input is a function of the
// seed: the same seed gives the same inputs, another seed other inputs.
func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := tiny(t, 1), tiny(t, 1), tiny(t, 2)
	check := func(what string, same, other any) {
		t.Helper()
		if !reflect.DeepEqual(same, other) {
			t.Errorf("%s differs between runs of one seed", what)
		}
	}
	differ := func(what string, x, y any) {
		t.Helper()
		if reflect.DeepEqual(x, y) {
			t.Errorf("%s is the same for two seeds", what)
		}
	}

	ba, bb, bc := newBulkInputs(a), newBulkInputs(b), newBulkInputs(c)
	check("bulk inputs", ba, bb)
	differ("bulk inputs", ba, bc)

	ka, kb, kc := newKVGen(a), newKVGen(b), newKVGen(c)
	check("kv preload", ka.preload(), kb.preload())
	differ("kv preload", ka.preload(), kc.preload())
	for i := 0; i < 3; i++ {
		x, _ := ka.batch(i)
		y, _ := kb.batch(i)
		z, _ := kc.batch(i)
		check("kv batch", x, y)
		differ("kv batch", x, z)
		check("kv get keys", ka.getKeys(i, nil), kb.getKeys(i, nil))
		lo1, hi1 := ka.span(i)
		lo2, hi2 := kb.span(i)
		check("kv span", [2]uint64{lo1, hi1}, [2]uint64{lo2, hi2})
	}
}
