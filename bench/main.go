// Command bench is the repository's benchmark: two seeded workloads, the
// parallel library alone (bulk) and the durable serving stack around it
// (kv), with end-to-end metrics from an untraced run and a per-layer
// breakdown from a traced run of the same seed.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result: correct, attempted,
// failed and the metrics with their units. The exit status is 1 when any
// correctness check fails. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/parallel"
)

// config sets every size, rate and duration of a run. full is the
// benchmark; the smoke test runs tiny.
type config struct {
	seed    uint64
	measure time.Duration // the measured phase
	warmup  time.Duration // discarded, before the measured phase
	trace   bool
	dir     string // scratch directory for durable stores

	setups      int           // least set-ups timed for setup_s; the last one is kept
	setupTime   time.Duration // least total time of the set-ups timed for setup_s
	restartTime time.Duration // least total time of the restarts timed for serve.recovery_ms

	batch     int     // ops per write batch
	writeRate float64 // open-loop write ops per second
	inflight  int     // batches the capacity writer keeps in flight

	bulkN         int    // entries drawn for each of the two bulk maps
	bulkSpace     uint64 // bulk key space
	bulkUpdate    int    // keys per MultiInsert and per MultiDelete
	bulkRequests  int    // range requests per round
	speedupRounds int    // rounds at parallelism 1 and nproc for parallel.speedup

	queries int // AugRange calls per bulk range request, Finds per get

	kvN             int     // entries preloaded into the store
	kvSpace         uint64  // store key space
	kvSpanKeys      int     // entries covered by a range or scan request
	kvReadRate      float64 // read requests per second
	kvCapacity      int     // batches in the capacity phase
	checkpointEvery int
	compactEvery    int

	ladderOps int // ops per rung of the layer ladder
}

func full(seed uint64, seconds float64) config {
	return config{
		seed:        seed,
		measure:     time.Duration(seconds * float64(time.Second)),
		warmup:      2 * time.Second,
		setups:      3,
		setupTime:   time.Second,
		restartTime: 4 * time.Second,

		batch:     64,
		writeRate: 10000,
		inflight:  64,

		bulkN:         1 << 18,
		bulkSpace:     1 << 20,
		bulkUpdate:    1 << 14,
		bulkRequests:  1024,
		speedupRounds: 3,
		queries:       16,

		kvN:             1 << 20,
		kvSpace:         4 << 20,
		kvSpanKeys:      4096,
		kvReadRate:      1000,
		kvCapacity:      8192,
		checkpointEvery: 1024,
		compactEvery:    8,

		ladderOps: 1 << 16,
	}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config, r *result, tr *tracer) error{
	"bulk": runBulk,
	"kv":   runKV,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload (and, when traced, the layer ladder) and
// returns its result. The scratch directory is removed before it returns.
func run(name string, cfg config) (*result, *tracer) {
	r := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		r.op(fmt.Errorf("scratch directory: %w", err))
		return r, tr
	}
	defer os.RemoveAll(cfg.dir)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel.SetParallelism(runtime.GOMAXPROCS(0))
	if err := workloads[name](cfg, r, tr); err != nil {
		r.op(err)
	}
	if cfg.trace {
		if err := runLadder(cfg, r); err != nil {
			r.op(err)
		}
		r.set("trace.spans", float64(tr.count()))
	}
	return r, tr
}

func main() {
	workload := flag.String("workload", "", "workload to run: bulk or kv")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run and writes the spans to the work directory")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bench --workload %v --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	cfg := full(*seed, *seconds)
	cfg.trace = *trace == 1
	cfg.dir = filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid()))

	r, tr := run(*workload, cfg)
	if tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := tr.write(path, *workload, *seed); err != nil {
			r.op(fmt.Errorf("writing trace: %w", err))
		} else {
			r.note("trace written to %s", path)
		}
	}
	out := r.finish(cfg.trace)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, p := range r.problems {
		fmt.Println("# FAILED:", p)
	}
	fmt.Println(out.line())
	if !out.Correct {
		os.Exit(1)
	}
}
