// Benchgate is the CI soft regression gate over the perf-trajectory
// JSON (`pambench -json`, BENCH_PRn.json): it compares a head run
// against a base run and fails only when one of an explicit allowlist
// of tier-1 operations regresses by more than the threshold in ns/op or
// allocs/op. Sub-microsecond ops (below -min-gate-ns) are gated on
// allocs/op alone — their wall times are scheduler noise on shared CI
// runners. Every other delta is printed for information but never
// blocks.
//
// Both files should come from the same machine (CI builds the base
// checkout's suite on the same runner) so the ns/op comparison is
// apples to apples; allocs/op is machine-independent.
//
// Usage:
//
//	benchgate -base /tmp/base.json -head /tmp/head.json \
//	    -gate rangesum_build,rangesum_query,union_equal,find,serve_write_async_4shard \
//	    -max-regress 0.25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type result struct {
	Op          string  `json:"op"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

type report struct {
	Results []result `json:"results"`
}

// parseReport decodes one pambench -json report into an op-keyed map.
func parseReport(raw []byte) (map[string]result, error) {
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	out := make(map[string]result, len(r.Results))
	for _, res := range r.Results {
		out[res.Op] = res
	}
	return out, nil
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out, err := parseReport(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// parseGateList splits the -gate flag into the gated-op set.
func parseGateList(list string) map[string]bool {
	gated := map[string]bool{}
	for _, op := range strings.Split(list, ",") {
		if op = strings.TrimSpace(op); op != "" {
			gated[op] = true
		}
	}
	return gated
}

func pct(base, head float64) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(head/base-1))
}

// gateConfig carries the thresholds of one benchgate run.
type gateConfig struct {
	gated      map[string]bool
	maxRegress float64
	minGateNs  float64
}

// runGate prints the comparison table to w and returns the gated
// regressions (empty means the gate passes).
func runGate(base, head map[string]result, cfg gateConfig, w io.Writer) []string {
	var failures []string
	fmt.Fprintf(w, "%-32s %14s %14s %9s %12s %12s %9s  gate\n",
		"op", "base ns/op", "head ns/op", "Δns", "base allocs", "head allocs", "Δallocs")
	for _, h := range headOrder(head) {
		b, ok := base[h.Op]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %9s %12s %12.0f %9s  new\n",
				h.Op, "-", h.NsPerOp, "-", "-", h.AllocsPerOp, "-")
			continue
		}
		mark := "info"
		if cfg.gated[h.Op] {
			mark = "GATED"
			// Wall time is gated only above the noise floor: a ~100ns op
			// on a shared runner can drift >25% with no code change, so
			// fast ops are held to their (deterministic) allocation count.
			if b.NsPerOp >= cfg.minGateNs && h.NsPerOp > b.NsPerOp*(1+cfg.maxRegress) {
				failures = append(failures, fmt.Sprintf("%s ns/op %.0f -> %.0f (%s)", h.Op, b.NsPerOp, h.NsPerOp, pct(b.NsPerOp, h.NsPerOp)))
			} else if b.NsPerOp > 0 && b.NsPerOp < cfg.minGateNs {
				mark = "GATED (allocs only)"
			}
			// An allocation-free baseline is a deliverable: any alloc
			// appearing on such an op fails (the threshold is relative,
			// so with base 0 any head > 0 trips it).
			if h.AllocsPerOp > b.AllocsPerOp*(1+cfg.maxRegress) {
				failures = append(failures, fmt.Sprintf("%s allocs/op %.0f -> %.0f (%s)", h.Op, b.AllocsPerOp, h.AllocsPerOp, pct(b.AllocsPerOp, h.AllocsPerOp)))
			}
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %9s %12.0f %12.0f %9s  %s\n",
			h.Op, b.NsPerOp, h.NsPerOp, pct(b.NsPerOp, h.NsPerOp),
			b.AllocsPerOp, h.AllocsPerOp, pct(b.AllocsPerOp, h.AllocsPerOp), mark)
	}
	for _, op := range sortedKeys(cfg.gated) {
		if _, ok := head[op]; !ok {
			failures = append(failures, fmt.Sprintf("gated op %q missing from head run", op))
		}
	}
	return failures
}

func main() {
	var (
		basePath   = flag.String("base", "", "baseline JSON (committed BENCH_PRn.json or a fresh base-ref run)")
		headPath   = flag.String("head", "", "head JSON to check")
		gateList   = flag.String("gate", "rangesum_build,rangesum_query,union_equal,find,serve_write_async_4shard,recovery_replay,recovery_replay_compacted,update_tail_p99,replica_read_throughput,block_scan_throughput,block_scan_throughput_compressed,multiinsert_small_par2,multiinsert_small_compressed", "comma-separated ops gated on regression")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum tolerated relative regression for gated ops")
		minGateNs  = flag.Float64("min-gate-ns", 1000, "ns/op floor below which gated ops are checked on allocs only (sub-microsecond wall times are scheduler noise on shared CI runners)")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	head, err := load(*headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cfg := gateConfig{gated: parseGateList(*gateList), maxRegress: *maxRegress, minGateNs: *minGateNs}
	failures := runGate(base, head, cfg, os.Stdout)
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Printf("REGRESSION: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: all gated benchmarks within threshold")
}

// headOrder returns head results sorted by op name for a deterministic
// report layout.
func headOrder(head map[string]result) []result {
	out := make([]result, 0, len(head))
	for _, r := range head {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// sortedKeys returns m's keys in order, so missing-op failures are
// reported deterministically.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
