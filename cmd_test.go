package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/pam"
	"repro/rangetree"
	"repro/serve"
)

// Subprocess smoke tests: the two CLI tools and every example build and
// run end to end. These need the go toolchain (always present when the
// tests themselves run) and are skipped under -short.

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestPambenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := runGo(t, "run", "./cmd/pambench", "-list")
	for _, exp := range []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e"} {
		if !strings.Contains(out, exp) {
			t.Fatalf("-list missing %s:\n%s", exp, out)
		}
	}
	out = runGo(t, "run", "./cmd/pambench", "-exp", "table4", "-n", "20000")
	if !strings.Contains(out, "node sharing") || !strings.Contains(out, "%") {
		t.Fatalf("table4 output unexpected:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/pambench", "-exp", "table2", "-n", "50000", "-csv")
	if !strings.Contains(out, "Operation,Bound") {
		t.Fatalf("csv output unexpected:\n%s", out)
	}
}

// TestPamverifyCLI runs the offline verifier on a DurableStore directory
// and a DurablePointStore directory: each verifies clean (exit 0), and
// after one checkpoint byte is flipped it exits 1 naming the file.
func TestPamverifyCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	mapDir, pointDir := t.TempDir(), t.TempDir()
	d, err := serve.OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		pam.Options{}, 2, seq.Mix64, pam.Uint64Codec(), serve.DurableConfig{FS: serve.OSFS{Dir: mapDir}})
	if err != nil {
		t.Fatalf("OpenDurableStore: %v", err)
	}
	p, err := serve.OpenDurablePointStore(pam.Options{}, []float64{8}, serve.DurableConfig{FS: serve.OSFS{Dir: pointDir}})
	if err != nil {
		t.Fatalf("OpenDurablePointStore: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := d.Put(uint64(i), int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := p.Insert(rangetree.Point{X: float64(i % 16), Y: float64(i)}, 1); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if i%15 == 14 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if _, err := p.Checkpoint(); err != nil {
				t.Fatalf("point Checkpoint: %v", err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("point Close: %v", err)
	}

	pamverify := func(dir string) (int, string) {
		out, err := exec.Command("go", "run", "./cmd/pamverify", "-dir", dir).CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, string(out)
		case errors.As(err, &exit):
			return exit.ExitCode(), string(out)
		}
		t.Fatalf("go run ./cmd/pamverify -dir %s: %v\n%s", dir, err, out)
		return 0, ""
	}
	for _, dir := range []string{mapDir, pointDir} {
		if code, out := pamverify(dir); code != 0 || !strings.Contains(out, "files") {
			t.Fatalf("clean %s: exit %d\n%s", dir, code, out)
		}
		victim := filepath.Join(dir, "ckpt-000002")
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if code, out := pamverify(dir); code != 1 || !strings.Contains(out, "CORRUPT ckpt-000002") {
			t.Fatalf("flipped %s: exit %d\n%s", victim, code, out)
		}
	}
}

func TestWordindexCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := runGo(t, "run", "./cmd/wordindex",
		"-words", "20000", "-query", "w000000 AND w000001", "-k", "3")
	if !strings.Contains(out, "built index") {
		t.Fatalf("missing build line:\n%s", out)
	}
	if !strings.Contains(out, "matched") {
		t.Fatalf("missing query result:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/wordindex", "-words", "20000", "-bench", "-nq", "200")
	if !strings.Contains(out, "queries in") {
		t.Fatalf("missing bench line:\n%s", out)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	checks := map[string]string{
		"quickstart":  "range sum 100..199",
		"analytics":   "end-of-day total",
		"intervals":   "sessions covering t=700",
		"rangetree2d": "headcount by age band",
		"textsearch":  "indexed 6 documents",
		"snapshots":   "snapshot isolation held",
	}
	for name, want := range checks {
		t.Run(name, func(t *testing.T) {
			out := runGo(t, "run", "./examples/"+name)
			if !strings.Contains(out, want) {
				t.Fatalf("example %s output missing %q:\n%s", name, want, out)
			}
		})
	}
}
