package serve

// Direct unit tests of the FS implementations. Most pin the MemFS
// failpoint model — the instrument every crash schedule trusts:
// kill-point budget accounting, torn-write prefixes, the
// synced/unsynced split in DurableState, the rename publication rule,
// and CorruptFile's exactly-one-bit semantics. TestOSFSSyncsDir pins
// the directory fsyncs that give OSFS the durable renames and creates
// MemFS models.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestMemFSKillPointBudget(t *testing.T) {
	fs := NewMemFS()
	fs.SetKillPoint(3, rand.New(rand.NewSource(1)))

	f, err := fs.Create("a") // op 1
	if err != nil {
		t.Fatalf("Create within budget: %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 2
		t.Fatalf("Write within budget: %v", err)
	}
	if err := f.Sync(); err != nil { // op 3: budget exhausted after this
		t.Fatalf("Sync within budget: %v", err)
	}
	if fs.Crashed() {
		t.Fatal("crashed before the budget ran out")
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrCrashed) { // op 4 crashes
		t.Fatalf("op past budget = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() false after the kill point fired")
	}
	// Once crashed, everything fails — reads included.
	if _, err := fs.ReadFile("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadFile after crash = %v", err)
	}
	if _, err := fs.List(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("List after crash = %v", err)
	}
	if _, err := fs.Create("b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Create after crash = %v", err)
	}
	if err := fs.Rename("a", "c"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Rename after crash = %v", err)
	}
}

func TestMemFSReadsAreFree(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs.SetKillPoint(1, rand.New(rand.NewSource(2)))
	for i := 0; i < 50; i++ { // reads and listings never consume budget
		if _, err := fs.ReadFile("a"); err != nil {
			t.Fatalf("ReadFile %d: %v", i, err)
		}
		if _, err := fs.List(); err != nil {
			t.Fatalf("List %d: %v", i, err)
		}
	}
	if fs.Crashed() {
		t.Fatal("reads consumed kill-point budget")
	}
}

func TestMemFSTornWrite(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	fs.SetKillPoint(0, rand.New(rand.NewSource(7)))
	if _, err := f.Write([]byte("BBBBBBBB")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at zero budget = %v, want ErrCrashed", err)
	}

	state := fs.DurableState()
	got := state["a"]
	// The synced prefix survives whole; the torn write contributes some
	// prefix of the attempted bytes, never garbage and never a suffix.
	if !bytes.HasPrefix(got, []byte("AAAA")) {
		t.Fatalf("synced prefix lost: %q", got)
	}
	if len(got) > len("AAAA")+len("BBBBBBBB") {
		t.Fatalf("torn write grew the file: %q", got)
	}
	for _, b := range got[4:] {
		if b != 'B' {
			t.Fatalf("torn tail holds invented bytes: %q", got)
		}
	}
}

func TestMemFSDurableStateSyncSplit(t *testing.T) {
	fs := NewMemFS()
	fs.SetKillPoint(1000, rand.New(rand.NewSource(11)))
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	// No sync for the tail: a power cut keeps the synced ten bytes and an
	// arbitrary prefix of the rest.
	seenLens := map[int]bool{}
	for i := 0; i < 64; i++ {
		got := NewMemFSFrom(fs.DurableState()).files["a"].data
		if !bytes.HasPrefix(got, []byte("0123456789")) {
			t.Fatalf("synced bytes lost: %q", got)
		}
		if !bytes.HasPrefix([]byte("abcdef"), got[10:]) {
			t.Fatalf("unsynced tail is not a prefix: %q", got)
		}
		seenLens[len(got)] = true
	}
	if len(seenLens) < 2 {
		t.Fatalf("unsynced tail never varied across 64 draws: %v", seenLens)
	}
}

func TestMemFSRenamePublishes(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("file.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Rename("file.tmp", "file"); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after the rename: the published name must hold
	// the full synced contents and the temp name must be gone.
	fs.SetKillPoint(0, rand.New(rand.NewSource(3)))
	_, _ = fs.Create("x") // trip the kill point
	state := fs.DurableState()
	if !bytes.Equal(state["file"], []byte("payload")) {
		t.Fatalf("rename did not publish synced contents: %q", state["file"])
	}
	if _, ok := state["file.tmp"]; ok {
		t.Fatal("source name survived the rename")
	}

	if err := NewMemFS().Rename("missing", "dst"); err == nil {
		t.Fatal("rename of a missing file succeeded")
	}
}

func TestMemFSRemove(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Close()
	if err := fs.Remove("a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := fs.ReadFile("a"); err == nil {
		t.Fatal("file readable after Remove")
	}
	if _, ok := fs.DurableState()["a"]; ok {
		t.Fatal("removed file reappeared in DurableState")
	}
}

func TestMemFSCorruptFile(t *testing.T) {
	fs := NewMemFS()
	rng := rand.New(rand.NewSource(5))
	if fs.CorruptFile("missing", rng) {
		t.Fatal("corrupted a file that does not exist")
	}
	f, _ := fs.Create("empty")
	f.Close()
	if fs.CorruptFile("empty", rng) {
		t.Fatal("corrupted an empty file")
	}

	g, _ := fs.Create("a")
	orig := []byte("some durable payload")
	if _, err := g.Write(orig); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	g.Close()

	fs.SetKillPoint(2, rand.New(rand.NewSource(6)))
	if !fs.CorruptFile("a", rng) { // must not charge the budget
		t.Fatal("CorruptFile failed on a non-empty file")
	}
	got, err := fs.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	diff := 0
	for i := range got {
		if b := got[i] ^ orig[i]; b != 0 {
			diff += popcount(b)
		}
	}
	if len(got) != len(orig) || diff != 1 {
		t.Fatalf("CorruptFile changed %d bits and length %d->%d, want exactly 1 bit", diff, len(orig), len(got))
	}
	// Budget untouched: two mutating ops still succeed.
	h, err := fs.Create("b")
	if err != nil {
		t.Fatalf("op 1 after CorruptFile: %v", err)
	}
	if _, err := h.Write([]byte("x")); err != nil {
		t.Fatalf("op 2 after CorruptFile: %v", err)
	}
	if fs.Crashed() {
		t.Fatal("CorruptFile consumed kill-point budget")
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestOSFSSyncsDir checks that OSFS makes its directory entries
// durable: a Rename and an Append fsync the directory and return that
// sync's error. A Create leaves the directory alone.
func TestOSFSSyncsDir(t *testing.T) {
	dir := t.TempDir()
	o := OSFS{Dir: dir}
	var synced []string
	var fail error
	realSync := syncDir
	syncDir = func(d string) error {
		synced = append(synced, d)
		return fail
	}
	t.Cleanup(func() { syncDir = realSync })
	expect := func(step string, n int) {
		t.Helper()
		if len(synced) != n {
			t.Fatalf("after %s: %d directory syncs, want %d", step, len(synced), n)
		}
		for _, d := range synced {
			if d != dir {
				t.Fatalf("after %s: synced %q, want %q", step, d, dir)
			}
		}
	}
	write := func(f File, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	write(o.Append("wal-1"))
	expect("an Append", 1)
	write(o.Append("wal-1"))
	expect("a second Append", 2)
	write(o.Create("ckpt.tmp"))
	expect("a Create", 2)
	if err := o.Rename("ckpt.tmp", "ckpt"); err != nil {
		t.Fatal(err)
	}
	expect("a Rename", 3)
	if got, err := o.ReadFile("wal-1"); err != nil || string(got) != "xx" {
		t.Fatalf("wal-1 = %q, %v; want both appends", got, err)
	}

	fail = errors.New("injected directory fsync failure")
	if err := o.Rename("ckpt", "ckpt2"); !errors.Is(err, fail) {
		t.Fatalf("Rename with a failing directory sync = %v, want %v", err, fail)
	}
	if f, err := o.Append("wal-2"); !errors.Is(err, fail) || f != nil {
		t.Fatalf("Append with a failing directory sync = %v, %v; want nil, %v", f, err, fail)
	}
	expect("the failing syncs", 5)

	if err := realSync(dir); err != nil {
		t.Fatalf("directory fsync: %v", err)
	}
}
