package serve

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The checkpointer: automatic checkpoints run on a goroutine of their
// own, so a checkpoint stalled anywhere in its file I/O holds no future,
// a crash between the WAL rotation and the publish rename loses nothing
// acknowledged, and a failed checkpoint fails no write but stays in Err.

// settleCheckpoints waits until the checkpointer has run every automatic
// checkpoint signalled so far; it returns at once without
// CheckpointEvery. Tests that assert on automatic checkpoints call it
// once their writes have resolved.
func (d *durable[O, T]) settleCheckpoints() {
	if d.ckpt != nil {
		d.ckpt.signalled.Wait()
	}
}

// gateFS wraps a MemFS and intercepts one step of checkpoint
// publication: Create(ckptTmpName), or Rename(ckptTmpName, …) when
// rename is set. While failing is set the step fails with errInjected;
// otherwise it blocks until release is called, and held is closed when
// the first one blocks.
type gateFS struct {
	*MemFS
	rename  bool
	failing atomic.Bool
	held    chan struct{}
	holdOne sync.Once
	open    chan struct{}
	relOne  sync.Once
}

var errInjected = errors.New("injected checkpoint I/O error")

func newGateFS(rename bool) *gateFS {
	return &gateFS{MemFS: NewMemFS(), rename: rename, held: make(chan struct{}), open: make(chan struct{})}
}

func (g *gateFS) gate() error {
	if g.failing.Load() {
		return errInjected
	}
	g.holdOne.Do(func() { close(g.held) })
	<-g.open
	return nil
}

// release lets every held and later step through; safe to call twice.
func (g *gateFS) release() { g.relOne.Do(func() { close(g.open) }) }

// waitHeld fails the test unless a checkpoint reaches the gate in 10 s.
func (g *gateFS) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no automatic checkpoint reached the held step")
	}
}

func (g *gateFS) Create(name string) (File, error) {
	if name == ckptTmpName && !g.rename {
		if err := g.gate(); err != nil {
			return nil, err
		}
	}
	return g.MemFS.Create(name)
}

func (g *gateFS) Rename(oldname, newname string) error {
	if oldname == ckptTmpName && g.rename {
		if err := g.gate(); err != nil {
			return err
		}
	}
	return g.MemFS.Rename(oldname, newname)
}

// TestDurableResolvesDuringAutoCheckpoint holds an automatic checkpoint
// in Create and checks that writes keep resolving meanwhile: the two
// futures whose second batch signalled the checkpoint, and a later Put.
// With the checkpoint on the resolver, the second future would wait for
// the checkpoint's whole file I/O.
func TestDurableResolvesDuringAutoCheckpoint(t *testing.T) {
	fs := newGateFS(false)
	d, err := openDurCfg(fs, 2, DurableConfig{CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	defer fs.release() // runs first: a failed test must not hang Close
	oracle := map[uint64]int64{1: 10, 2: 20, 3: 30}

	f1, err := d.PutAsync(1, 10)
	if err != nil {
		t.Fatalf("PutAsync: %v", err)
	}
	f2, err := d.PutAsync(2, 20)
	if err != nil {
		t.Fatalf("PutAsync: %v", err)
	}
	fs.waitHeld(t)
	deadline := time.After(10 * time.Second)
	for _, f := range []*Future{f1, f2} {
		select {
		case <-f.Done():
			if a := f.Wait(); a.Err != nil {
				t.Fatalf("seq %d: Ack.Err %v", a.Seq, a.Err)
			}
		case <-deadline:
			t.Fatalf("future seq %d unresolved while the automatic checkpoint is held in Create", f.Seq())
		}
	}
	put := make(chan error, 1)
	go func() {
		_, err := d.Put(3, 30)
		put <- err
	}()
	select {
	case err := <-put:
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
	case <-deadline:
		t.Fatal("Put did not return while the automatic checkpoint is held in Create")
	}

	fs.release()
	d.settleCheckpoints()
	if err := d.Err(); err != nil {
		t.Fatalf("automatic checkpoint failed after release: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2, err := openDurCfg(NewMemFSFrom(fs.DurableState()), 2, DurableConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery(); rec.ChainFiles != 1 {
		t.Fatalf("recovery %+v, want the automatic checkpoint as its one chain file", rec)
	}
	v, _ := d2.Snapshot()
	got := map[uint64]int64{}
	v.ForEach(func(k uint64, w int64) bool { got[k] = w; return true })
	if v.Seq() != 3 || !maps.Equal(got, oracle) {
		t.Fatalf("recovered seq %d %v, want 3 %v", v.Seq(), got, oracle)
	}
}

// TestDurableAutoCheckpointCrashBeforePublish crashes both flavours
// between an automatic checkpoint's WAL rotation and its publish: the
// checkpoint is held at its rename, more batches are acknowledged into
// the new WAL generation, and the crash image is taken with the rename
// still pending (unsynced tails torn at random). Recovery must cover
// every acknowledged batch from the old chain plus both generations,
// equal the oracle, and sweep the unpublished ckpt.tmp.
func TestDurableAutoCheckpointCrashBeforePublish(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := newGateFS(true)
			fs.SetKillPoint(math.MaxInt64, rand.New(rand.NewSource(3)))
			d, err := fl.open(fs, 2, DurableConfig{CheckpointEvery: 4})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer d.Close()
			defer fs.release()
			oracle := map[uint64]int64{}
			put := func(i uint64) {
				if _, err := d.put(i, int64(i+1)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				oracle[i] = int64(i + 1)
			}
			for i := uint64(0); i < 4; i++ {
				put(i)
			}
			fs.waitHeld(t)
			for i := uint64(4); i < 7; i++ {
				put(i) // below the next signal at batch 8
			}
			state := fs.DurableState()
			if _, ok := state[ckptTmpName]; !ok {
				t.Fatalf("crash image lacks %s: %v", ckptTmpName, slices.Sorted(maps.Keys(state)))
			}
			if _, ok := state[walName(1)]; !ok {
				t.Fatalf("crash image lacks the rotated generation %s", walName(1))
			}

			fs2 := NewMemFSFrom(state)
			d2, err := fl.open(fs2, 2, DurableConfig{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer d2.Close()
			if rec := d2.Recovery(); rec.ChainFiles != 0 || rec.WALBatches != 7 {
				t.Fatalf("recovery %+v, want no chain file and 7 WAL batches", rec)
			}
			seq, got := d2.contents()
			if seq != 7 || !maps.Equal(got, oracle) {
				t.Fatalf("recovered seq %d %v, want 7 %v", seq, got, oracle)
			}
			assertNoTmpFiles(t, fs2)

			fs.release()
			d.settleCheckpoints()
			if err := d.Err(); err != nil {
				t.Fatalf("automatic checkpoint failed after release: %v", err)
			}
		})
	}
}

// TestDurableAutoCheckpointFailureSticky fails every Create of the
// checkpoint scratch file on both flavours: writes still resolve with
// a nil Ack.Err (their batches are durable in the WAL), Err reports the
// injected error and keeps it — through later failures and after the
// fault clears — and an explicit Checkpoint returns it while it lasts.
func TestDurableAutoCheckpointFailureSticky(t *testing.T) {
	for _, fl := range durableFlavours {
		t.Run(fl.name, func(t *testing.T) {
			fs := newGateFS(false)
			fs.failing.Store(true)
			d, err := fl.open(fs, 2, DurableConfig{CheckpointEvery: 2})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer d.Close()
			oracle := map[uint64]int64{}
			put := func(i uint64) {
				if _, err := d.put(i, int64(i+1)); err != nil {
					t.Fatalf("put %d: Ack.Err %v", i, err)
				}
				oracle[i] = int64(i + 1)
			}
			for i := uint64(0); i < 4; i++ {
				put(i)
			}
			d.settleCheckpoints()
			if err := d.Err(); !errors.Is(err, errInjected) {
				t.Fatalf("Err() = %v, want the injected error", err)
			}
			if _, err := d.Checkpoint(); !errors.Is(err, errInjected) {
				t.Fatalf("Checkpoint() = %v, want the injected error", err)
			}
			fs.failing.Store(false)
			fs.release()
			for i := uint64(4); i < 8; i++ {
				put(i)
			}
			d.settleCheckpoints()
			if err := d.Err(); !errors.Is(err, errInjected) {
				t.Fatalf("Err() = %v after the fault cleared, want the injected error kept", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			d2, err := fl.open(NewMemFSFrom(fs.DurableState()), 2, DurableConfig{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			seq, got := d2.contents()
			if seq != 8 || !maps.Equal(got, oracle) {
				t.Fatalf("recovered seq %d %v, want 8 %v", seq, got, oracle)
			}
		})
	}
}
