package serve

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed is returned by every operation of a failpoint filesystem
// once its kill point has fired: the simulated process is dead, and
// only the durable state (MemFS.DurableState) survives.
var ErrCrashed = errors.New("serve: filesystem crashed (failpoint)")

// FS is the filesystem surface the durability layer writes through — a
// flat namespace of files with the exact primitives the WAL and
// checkpoint protocols need. OSFS backs it with a directory; MemFS is
// the in-memory failpoint implementation the crash–recovery harness
// injects faults through.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it when absent.
	Append(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file: after a
	// crash, a reader sees the old file or the new one, never a mix.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// List returns the sorted names of all files.
	List() ([]string, error)
}

// File is an open writable file.
type File interface {
	Write(p []byte) (int, error)
	// Sync makes every byte written so far durable: it survives a crash.
	Sync() error
	Close() error
}

// OSFS implements FS on a directory of the real filesystem. Rename and
// Append fsync the directory before they return: fsync(2) on a file
// does not make its directory entry durable, so without it a crash
// could drop a published checkpoint or a new WAL generation. Create
// does not: the checkpoint protocol publishes every created file by
// Rename.
type OSFS struct {
	// Dir is the directory holding the files; it must exist.
	Dir string
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable. Tests replace it to observe or fail the sync.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (o OSFS) path(name string) string { return filepath.Join(o.Dir, name) }

func (o OSFS) Create(name string) (File, error) { return os.Create(o.path(name)) }

func (o OSFS) Append(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(o.Dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (o OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(o.path(name)) }

func (o OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(o.path(oldname), o.path(newname)); err != nil {
		return err
	}
	return syncDir(o.Dir)
}

func (o OSFS) Remove(name string) error { return os.Remove(o.path(name)) }

func (o OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MemFS is an in-memory FS with failpoint injection, the fault model of
// the crash–recovery harness. Arm a kill point with SetKillPoint: after
// the given number of mutating operations, the filesystem "crashes" —
// the tripping write may tear (a random prefix of its bytes lands), and
// every operation from then on returns ErrCrashed. DurableState then
// reconstructs what a real disk would hold after the crash: for each
// file, the synced prefix plus a random (possibly empty, possibly torn
// mid-record) prefix of the unsynced tail. Renames, creates, and
// removes that succeeded are durable — the atomic-rename model the
// checkpoint protocol is built on.
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	rng     *rand.Rand
	budget  int64 // mutating ops until the crash; <0 = never
	crashed bool
}

type memFile struct {
	data   []byte
	synced int // length of the prefix known durable
}

// NewMemFS returns an empty in-memory filesystem with no kill point.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), budget: -1}
}

// NewMemFSFrom returns a filesystem holding the given files, all fully
// durable — the reincarnation step of the harness: pass a crashed
// filesystem's DurableState to get the disk the recovering process
// mounts.
func NewMemFSFrom(state map[string][]byte) *MemFS {
	m := NewMemFS()
	for name, data := range state {
		m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
	}
	return m
}

// SetKillPoint arms the failpoint: the filesystem crashes on the
// (ops+1)-th mutating operation from now (writes, syncs, creates,
// renames, removes each count as one). rng drives the torn-write and
// torn-tail randomness and must not be shared with other goroutines.
func (m *MemFS) SetKillPoint(ops int64, rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = ops
	m.rng = rng
}

// Crashed reports whether the kill point has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// charge books one mutating operation against the budget; it reports
// false when this operation is the one that crashes (or the filesystem
// is already dead).
func (m *MemFS) charge() bool {
	if m.crashed {
		return false
	}
	if m.budget < 0 {
		return true
	}
	if m.budget == 0 {
		m.crashed = true
		return false
	}
	m.budget--
	return true
}

// DurableState returns what survives the crash: per file, the synced
// prefix plus a random prefix of the unsynced tail (unsynced data may
// partially reach disk, in write order). Call it once, after the crash,
// to build the filesystem the recovery opens (NewMemFSFrom).
func (m *MemFS) DurableState() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for name, f := range m.files {
		keep := f.synced
		if tail := len(f.data) - f.synced; tail > 0 && m.rng != nil {
			keep += m.rng.Intn(tail + 1)
		} else {
			keep = len(f.data)
		}
		out[name] = append([]byte(nil), f.data[:keep]...)
	}
	return out
}

// CorruptFile flips one random bit of name's contents — media
// corruption, not process I/O, so it charges no kill-point budget and
// leaves the synced length untouched. It reports false if the file is
// missing or empty. The scrub/repair tests inject silent disk
// corruption with it.
func (m *MemFS) CorruptFile(name string, rng *rand.Rand) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok || len(f.data) == 0 {
		return false
	}
	bit := rng.Intn(len(f.data) * 8)
	f.data[bit/8] ^= 1 << (bit % 8)
	return true
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.charge() {
		return nil, ErrCrashed
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.charge() {
		return nil, ErrCrashed
	}
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.charge() {
		return ErrCrashed
	}
	f, ok := m.files[oldname]
	if !ok {
		return os.ErrNotExist
	}
	// Renaming publishes the file as-is: the checkpoint protocol syncs
	// before renaming, so a renamed file is fully durable.
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.charge() {
		return ErrCrashed
	}
	if _, ok := m.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok {
		return 0, os.ErrNotExist
	}
	if !h.fs.charge() {
		// Torn write: a random prefix of p lands before the crash.
		n := 0
		if h.fs.rng != nil {
			n = h.fs.rng.Intn(len(p) + 1)
		}
		f.data = append(f.data, p[:n]...)
		return 0, ErrCrashed
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.fs.charge() {
		return ErrCrashed
	}
	if f, ok := h.fs.files[h.name]; ok {
		f.synced = len(f.data)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}
