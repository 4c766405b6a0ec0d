package main

import (
	"strings"
	"sync"
	"time"

	"repro/serve"
)

// countingFS wraps a serve.FS and records what the durability layer does
// to it: bytes written per file kind, every Sync with its duration, and
// how long each checkpoint took from creating its tmp file to the rename
// that publishes it. The store code is unchanged; it sees only an FS.
type countingFS struct {
	serve.FS

	mu         sync.Mutex
	walBytes   int64
	ckptBytes  int64
	walSyncs   []time.Duration
	ckptSyncs  int
	ckptWrites []time.Duration
	ckptOpened time.Time
}

// fsCounts is a point-in-time copy of the counters; sub gives the activity
// between two copies.
type fsCounts struct {
	walBytes, ckptBytes int64
	walSyncs            []time.Duration
	ckptSyncs           int
	ckptWrites          []time.Duration
}

// isWAL reports whether name is a WAL generation or its tmp scratch file;
// everything else the stores write is checkpoint data.
func isWAL(name string) bool { return strings.HasPrefix(name, "wal") }

// ckptTmp is the scratch name both durable stores write a checkpoint to
// before renaming it into place.
const ckptTmp = "ckpt.tmp"

func (c *countingFS) Create(name string) (serve.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if name == ckptTmp {
		c.mu.Lock()
		c.ckptOpened = time.Now()
		c.mu.Unlock()
	}
	return &countedFile{File: f, fs: c, wal: isWAL(name)}, nil
}

func (c *countingFS) Append(name string) (serve.File, error) {
	f, err := c.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, fs: c, wal: isWAL(name)}, nil
}

func (c *countingFS) Rename(oldname, newname string) error {
	err := c.FS.Rename(oldname, newname)
	if err == nil && oldname == ckptTmp {
		c.mu.Lock()
		if !c.ckptOpened.IsZero() {
			c.ckptWrites = append(c.ckptWrites, time.Since(c.ckptOpened))
			c.ckptOpened = time.Time{}
		}
		c.mu.Unlock()
	}
	return err
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{
		walBytes:   c.walBytes,
		ckptBytes:  c.ckptBytes,
		walSyncs:   append([]time.Duration(nil), c.walSyncs...),
		ckptSyncs:  c.ckptSyncs,
		ckptWrites: append([]time.Duration(nil), c.ckptWrites...),
	}
}

// sub returns the activity recorded after the earlier copy was taken.
func (a fsCounts) sub(earlier fsCounts) fsCounts {
	return fsCounts{
		walBytes:   a.walBytes - earlier.walBytes,
		ckptBytes:  a.ckptBytes - earlier.ckptBytes,
		walSyncs:   a.walSyncs[len(earlier.walSyncs):],
		ckptSyncs:  a.ckptSyncs - earlier.ckptSyncs,
		ckptWrites: a.ckptWrites[len(earlier.ckptWrites):],
	}
}

type countedFile struct {
	serve.File
	fs  *countingFS
	wal bool
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	if f.wal {
		f.fs.walBytes += int64(n)
	} else {
		f.fs.ckptBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	if f.wal {
		f.fs.walSyncs = append(f.fs.walSyncs, d)
	} else {
		f.fs.ckptSyncs++
	}
	f.fs.mu.Unlock()
	return err
}
