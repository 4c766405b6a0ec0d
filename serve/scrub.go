package serve

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"time"
)

// Background scrubbing: a store-agnostic loop that periodically re-reads
// and verifies every sealed durable file, quarantines corrupt ones, and
// triggers a repair (compaction of the live state into a fresh base).
// The durable core both durable stores embed plugs in through
// scrubHooks; the scrubber itself only paces passes and keeps counters.

// ScrubStats reports a background scrubber's lifetime counters.
type ScrubStats struct {
	// Passes is the number of completed verification passes.
	Passes int
	// FilesChecked and BytesChecked total the files and bytes verified
	// across all passes.
	FilesChecked int
	BytesChecked int64
	// CorruptFound counts corrupt files detected (before repair).
	CorruptFound int
	// Quarantined counts files renamed aside with the .quarantine
	// suffix.
	Quarantined int
	// Repairs counts successful repairs: a fresh base checkpoint written
	// from the live state after quarantining.
	Repairs int
}

// scrubHooks is what a store gives its scrubber.
type scrubHooks struct {
	// epoch returns a counter bumped whenever the file set changes
	// (checkpoint, compaction, quarantine); a pass whose epoch moved
	// discards its verdicts instead of acting on stale reads.
	epoch func() uint64
	// verify runs one check-only pass and returns the corrupt file
	// names plus the files and bytes it read.
	verify func() (corrupt []string, files, bytes int, err error)
	// repair quarantines the given files and rewrites a fresh base
	// checkpoint from the live state.
	repair func(corrupt []string) error
	// onErr records a background error (the store's sticky Err).
	onErr func(error)
}

type scrubber struct {
	every time.Duration
	h     scrubHooks

	mu    sync.Mutex
	stats ScrubStats

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startScrubber launches the background loop; Stop joins it.
func startScrubber(every time.Duration, h scrubHooks) *scrubber {
	sc := &scrubber{every: every, h: h, stop: make(chan struct{}), done: make(chan struct{})}
	go sc.run()
	return sc
}

func (sc *scrubber) run() {
	defer close(sc.done)
	for {
		select {
		case <-sc.stop:
			return
		case <-time.After(sc.every):
		}
		sc.pass()
	}
}

// pass runs one verify-and-repair cycle.
func (sc *scrubber) pass() {
	e := sc.h.epoch()
	corrupt, files, bytes, err := sc.h.verify()
	sc.mu.Lock()
	sc.stats.Passes++
	sc.stats.FilesChecked += files
	sc.stats.BytesChecked += int64(bytes)
	sc.mu.Unlock()
	if err != nil {
		sc.h.onErr(err)
		return
	}
	// Act only if the file set is still the one we verified: a
	// checkpoint or compaction mid-pass may have retired the files the
	// verdicts are about (they will be re-verified next pass if not).
	if len(corrupt) > 0 && sc.h.epoch() == e {
		sc.mu.Lock()
		sc.stats.CorruptFound += len(corrupt)
		sc.mu.Unlock()
		if rerr := sc.h.repair(corrupt); rerr != nil {
			sc.h.onErr(rerr)
		} else {
			sc.mu.Lock()
			sc.stats.Quarantined += len(corrupt)
			sc.stats.Repairs++
			sc.mu.Unlock()
		}
	}
}

// Stats samples the lifetime counters.
func (sc *scrubber) Stats() ScrubStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stats
}

// Stop terminates the loop and joins the goroutine; safe to call more
// than once.
func (sc *scrubber) Stop() {
	sc.once.Do(func() { close(sc.stop) })
	<-sc.done
}

// VerifyReport summarizes a VerifyFiles pass.
type VerifyReport struct {
	// Files and Bytes total what was checked.
	Files int
	Bytes int64
	// Corrupt lists files failing the structural checks.
	Corrupt []string
}

// VerifyFiles runs the codec-independent integrity checks over a durable
// store's directory: checkpoint magic, CRC, header framing, and chain
// continuity (each file's firstID must continue the previous file's
// records, restarting at each base); point-store checkpoint CRC and
// whole-file digest; WAL record framing (crash debris — a torn frame,
// or zeroed unwritten space — is tolerated only at the end of the
// newest generation, where a crash legitimately leaves it).
// It reads but never modifies files, and needs no key/value codec — it
// cannot verify Merkle record digests (DurableStore.Verify does), but
// any structural or checksum damage is reported. cmd/pamverify is its
// command-line front end.
func VerifyFiles(fsys FS) (VerifyReport, error) {
	names, err := fsys.List()
	if err != nil {
		return VerifyReport{}, err
	}
	ckpts, walGens := parseDurableDir(names)
	var rep VerifyReport
	var nextID uint64
	haveChain := false
	for _, idx := range ckpts {
		data, err := fsys.ReadFile(ckptName(idx))
		if err != nil {
			continue
		}
		rep.Files++
		rep.Bytes += int64(len(data))
		if !verifyCkptStructure(data, &nextID, &haveChain) {
			rep.Corrupt = append(rep.Corrupt, ckptName(idx))
		}
	}
	for i, g := range walGens {
		data, err := fsys.ReadFile(walName(g))
		if err != nil {
			continue
		}
		rep.Files++
		rep.Bytes += int64(len(data))
		if !verifyWALFraming(data, i == len(walGens)-1) {
			rep.Corrupt = append(rep.Corrupt, walName(g))
		}
	}
	return rep, nil
}

// verifyCkptStructure checks one checkpoint file without a codec:
// magic, CRC, header framing, and (for chain files) firstID continuity.
// nextID/haveChain carry the chain state across files; a corrupt file
// resets it so later files aren't blamed for the hole.
func verifyCkptStructure(data []byte, nextID *uint64, haveChain *bool) bool {
	if len(data) >= len(ptCkptMagic) && string(data[:len(ptCkptMagic)]) == ptCkptMagic {
		_, err := ptCkptBody(data)
		return err == nil
	}
	hdr, _, ok := ckptHeaderFull(data)
	if !ok || len(data) < len(ckptMagic)+4 {
		*haveChain = false
		return false
	}
	body := data[: len(data)-4 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		*haveChain = false
		return false
	}
	firstID, nRecs := hdr[2], hdr[3]
	if firstID == 1 {
		*haveChain = true
		*nextID = 1
	}
	if !*haveChain || firstID != *nextID {
		*haveChain = false
		return false
	}
	*nextID = firstID + nRecs
	return true
}

// verifyWALFraming checks that data is a sequence of complete,
// checksummed WAL records; when allowTorn, trailing crash debris (see
// walDebris) is accepted (the newest generation after a crash without
// recovery).
func verifyWALFraming(data []byte, allowTorn bool) bool {
	for valid := 0; valid < len(data); {
		payload, ok := walFrame(data[valid:])
		if !ok {
			return allowTorn && walDebris(data[valid:])
		}
		valid += 8 + len(payload)
	}
	return true
}
