package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Write-ahead log at sequencer granularity. Every acknowledged batch is
// one WAL record carrying its global sequence number; records are
// appended under the sequencer lock (so WAL order is exactly sequence
// order, making durability prefix-closed) into an in-memory pending
// buffer, and made durable by group commit: the first Sync caller
// flushes and fsyncs everything pending — including records appended by
// batches that arrived after it — and later callers ride the same
// fsync. A batch is acknowledged only after its record is durable.
//
// Record framing:
//
//	u32le payloadLen | u32le crc32(payload) | payload
//	payload: uvarint seq | uvarint nOps | ops (codec-encoded)
//
// The log is split into generation files (wal-%06d): a checkpoint
// rotates to the next generation at its exact snapshot point, so
// generation g holds precisely the batches sequenced after checkpoint g
// and before checkpoint g+1. Generations are flushed strictly in order
// — generation g is fully written, fsynced, and closed before any byte
// of g+1 reaches the filesystem — so a record's durability implies the
// durability of every earlier record across files, and only the newest
// generation can end in crash debris (walDebris), which holds no
// acknowledged batch.

// opCodec encodes and decodes one op type for WAL records.
type opCodec[O any] struct {
	append func(buf []byte, op O) []byte
	at     func(data []byte) (O, int, error)
}

func walName(gen int) string { return fmt.Sprintf("wal-%06d", gen) }

// walChunk is a run of encoded records belonging to one generation.
type walChunk struct {
	gen  int
	data []byte
}

type wal[O any] struct {
	fs  FS
	enc opCodec[O]

	// mu is the inner lock guarding the pending buffer; appendLocked
	// takes it under the engine's sequencer lock (e.mu > w.mu).
	mu      sync.Mutex
	pending []walChunk
	gen     int    // generation new records append to
	next    uint64 // seq after the last appended record
	err     error  // sticky: set on the first filesystem failure

	// durable is 1 + the highest sequence number known durable (i.e.
	// the length of the durable batch prefix).
	durable atomic.Uint64

	// flushMu serializes flushers; all filesystem I/O happens under it.
	flushMu sync.Mutex
	f       File // open file of generation fGen, nil before first flush
	fGen    int
}

// newWAL returns a log appending to the given generation, with every
// sequence number below startSeq already durable (the recovered state).
func newWAL[O any](fs FS, enc opCodec[O], gen int, startSeq uint64) *wal[O] {
	w := &wal[O]{fs: fs, enc: enc, gen: gen, next: startSeq}
	w.durable.Store(startSeq)
	return w
}

// appendLocked encodes one batch record into the pending buffer. It is
// the engine's logAppend hook, called under the sequencer lock in
// sequence order.
func (w *wal[O]) appendLocked(seq uint64, ops []O) {
	payload := binary.AppendUvarint(nil, seq)
	payload = binary.AppendUvarint(payload, uint64(len(ops)))
	for _, op := range ops {
		payload = w.enc.append(payload, op)
	}
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)

	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.pending); n > 0 && w.pending[n-1].gen == w.gen {
		w.pending[n-1].data = append(w.pending[n-1].data, rec...)
	} else {
		w.pending = append(w.pending, walChunk{gen: w.gen, data: rec})
	}
	w.next = seq + 1
}

// rotateLocked moves subsequent records to the next generation file.
// Called under the sequencer lock at a snapshot point, it splits the
// log exactly at the checkpoint's sequence number. It returns the new
// generation (the index of the checkpoint being taken).
func (w *wal[O]) rotateLocked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen++
	return w.gen
}

// Sync blocks until the record for seq is durable (group commit) and
// returns the sticky error if the log has failed: a nil return is the
// durability acknowledgment.
func (w *wal[O]) Sync(seq uint64) error {
	for {
		if w.durable.Load() > seq {
			return nil
		}
		if err := w.flushOnce(); err != nil {
			return err
		}
	}
}

// flushOnce steals the whole pending buffer and writes it out, fsyncing
// (and switching) generation files in order. One call makes durable
// every record appended before it started.
func (w *wal[O]) flushOnce() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	chunks := w.pending
	target := w.next
	err := w.err
	w.pending = nil
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if len(chunks) == 0 {
		return nil
	}
	for _, c := range chunks {
		if w.f == nil || w.fGen != c.gen {
			if w.f != nil {
				if err := w.f.Sync(); err != nil {
					return w.fail(err)
				}
				if err := w.f.Close(); err != nil {
					return w.fail(err)
				}
				w.f = nil
			}
			f, err := w.fs.Append(walName(c.gen))
			if err != nil {
				return w.fail(err)
			}
			w.f, w.fGen = f, c.gen
		}
		if _, err := w.f.Write(c.data); err != nil {
			return w.fail(err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.durable.Store(target)
	return nil
}

// sealedBelow returns the bound g such that every generation file below
// g is sealed: fully written, fsynced, and closed, never to be appended
// again. Only sealed generations are safe for the scrubber to verify —
// the open generation legitimately ends in unflushed or unsynced bytes.
func (w *wal[O]) sealedBelow() int {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if w.f != nil {
		return w.fGen
	}
	// No file open yet: nothing in the current generation has been
	// flushed, but pending chunks may still target older generations.
	w.mu.Lock()
	defer w.mu.Unlock()
	g := w.gen
	for _, c := range w.pending {
		if c.gen < g {
			g = c.gen
		}
	}
	return g
}

// fail records the first filesystem error; every later Sync returns it
// and no batch is acknowledged again.
func (w *wal[O]) fail(err error) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	err = w.err
	w.mu.Unlock()
	return err
}

// Close flushes whatever is pending and closes the current file, also
// when the flush or an earlier one failed, and returns the first error.
func (w *wal[O]) Close() error {
	w.mu.Lock()
	last := w.next
	w.mu.Unlock()
	var err error
	if last > 0 {
		err = w.Sync(last - 1)
	} else {
		err = w.flushOnce()
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// walBatch is one decoded WAL record.
type walBatch[O any] struct {
	seq uint64
	ops []O
}

// decodeWALFile parses complete, checksummed records from the front of
// one generation file and returns them with the length of the valid
// prefix. Parsing stops at the first record that is torn, zeroed,
// fails its checksum, or does not decode; walDebris then tells crash
// debris from damage. Arbitrary bytes produce at worst fewer batches,
// never a panic or a corrupt batch (the CRC guards every accepted
// record).
func decodeWALFile[O any](enc opCodec[O], data []byte) ([]walBatch[O], int) {
	var out []walBatch[O]
	valid := 0
	for {
		payload, ok := walFrame(data[valid:])
		if !ok {
			return out, valid
		}
		b, err := decodeWALPayload(enc, payload)
		if err != nil {
			return out, valid
		}
		out = append(out, b)
		valid += 8 + len(payload)
	}
}

// walFrame returns the payload of the frame at the front of rest and
// whether that frame is complete, non-empty and matches its checksum.
func walFrame(rest []byte) ([]byte, bool) {
	if len(rest) < 8 {
		return nil, false
	}
	plen := binary.LittleEndian.Uint32(rest)
	if plen == 0 || uint64(len(rest)-8) < uint64(plen) {
		return nil, false
	}
	payload := rest[8 : 8+int(plen)]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(rest[4:])
}

// walDebris reports whether rest, the bytes of a WAL generation from
// some frame boundary on, begins with what a crash leaves behind rather
// than with a complete frame: nothing, an incomplete frame, or
// unwritten space, which starts with an all-zero header (the WAL never
// writes an empty payload). A torn write lands a prefix, never a
// complete frame with wrong bytes, so a complete frame that fails its
// checksum or does not decode is damage. Nor does a prefix hold a frame
// after an incomplete one: when a checksummed frame starts anywhere
// past the incomplete frame's header, its length field was damaged (a
// flipped high bit makes a frame claim more bytes than the file holds),
// and the acknowledged batches behind it must not be trimmed as debris.
// A damaged length in the last frame of the file still reads as a torn
// write: nothing follows it, and the header carries no check of its own.
func walDebris(rest []byte) bool {
	if len(rest) < 8 || binary.LittleEndian.Uint64(rest) == 0 {
		return true
	}
	if uint64(len(rest)-8) >= uint64(binary.LittleEndian.Uint32(rest)) {
		return false
	}
	for off := 8; off < len(rest); off++ {
		if _, ok := walFrame(rest[off:]); ok {
			return false
		}
	}
	return true
}

func decodeWALPayload[O any](enc opCodec[O], payload []byte) (walBatch[O], error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return walBatch[O]{}, ErrCorruptFile
	}
	payload = payload[n:]
	nOps, n := binary.Uvarint(payload)
	if n <= 0 {
		return walBatch[O]{}, ErrCorruptFile
	}
	payload = payload[n:]
	// An op encodes to at least one byte; a count beyond the remaining
	// bytes is corruption, not an allocation request.
	if nOps > uint64(len(payload)) {
		return walBatch[O]{}, ErrCorruptFile
	}
	ops := make([]O, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		op, n, err := enc.at(payload)
		if err != nil {
			return walBatch[O]{}, err
		}
		payload = payload[n:]
		ops = append(ops, op)
	}
	if len(payload) != 0 {
		return walBatch[O]{}, ErrCorruptFile
	}
	return walBatch[O]{seq: seq, ops: ops}, nil
}
