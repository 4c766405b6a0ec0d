package pam

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// Structure-sharing-aware serialization (see internal/core/encode.go
// for the wire format). Each leaf block is one contiguous record;
// interior nodes reference children by record id; a RecordSet carried
// across checkpoints makes encoding incremental — only nodes created
// since the previous checkpoint are written. Augmented values are
// recomputed on decode, never stored.

// Codec supplies the byte encoding of a map's key and value types. See
// Uint64Codec for a ready-made instance and a template.
type Codec[K, V any] = core.Codec[K, V]

// RecordSet tracks which nodes already have on-disk records across a
// chain of incremental checkpoints (it keeps those nodes reachable).
type RecordSet[K, V, A any] = core.RecordSet[K, V, A]

// Digest is a record's Merkle content hash (sha256); equal subtrees
// have equal digests regardless of where in a checkpoint chain they
// were encoded, so root digests make snapshots tamper-evident and
// cheaply diffable. The zero Digest is the digest of the empty map.
type Digest = core.Digest

// NewRecordSet returns an empty record set.
func NewRecordSet[K, V, A any]() *RecordSet[K, V, A] {
	return core.NewRecordSet[K, V, A]()
}

// EncodeDelta appends records for every node of m not yet in rs to buf
// and returns the extended buf, m's root record id (0 when empty), and
// the number of new records written. Nodes shared with previously
// encoded maps are referenced by id, not rewritten.
func (m AugMap[K, V, A, E]) EncodeDelta(rs *RecordSet[K, V, A], c *Codec[K, V], buf []byte) ([]byte, uint64, int) {
	return core.EncodeDelta(m.t, rs, c, buf)
}

// RootDigest returns the Merkle digest of m's root record once m has
// been encoded against rs (ok == false if it never was; an empty map
// has the zero digest).
func (m AugMap[K, V, A, E]) RootDigest(rs *RecordSet[K, V, A]) (Digest, bool) {
	return core.RootDigest(m.t, rs)
}

// RecordCount returns the number of records a from-scratch encode of m
// would emit (leaf blocks plus interior nodes) — the live-record count
// the compaction dead-ratio policy compares against the on-disk chain.
func (m AugMap[K, V, A, E]) RecordCount() int {
	return core.RecordCount(m.t)
}

// DecodeTable accumulates decoded records across the files of an
// incremental checkpoint chain; maps taken from it share decoded nodes
// exactly as the encoded maps shared them.
type DecodeTable[K, V, A any, E Aug[K, V, A]] struct {
	tb *core.DecodeTable[K, V, A, E]
}

// NewDecodeTable returns an empty table decoding into maps with the
// given options (Scheme and Block must match the encoder's).
func NewDecodeTable[K, V, A any, E Aug[K, V, A]](opts Options) *DecodeTable[K, V, A, E] {
	return &DecodeTable[K, V, A, E]{tb: core.NewDecodeTable[K, V, A, E](opts.coreConfig())}
}

// NextID returns the id the next decoded record will receive; callers
// check it against a file's first-id header to detect a broken chain.
func (tb *DecodeTable[K, V, A, E]) NextID() uint64 { return tb.tb.NextID() }

// DecodeRecords decodes exactly n records from the front of data and
// returns the remaining bytes. Malformed input yields an error, never a
// panic; run Validate on recovered maps to reject crafted streams that
// decode but violate tree invariants.
func (tb *DecodeTable[K, V, A, E]) DecodeRecords(c *Codec[K, V], data []byte, n int) ([]byte, error) {
	return tb.tb.DecodeRecords(c, data, n)
}

// Map returns the map rooted at the given record id (0 for an empty
// map).
func (tb *DecodeTable[K, V, A, E]) Map(id uint64) (AugMap[K, V, A, E], error) {
	t, err := tb.tb.Tree(id)
	return wrap(t), err
}

// RecordSet converts the table into the encoder-side record set, so a
// recovered process continues the incremental checkpoint chain where
// the decoded files left it.
func (tb *DecodeTable[K, V, A, E]) RecordSet() *RecordSet[K, V, A] { return tb.tb.RecordSet() }

// Digest returns the Merkle digest of the record with the given id,
// recomputed bottom-up during decode; comparing it with a stored root
// digest detects any bit flip in the decoded records.
func (tb *DecodeTable[K, V, A, E]) Digest(id uint64) (Digest, error) { return tb.tb.Digest(id) }

// Uint64Codec returns a Codec for uint64 keys and int64 values (varint
// and zigzag-varint encoded), the instantiation used by the serve
// tests and examples.
func Uint64Codec() *Codec[uint64, int64] {
	return &Codec[uint64, int64]{
		AppendKey: func(buf []byte, k uint64) []byte { return binary.AppendUvarint(buf, k) },
		KeyAt:     UvarintAt,
		AppendVal: func(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) },
		ValAt:     VarintAt,
	}
}

// UvarintAt decodes a uvarint from the front of data (a ready-made
// Codec field for unsigned keys).
func UvarintAt(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, core.ErrCorrupt
	}
	return v, n, nil
}

// VarintAt decodes a zigzag varint from the front of data.
func VarintAt(data []byte) (int64, int, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, 0, core.ErrCorrupt
	}
	return v, n, nil
}

// Float64At decodes a little-endian float64 from the front of data.
func Float64At(data []byte) (float64, int, error) {
	if len(data) < 8 {
		return 0, 0, core.ErrCorrupt
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

// AppendFloat64 appends the little-endian encoding of f.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// ErrCorrupt is the generic malformed-stream error decoders return (and
// Codec implementations should return for truncated input).
var ErrCorrupt = core.ErrCorrupt

// Compressor supplies the integer key image and value byte codec of a
// compressed-leaf map (Options.Compress). KeyUint/KeyFromUint must be
// exact inverses — this is the integer-key requirement of compressed
// blocks: the key type needs a bijective uint64 image (the image order
// need not match the map order; deltas are taken modulo 2^64). ValAt
// must decode exactly what AppendVal appended and return an error,
// never panic, on malformed bytes.
type Compressor[K, V any] = core.Compressor[K, V]

// ErrNoCompressor reports a compressed checkpoint record decoded by a
// map family configured without Options.Compress (or vice versa).
var ErrNoCompressor = core.ErrNoCompressor

type uint64Compressor struct{}

func (uint64Compressor) KeyUint(k uint64) uint64     { return k }
func (uint64Compressor) KeyFromUint(u uint64) uint64 { return u }
func (uint64Compressor) AppendVal(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}
func (uint64Compressor) ValAt(data []byte) (int64, int, error) { return VarintAt(data) }

// CompressUint64 returns the Compressor for uint64 keys and int64
// values (zig-zag varint encoded) — the instantiation the serve layer's
// durable stores use, and the compressed counterpart of Uint64Codec.
func CompressUint64() Compressor[uint64, int64] { return uint64Compressor{} }

type intCompressor struct{}

func (intCompressor) KeyUint(k int) uint64     { return uint64(k) }
func (intCompressor) KeyFromUint(u uint64) int { return int(u) }
func (intCompressor) AppendVal(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}
func (intCompressor) ValAt(data []byte) (int64, int, error) { return VarintAt(data) }

// CompressInt returns the Compressor for int keys and int64 values.
// The two's-complement uint64 cast round-trips negative keys exactly
// (deltas are modular, so image wraparound is harmless).
func CompressInt() Compressor[int, int64] { return intCompressor{} }
