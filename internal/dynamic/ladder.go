package dynamic

import (
	"math"
	"math/bits"

	"repro/pam"
)

// Backend tells the generic ladder how to drive one consumer's static
// structure type S (for rangetree an outer map, for segcount and
// stabbing a composite of several maps). All functions must be
// stateless; per-instance configuration (pam.Options) travels in the
// prototype structure each Ladder carries.
type Backend[K, V, S any] struct {
	// Build constructs a static structure over items (distinct keys,
	// not necessarily sorted) with the prototype's options, in
	// parallel. proto's contents are ignored.
	Build func(proto S, items []pam.KV[K, V]) S
	// Entries materializes a structure's records in ascending key
	// order.
	Entries func(S) []pam.KV[K, V]
	// Size returns the record count of a structure.
	Size func(S) int64
	// Find looks a key up in a structure.
	Find func(S, K) (V, bool)
	// Less is the key order shared by the buffer, Entries, and Build.
	Less func(a, b K) bool
	// ValEq compares values for the annihilation debug check; nil skips
	// value checking (set structures).
	ValEq func(a, b V) bool
}

// Level is one immutable rung of the ladder: live entries and
// tombstones as two static structures of the consumer's type, plus
// their record counts (a zero structure has no options configured, so
// counts are tracked explicitly and consumers skip empty sides).
type Level[S any] struct {
	Adds, Dels   S
	AddsN, DelsN int64
}

// IsEmpty reports whether the level holds no records.
func (lv Level[S]) IsEmpty() bool { return lv.AddsN == 0 && lv.DelsN == 0 }

// Ladder is the logarithmic-method dynamization of one consumer
// structure: a constant-capacity write Buffer over O(log n) immutable
// levels of geometrically increasing capacity (level i holds at most
// (BufCap+1)<<i records). See the package comment for the design and the
// carry-propagation invariant.
//
// The zero value is an empty ladder whose levels build with default
// options; New configures a prototype. All methods are persistent: the
// level vector is copied on write and levels are immutable, so every
// old handle keeps answering from exactly the contents it had.
type Ladder[K, V, S any, E pam.Aug[K, V, struct{}]] struct {
	proto S
	buf   Buffer[K, V, E]
	// over holds spilled write-buffer runs whose carry into the levels
	// has been deferred (InsertDeferred/DeleteDeferred), oldest first.
	// Every run is newer than every level, and over[j] is newer than
	// over[i] for j > i, so queries treat the slice as extra top-of-
	// ladder levels visited newest first.
	over   []Level[S]
	levels []Level[S]
}

// New returns an empty ladder whose levels are built with the
// prototype's options.
func New[K, V, S any, E pam.Aug[K, V, struct{}]](proto S) Ladder[K, V, S, E] {
	return Ladder[K, V, S, E]{proto: proto}
}

// Proto returns the prototype structure (for consumers that need the
// configured options outside the ladder).
func (l Ladder[K, V, S, E]) Proto() S { return l.proto }

// Buf returns the write buffer, for the consumers' O(BufCap) query
// corrections.
func (l Ladder[K, V, S, E]) Buf() Buffer[K, V, E] { return l.buf }

// EachSide visits every nonempty level structure, newest first, with
// its sign: +1 for live entries, -1 for tombstones. Consumers sum
// signed per-structure query answers — each structure answers in its
// own polylog bound, and the ladder has O(log n) of them; signed
// summation cancels each tombstoned entry exactly.
func (l Ladder[K, V, S, E]) EachSide(f func(sign int64, s S)) {
	for i := len(l.over) - 1; i >= 0; i-- {
		if lv := l.over[i]; lv.AddsN > 0 {
			f(+1, lv.Adds)
		}
		if lv := l.over[i]; lv.DelsN > 0 {
			f(-1, lv.Dels)
		}
	}
	for _, lv := range l.levels {
		if lv.AddsN > 0 {
			f(+1, lv.Adds)
		}
		if lv.DelsN > 0 {
			f(-1, lv.Dels)
		}
	}
}

// Single returns the sole pure level structure when the ladder is
// fully condensed — empty write buffer, exactly one nonempty level,
// no tombstones — the state Build and Merge produce. Queries can take
// an allocation-light direct path over it instead of the signed
// multi-level aggregation.
func (l Ladder[K, V, S, E]) Single() (S, bool) {
	var zero S
	if !l.buf.IsEmpty() || len(l.over) > 0 {
		return zero, false
	}
	found := -1
	for i, lv := range l.levels {
		if lv.IsEmpty() {
			continue
		}
		if lv.DelsN > 0 || found >= 0 {
			return zero, false
		}
		found = i
	}
	if found < 0 {
		return zero, false
	}
	return l.levels[found].Adds, true
}

// LevelRecordCounts reports the per-level record counts (Adds + Dels),
// index 0 first — diagnostics for the geometric-growth tests.
func (l Ladder[K, V, S, E]) LevelRecordCounts() []int64 {
	out := make([]int64, len(l.levels))
	for i, lv := range l.levels {
		out[i] = lv.AddsN + lv.DelsN
	}
	return out
}

// Pending returns the number of buffered update records not yet
// flushed into the levels (always < BufCap after an update returns; 0
// after WithStatic, i.e. after the consumers' Build and Merge).
func (l Ladder[K, V, S, E]) Pending() int64 { return l.buf.Pending() }

// Size returns the number of logical entries.
func (l Ladder[K, V, S, E]) Size() int64 {
	var s int64
	for _, lv := range l.over {
		s += lv.AddsN - lv.DelsN
	}
	for _, lv := range l.levels {
		s += lv.AddsN - lv.DelsN
	}
	return l.buf.LogicalSize(s)
}

// records returns the total physical record count of the overflow runs
// and levels.
func (l Ladder[K, V, S, E]) records() int64 {
	var s int64
	for _, lv := range l.over {
		s += lv.AddsN + lv.DelsN
	}
	for _, lv := range l.levels {
		s += lv.AddsN + lv.DelsN
	}
	return s
}

// staticFind resolves k against the overflow runs and levels (ignoring
// the write buffer): the first (newest) structure holding any record
// for k decides — a live entry means present with that value, a
// tombstone means absent.
func (l Ladder[K, V, S, E]) staticFind(be *Backend[K, V, S], k K) (V, bool) {
	for i := len(l.over) - 1; i >= 0; i-- {
		if v, ok, decided := levelFind(be, l.over[i], k); decided {
			return v, ok
		}
	}
	for _, lv := range l.levels {
		if v, ok, decided := levelFind(be, lv, k); decided {
			return v, ok
		}
	}
	var zero V
	return zero, false
}

// levelFind resolves k against one level; decided reports whether the
// level held any record for k.
func levelFind[K, V, S any](be *Backend[K, V, S], lv Level[S], k K) (v V, ok, decided bool) {
	if lv.AddsN > 0 {
		if v, ok := be.Find(lv.Adds, k); ok {
			return v, true, true
		}
	}
	if lv.DelsN > 0 {
		if _, ok := be.Find(lv.Dels, k); ok {
			var zero V
			return zero, false, true
		}
	}
	var zero V
	return zero, false, false
}

// Find returns the logical value at k. O(log^2 n) worst case: the
// buffer lookup plus one lookup per level.
func (l Ladder[K, V, S, E]) Find(be *Backend[K, V, S], k K) (V, bool) {
	sv, ok := l.staticFind(be, k)
	return l.buf.Find(k, sv, ok)
}

// Contains reports whether k is logically present.
func (l Ladder[K, V, S, E]) Contains(be *Backend[K, V, S], k K) bool {
	_, ok := l.Find(be, k)
	return ok
}

// Insert returns the ladder with (k, v) inserted. When k is logically
// present and combine is non-nil the stored value becomes
// combine(current, v); with a nil combine v overwrites. Amortized
// O(polylog n): the record lands in the write buffer, whose flushes
// carry down the geometric levels.
func (l Ladder[K, V, S, E]) Insert(be *Backend[K, V, S], k K, v V, combine func(old, new V) V) Ladder[K, V, S, E] {
	sv, ok := l.staticFind(be, k)
	nl := l
	nl.buf = l.buf.Insert(k, v, sv, ok, combine)
	return nl.maybeFlush(be)
}

// Delete returns the ladder with k removed; deleting an absent key is
// a no-op. Amortized O(polylog n).
func (l Ladder[K, V, S, E]) Delete(be *Backend[K, V, S], k K) Ladder[K, V, S, E] {
	sv, ok := l.staticFind(be, k)
	nl := l
	nl.buf = l.buf.Delete(k, sv, ok)
	return nl.maybeFlush(be)
}

// fitLevel returns the smallest level index whose capacity cap<<i
// holds n records, for the active write-buffer capacity. Computed with
// bits.Len64 rather than by shifting cap upward: cap<<i wraps negative
// past i = 62 and a comparison loop against it never terminates for
// huge n.
func fitLevel(n int64) int {
	c := flushCap.Load()
	if n <= c {
		return 0
	}
	// Smallest i with c<<i >= n, i.e. with 2^i >= ceil(n/c).
	q := (n-1)/c + 1
	return bits.Len64(uint64(q - 1))
}

// levelCap returns level i's record capacity, saturating instead of
// wrapping for indices whose shifted capacity overflows int64.
func levelCap(i int) int64 {
	c := flushCap.Load() + 1
	if i >= 62 || c > math.MaxInt64>>i {
		return math.MaxInt64
	}
	return c << i
}

// WithStatic returns a ladder (with l's prototype) holding exactly the
// given pre-built structure and nothing else: one full level at the
// smallest fitting index, an empty buffer. It is how the consumers'
// Build and Merge produce fully condensed structures.
func (l Ladder[K, V, S, E]) WithStatic(be *Backend[K, V, S], s S) Ladder[K, V, S, E] {
	n := be.Size(s)
	if n == 0 {
		return Ladder[K, V, S, E]{proto: l.proto}
	}
	levels := make([]Level[S], fitLevel(n)+1)
	levels[len(levels)-1] = Level[S]{Adds: s, AddsN: n}
	return Ladder[K, V, S, E]{proto: l.proto, levels: levels}
}

// run is a merged, key-sorted batch of records in transit down the
// ladder: live entries and the tombstones whose targets are deeper.
type runRec[K, V any] struct {
	adds, dels []pam.KV[K, V]
}

func (r runRec[K, V]) size() int { return len(r.adds) + len(r.dels) }

// levelRun materializes a level's records.
func levelRun[K, V, S any](be *Backend[K, V, S], lv Level[S]) runRec[K, V] {
	var r runRec[K, V]
	if lv.AddsN > 0 {
		r.adds = be.Entries(lv.Adds)
	}
	if lv.DelsN > 0 {
		r.dels = be.Entries(lv.Dels)
	}
	return r
}

// bufRun materializes the write buffer's records.
func (l Ladder[K, V, S, E]) bufRun() runRec[K, V] {
	return runRec[K, V]{adds: l.buf.Adds.Entries(), dels: l.buf.Dels.Entries()}
}

// mergeRun merges a newer run over an older one, annihilating each
// newer tombstone against the older live entry it cancels. Both inputs
// are key-sorted with distinct keys; so is the result. Contiguity of
// the merged runs (the carry-propagation invariant) guarantees the
// surviving adds — and the surviving dels — are key-disjoint; a
// violation reports an error naming the bug.
func mergeRun[K, V, S any](be *Backend[K, V, S], newer, older runRec[K, V]) (runRec[K, V], error) {
	// Annihilate newer tombstones against older live entries.
	survDels, survAdds, err := annihilate(be, newer.dels, older.adds)
	if err != nil {
		return runRec[K, V]{}, err
	}
	adds, err := mergeDisjoint(be, newer.adds, survAdds, errDupLive)
	if err != nil {
		return runRec[K, V]{}, err
	}
	dels, err := mergeDisjoint(be, survDels, older.dels, errDupTombstone)
	if err != nil {
		return runRec[K, V]{}, err
	}
	return runRec[K, V]{adds: adds, dels: dels}, nil
}

// annihilate removes matching-key pairs from the two sorted slices:
// each tombstone in dels cancels the live entry of the same key in
// adds. It returns the surviving tombstones and surviving live
// entries.
func annihilate[K, V, S any](be *Backend[K, V, S], dels, adds []pam.KV[K, V]) (sd, sa []pam.KV[K, V], err error) {
	i, j := 0, 0
	for i < len(dels) && j < len(adds) {
		switch {
		case be.Less(dels[i].Key, adds[j].Key):
			sd = append(sd, dels[i])
			i++
		case be.Less(adds[j].Key, dels[i].Key):
			sa = append(sa, adds[j])
			j++
		default: // cancelled pair
			if be.ValEq != nil && !be.ValEq(dels[i].Val, adds[j].Val) {
				return nil, nil, errTombstoneValues
			}
			i++
			j++
		}
	}
	sd = append(sd, dels[i:]...)
	sa = append(sa, adds[j:]...)
	return sd, sa, nil
}

// mergeDisjoint merges two key-sorted, key-disjoint slices; a shared
// key reports dup.
func mergeDisjoint[K, V, S any](be *Backend[K, V, S], a, b []pam.KV[K, V], dup error) ([]pam.KV[K, V], error) {
	if len(a) == 0 {
		return b, nil
	}
	if len(b) == 0 {
		return a, nil
	}
	out := make([]pam.KV[K, V], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case be.Less(a[i].Key, b[j].Key):
			out = append(out, a[i])
			i++
		case be.Less(b[j].Key, a[i].Key):
			out = append(out, b[j])
			j++
		default:
			return nil, dup
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}

// maybeFlush flushes the write buffer once it reaches capacity.
func (l Ladder[K, V, S, E]) maybeFlush(be *Backend[K, V, S]) Ladder[K, V, S, E] {
	if l.buf.Pending() < flushCap.Load() {
		return l
	}
	return l.flush(be)
}

// flush empties the write buffer into the ladder with binary-counter
// carry-propagation: the buffered records (folded together with any
// pending overflow runs, newest first) become a run that merges with
// each occupied level in turn (annihilating cancelled pairs) and
// settles in the first empty level that can hold it. Mass cancellation
// can shrink or even empty the run — a delete-heavy batch erases whole
// levels without leaving residue. When tombstones and their cancelled
// targets come to dominate the physical records, the whole ladder is
// condensed into one level of pure live entries, keeping the level
// count O(log(live size)).
func (l Ladder[K, V, S, E]) flush(be *Backend[K, V, S]) Ladder[K, V, S, E] {
	run := l.bufRun()
	for i := len(l.over) - 1; i >= 0; i-- {
		merged, err := mergeRun(be, run, levelRun(be, l.over[i]))
		if err != nil {
			panic(err)
		}
		run = merged
	}
	nl := Ladder[K, V, S, E]{proto: l.proto, levels: settle(be, l.proto, run, l.levels)}
	// Dead-record bound: physical records exceed twice the live size
	// only when at least half the ladder is tombstones plus their
	// cancelled targets; condensing then is paid for by the deletes
	// that created them.
	if live := nl.Size(); nl.records() > 2*live && nl.records() > 4*flushCap.Load() {
		return nl.condense(be)
	}
	return nl
}

// settle carries a run down a level vector: while a level is occupied
// it merges into the run; the run settles in the first empty level
// large enough to hold it. A single-buffer run always fits the first
// empty level (the prefix sum (cap+1)·2^i bounds it), but a coalesced
// multi-run carry can overflow it, in which case the carry keeps
// descending — merging any occupied levels it passes — until a fitting
// slot appears. The input vector is not mutated.
func settle[K, V, S any](be *Backend[K, V, S], proto S, run runRec[K, V], levels []Level[S]) []Level[S] {
	out := append([]Level[S](nil), levels...)
	i := 0
	for {
		if i < len(out) && !out[i].IsEmpty() {
			merged, err := mergeRun(be, run, levelRun(be, out[i]))
			if err != nil {
				panic(err)
			}
			run = merged
			out[i] = Level[S]{}
			i++
			continue
		}
		// Empty (or past-the-end) slot: stop at the first one with
		// capacity for the run — past the end included, since a coalesced
		// carry can outgrow even the level just beyond the old vector.
		if int64(run.size()) <= levelCap(i) {
			break
		}
		i++
	}
	if run.size() > 0 {
		lv := buildLevel(be, proto, run)
		for len(out) <= i {
			out = append(out, Level[S]{})
		}
		out[i] = lv
	}
	return out
}

// InsertDeferred is Insert for carrier-managed ladders: when the write
// buffer fills it spills to a pending overflow run — a cheap O(cap)
// build — instead of carrying down the levels synchronously. The carry
// is performed later, off the updating goroutine, by carryInto (see
// Carrier) or synchronously by CarryAll. Queries remain exact
// meanwhile: overflow runs are consulted like extra newest levels.
func (l Ladder[K, V, S, E]) InsertDeferred(be *Backend[K, V, S], k K, v V, combine func(old, new V) V) Ladder[K, V, S, E] {
	sv, ok := l.staticFind(be, k)
	nl := l
	nl.buf = l.buf.Insert(k, v, sv, ok, combine)
	return nl.maybeSpill(be)
}

// DeleteDeferred is Delete for carrier-managed ladders; see
// InsertDeferred.
func (l Ladder[K, V, S, E]) DeleteDeferred(be *Backend[K, V, S], k K) Ladder[K, V, S, E] {
	sv, ok := l.staticFind(be, k)
	nl := l
	nl.buf = l.buf.Delete(k, sv, ok)
	return nl.maybeSpill(be)
}

// maybeSpill converts a full write buffer into a pending overflow run.
func (l Ladder[K, V, S, E]) maybeSpill(be *Backend[K, V, S]) Ladder[K, V, S, E] {
	if l.buf.Pending() < flushCap.Load() {
		return l
	}
	lv := buildLevel(be, l.proto, l.bufRun())
	nl := Ladder[K, V, S, E]{proto: l.proto, levels: l.levels}
	nl.over = append(append(make([]Level[S], 0, len(l.over)+1), l.over...), lv)
	return nl
}

// OverflowRuns reports the number of spilled runs whose carry into the
// levels is still pending.
func (l Ladder[K, V, S, E]) OverflowRuns() int { return len(l.over) }

// CarryAll synchronously folds every pending overflow run into the
// levels (the write buffer stays buffered), returning a ladder with no
// pending carries. Carriers use it to quiesce.
func (l Ladder[K, V, S, E]) CarryAll(be *Backend[K, V, S]) Ladder[K, V, S, E] {
	if len(l.over) == 0 {
		return l
	}
	return Ladder[K, V, S, E]{proto: l.proto, buf: l.buf, levels: carryInto(be, l.proto, l.over, l.levels)}
}

// captureCarry returns copies of the pending overflow runs (oldest
// first) and the level vector — the immutable inputs of a background
// carryInto.
func (l Ladder[K, V, S, E]) captureCarry() (runs, levels []Level[S]) {
	return append([]Level[S](nil), l.over...), append([]Level[S](nil), l.levels...)
}

// withCarry installs a finished carry: the consumed oldest overflow
// runs are dropped and the level vector is replaced. Runs spilled after
// the capture stay pending — they are newer than every record in the
// new levels, so the age ordering is preserved.
func (l Ladder[K, V, S, E]) withCarry(consumed int, levels []Level[S]) Ladder[K, V, S, E] {
	nl := Ladder[K, V, S, E]{proto: l.proto, buf: l.buf, levels: levels}
	if rest := l.over[consumed:]; len(rest) > 0 {
		nl.over = append([]Level[S](nil), rest...)
	}
	return nl
}

// carryInto is the background half of a deferred carry: it folds the
// captured overflow runs (oldest first, as stored) newest-first into a
// single run, settles it into the captured level vector, and condenses
// when dead records dominate. It is a pure function of immutable
// persistent values, so it can run on any goroutine while the owner
// keeps updating its ladder.
func carryInto[K, V, S any](be *Backend[K, V, S], proto S, runs, levels []Level[S]) []Level[S] {
	run := levelRun(be, runs[len(runs)-1])
	for i := len(runs) - 2; i >= 0; i-- {
		merged, err := mergeRun(be, run, levelRun(be, runs[i]))
		if err != nil {
			panic(err)
		}
		run = merged
	}
	out := settle(be, proto, run, levels)
	var live, recs int64
	for _, lv := range out {
		live += lv.AddsN - lv.DelsN
		recs += lv.AddsN + lv.DelsN
	}
	if recs > 2*live && recs > 4*flushCap.Load() {
		out = condenseLevels(be, proto, out)
	}
	return out
}

// condenseLevels cascades a closed level vector — every tombstone's
// target inside it — into a single level of pure live entries.
func condenseLevels[K, V, S any](be *Backend[K, V, S], proto S, levels []Level[S]) []Level[S] {
	var run runRec[K, V]
	for _, lv := range levels {
		if lv.IsEmpty() {
			continue
		}
		merged, err := mergeRun(be, run, levelRun(be, lv))
		if err != nil {
			panic(err)
		}
		run = merged
	}
	if len(run.dels) > 0 {
		panic(errOrphanTombstone)
	}
	if len(run.adds) == 0 {
		return nil
	}
	out := make([]Level[S], fitLevel(int64(len(run.adds)))+1)
	out[len(out)-1] = buildLevel(be, proto, run)
	return out
}

// buildLevel builds one immutable level from a run via the consumer's
// parallel Build.
func buildLevel[K, V, S any](be *Backend[K, V, S], proto S, run runRec[K, V]) Level[S] {
	var lv Level[S]
	if len(run.adds) > 0 {
		lv.Adds = be.Build(proto, run.adds)
		lv.AddsN = int64(len(run.adds))
	}
	if len(run.dels) > 0 {
		lv.Dels = be.Build(proto, run.dels)
		lv.DelsN = int64(len(run.dels))
	}
	return lv
}

// cascade folds the write buffer, every pending overflow run, and
// every level, newest first, into a single fully-annihilated run.
// After a full cascade every tombstone has met its target; a leftover
// one reports errOrphanTombstone.
func (l Ladder[K, V, S, E]) cascade(be *Backend[K, V, S]) (runRec[K, V], error) {
	run := l.bufRun()
	for i := len(l.over) - 1; i >= 0; i-- {
		merged, err := mergeRun(be, run, levelRun(be, l.over[i]))
		if err != nil {
			return runRec[K, V]{}, err
		}
		run = merged
	}
	for _, lv := range l.levels {
		if lv.IsEmpty() {
			continue
		}
		merged, err := mergeRun(be, run, levelRun(be, lv))
		if err != nil {
			return runRec[K, V]{}, err
		}
		run = merged
	}
	if len(run.dels) > 0 {
		return runRec[K, V]{}, errOrphanTombstone
	}
	return run, nil
}

// Entries materializes the logical contents in ascending key order.
func (l Ladder[K, V, S, E]) Entries(be *Backend[K, V, S]) []pam.KV[K, V] {
	run, err := l.cascade(be)
	if err != nil {
		panic(err)
	}
	return run.adds
}

// Condense builds the logical contents into a single static structure
// — the consumers' Merge condenses both sides, unions them with the
// structure's own parallel union, and re-wraps with WithStatic.
func (l Ladder[K, V, S, E]) Condense(be *Backend[K, V, S]) S {
	// Fast path: already a single pure level with nothing buffered.
	if l.buf.IsEmpty() && len(l.over) == 0 {
		nonEmpty := -1
		pure := true
		for i, lv := range l.levels {
			if lv.IsEmpty() {
				continue
			}
			if nonEmpty >= 0 || lv.DelsN > 0 {
				pure = false
				break
			}
			nonEmpty = i
		}
		if pure {
			if nonEmpty < 0 {
				return be.Build(l.proto, nil)
			}
			return l.levels[nonEmpty].Adds
		}
	}
	return be.Build(l.proto, l.Entries(be))
}

// condense rebuilds the whole ladder as a single level of pure live
// entries at the smallest fitting index.
func (l Ladder[K, V, S, E]) condense(be *Backend[K, V, S]) Ladder[K, V, S, E] {
	run, err := l.cascade(be)
	if err != nil {
		panic(err)
	}
	if len(run.adds) == 0 {
		return Ladder[K, V, S, E]{proto: l.proto}
	}
	levels := make([]Level[S], fitLevel(int64(len(run.adds)))+1)
	levels[len(levels)-1] = buildLevel(be, l.proto, run)
	return Ladder[K, V, S, E]{proto: l.proto, levels: levels}
}

// Validate checks the ladder invariants: the write buffer's contract
// against the static levels, per-level record counts, per-level
// capacity (level i holds at most (BufCap+1)<<i records), and the
// carry-propagation invariant via a full cascade — every tombstone
// must annihilate exactly one deeper live entry with an equal value,
// and no key may be live twice. It returns a non-nil error naming the
// first violation.
func (l Ladder[K, V, S, E]) Validate(be *Backend[K, V, S]) error {
	if err := l.buf.Validate(func(k K) (V, bool) { return l.staticFind(be, k) }, be.ValEq); err != nil {
		return err
	}
	for _, lv := range l.over {
		// An overflow run is one spilled write buffer, so it holds at
		// most cap+1 records (one update appends up to two).
		if lv.AddsN+lv.DelsN > flushCap.Load()+1 {
			return errOverCap
		}
		if (lv.AddsN > 0 && be.Size(lv.Adds) != lv.AddsN) ||
			(lv.DelsN > 0 && be.Size(lv.Dels) != lv.DelsN) {
			return errLevelSize
		}
	}
	for i, lv := range l.levels {
		// One update can append two records (a live entry plus the
		// tombstone cancelling its predecessor), so a flushed run holds
		// up to cap+1 records and level i at most (cap+1)<<i.
		if lv.AddsN+lv.DelsN > levelCap(i) {
			return errLevelCap
		}
		if (lv.AddsN > 0 && be.Size(lv.Adds) != lv.AddsN) ||
			(lv.DelsN > 0 && be.Size(lv.Dels) != lv.DelsN) {
			return errLevelSize
		}
	}
	_, err := l.cascade(be)
	return err
}
