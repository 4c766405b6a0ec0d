package core

import "repro/internal/parallel"

// filter keeps the entries satisfying pred (t consumed): recurse on both
// children in parallel and recombine with join or join2 depending on the
// root (FILTER in Figure 2); a leaf block filters its array in one pass.
// O(n) work, O(log^2 n) span.
func (o *ops[K, V, A, T]) filter(t *node[K, V, A], pred func(k K, v V) bool) *node[K, V, A] {
	if t == nil {
		return nil
	}
	if isLeaf(t) {
		return o.leafFilter(t, pred)
	}
	sz := t.size
	m, l, r := o.exposeIf(t, pred(t.key, t.val))
	if o.forks(sz) {
		var nl, nr *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { nl = o.filter(l, pred) },
			func() { nr = fo.filter(r, pred) },
		)
		return o.joinMid(nl, m, nr)
	}
	nl := o.filter(l, pred)
	nr := o.filter(r, pred)
	return o.joinMid(nl, m, nr)
}

// leafFilter keeps the block entries satisfying pred (t consumed). The
// keep-everything case — the common one under selective AugFilter
// pruning and for a delete batch that misses the block — is detected by
// an allocation-free scan first. The kept entries are then collected in
// a second scan, which walks a packed block through its cursor rather
// than a decoded copy.
func (o *ops[K, V, A, T]) leafFilter(t *node[K, V, A], pred func(k K, v V) bool) *node[K, V, A] {
	first, at := -1, 0
	o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
		if !pred(e.Key, e.Val) {
			first = at
			return false
		}
		at++
		return true
	})
	if first < 0 {
		return t
	}
	kept := make([]Entry[K, V], 0, leafLen(t)-1)
	at = 0
	o.leafScanRange(t, 0, leafLen(t), func(e Entry[K, V]) bool {
		if at < first || (at > first && pred(e.Key, e.Val)) {
			kept = append(kept, e)
		}
		at++
		return true
	})
	hint := packHintOf(t)
	o.dec(t)
	return o.mkLeafSized(kept, hint)
}

// augFilter is filter for predicates expressed on augmented values
// (AUGFILTER in Figure 2): h must satisfy h(f(a,b)) == h(a) || h(b), so
// a subtree (or block) whose augmented value fails h contains no
// matching entries and is discarded wholesale. O(k·log(n/k + 1)) work
// for k results, O(log^2 n) span.
func (o *ops[K, V, A, T]) augFilter(t *node[K, V, A], h func(a A) bool) *node[K, V, A] {
	return o.augFilter2(t, h, nil)
}

// augFilter2 is augFilter with an additional take-all test (footnote 3
// of the paper): hAll(a) true means *every* entry of a subtree with
// augmented value a satisfies the filter, so the whole subtree (or
// block) is taken by reference without being visited — the selected
// regions cost O(1) each instead of O(size). hAll may be nil (no
// take-all pruning); when non-nil it must satisfy
// hAll(f(a,b)) == hAll(a) && hAll(b).
// An entry is kept when hAny holds on its Base value.
func (o *ops[K, V, A, T]) augFilter2(t *node[K, V, A], hAny, hAll func(a A) bool) *node[K, V, A] {
	if t == nil {
		return nil
	}
	if !hAny(t.aug) {
		o.dec(t)
		return nil
	}
	if hAll != nil && hAll(t.aug) {
		return t // take the whole subtree, keeping the reference
	}
	if isLeaf(t) {
		return o.leafFilter(t, func(k K, v V) bool { return hAny(o.tr.Base(k, v)) })
	}
	sz := t.size
	m, l, r := o.exposeIf(t, hAny(o.tr.Base(t.key, t.val)))
	if o.forks(sz) {
		var nl, nr *node[K, V, A]
		fo := o.forked()
		parallel.Do(
			func() { nl = o.augFilter2(l, hAny, hAll) },
			func() { nr = fo.augFilter2(r, hAny, hAll) },
		)
		return o.joinMid(nl, m, nr)
	}
	nl := o.augFilter2(l, hAny, hAll)
	nr := o.augFilter2(r, hAny, hAll)
	return o.joinMid(nl, m, nr)
}
