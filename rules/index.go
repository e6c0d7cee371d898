package rules

import (
	"time"

	"dbtrules/arm"
)

// Index is an immutable snapshot of a Store built for the translation
// hot loop: every lookup structure is frozen at Freeze time, so Lookup
// runs without taking any lock. Candidates are tried in the store's Add
// order, which decides ties between same-length rules.
//
// Beyond lock elision the Index adds a §7-style acceleration, lenMask:
// per first-opcode bitmask of the guest-pattern lengths installed for
// that opcode. A longest-match scan's probe of a length that cannot hold
// a rule (a rule's pattern matches a window only if the first opcodes
// agree) returns before hashing the window.
type Index struct {
	version uint64
	count   int
	maxLen  int
	// dense is the (mean, length, firstOp) candidate table, laid out as a
	// flat array indexed (mean*lenDim + length-1)*opDim + firstOp — a
	// bounds check and one multiply-add instead of hashing a struct key.
	// Per-(mean, length, firstOp) lists are the only candidate table the
	// snapshot needs: a probe of §4's coarse mean-key bucket filtered to
	// the window's length can only ever match rules whose first opcode
	// equals the window's (Match rejects at instruction 0 otherwise), so
	// the fine list is exactly the coarse bucket's viable subsequence —
	// same candidates, same tie order, same winner.
	//
	// Within a cell, candidates are grouped by the positional fingerprint
	// of their full (Op, Cond, SetFlags) sequence: a rule can only match a
	// window whose instruction sequence agrees on all three fields at
	// every position, so a probe Matches only the group whose fingerprint
	// equals the window's. Skipping is exact (equal sequences hash equal);
	// a hash collision merely lands unrelated rules in the same group,
	// where Match still rejects them. Grouping keeps bucket insertion
	// order within a group, which is the relative order of all candidates
	// that can possibly match a given window — ties resolve in Add order.
	dense                  [][]fpGroup
	meanDim, lenDim, opDim int
	// lenMask[op] bit l-1 is set when a rule of guest length l whose
	// pattern starts with opcode op is installed. Lengths above 64 (none
	// occur in practice; MaxTBLen caps windows at 64) fall back to
	// always-probe via hasLen.
	lenMask [256]uint64
}

// Freeze snapshots the store into an immutable lock-free Index. The
// snapshot carries the store's version counter, so callers can detect
// staleness (Store.Version() moved on) and refreeze. The Index is built
// straight from the fine buckets under the read lock and cached: while
// the version is unchanged, Freeze returns the same *Index.
func (s *Store) Freeze() *Index {
	tel := s.telArmed()
	if tel != nil {
		t0 := time.Now()
		defer func() {
			tel.freezes.Inc()
			tel.freezeNS.ObserveSince(t0)
		}()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Writers are excluded while we hold the read lock, so the version
	// is exactly the state we snapshot, and a cached Index stamped with
	// it is that snapshot. Concurrent freezers may both rebuild and race
	// the cache store; their Indexes are equivalent.
	version := s.version.Load()
	if cached := s.frozen.Load(); cached != nil && cached.version == version {
		if tel != nil {
			tel.freezeReuses.Inc()
		}
		return cached
	}
	ix := &Index{version: version, count: len(s.byPattern), maxLen: s.maxLen}
	for k := range s.byFine {
		ix.meanDim = max(ix.meanDim, k.mean+1)
		ix.opDim = max(ix.opDim, int(k.firstOp)+1)
		if k.length <= 64 {
			ix.lenMask[k.firstOp] |= 1 << (k.length - 1)
		}
	}
	ix.lenDim = ix.maxLen
	if len(s.byFine) > 0 {
		ix.dense = make([][]fpGroup, ix.meanDim*ix.lenDim*ix.opDim)
	}
	for k, bucket := range s.byFine {
		cell := &ix.dense[(k.mean*ix.lenDim+k.length-1)*ix.opDim+int(k.firstOp)]
		for _, r := range bucket {
			fp := seqFingerprint(r.Guest)
			g := -1
			for gi := range *cell {
				if (*cell)[gi].fp == fp {
					g = gi
					break
				}
			}
			if g < 0 {
				*cell = append(*cell, fpGroup{fp: fp})
				g = len(*cell) - 1
			}
			(*cell)[g].rules = append((*cell)[g].rules, r)
		}
	}
	s.frozen.Store(ix)
	return ix
}

// Version returns the Store.Version() value the snapshot was taken at.
func (ix *Index) Version() uint64 { return ix.version }

// Count returns the number of rules in the snapshot.
func (ix *Index) Count() int { return ix.count }

// MaxLen returns the longest guest pattern in the snapshot.
func (ix *Index) MaxLen() int { return ix.maxLen }

// hasLen reports whether any installed rule of guest length l starts
// with opcode op. It is exact for l ≤ 64 and conservatively true above.
func (ix *Index) hasLen(op arm.Op, l int) bool {
	if l > 64 {
		return true
	}
	return ix.lenMask[op]&(1<<(l-1)) != 0
}

// Lookup finds a rule matching the exact window (same length): the
// first candidate, in Add order, of the window's (mean, length, firstOp)
// cell whose pattern Matches. A window whose key falls outside the table
// dims cannot match any installed rule.
func (ix *Index) Lookup(window []arm.Instr) (*Rule, *Binding, bool) {
	if len(window) == 0 {
		return nil, nil, false
	}
	l, op := len(window), int(window[0].Op)
	if !ix.hasLen(window[0].Op, l) {
		return nil, nil, false
	}
	mean := HashKey(window)
	if mean >= ix.meanDim || l > ix.lenDim || op >= ix.opDim {
		return nil, nil, false
	}
	cell := ix.dense[(mean*ix.lenDim+l-1)*ix.opDim+op]
	if len(cell) == 0 {
		return nil, nil, false
	}
	fp := seqFingerprint(window)
	for _, g := range cell {
		if g.fp != fp {
			continue
		}
		for _, r := range g.rules {
			if b, ok := r.Match(window); ok {
				return r, b, true
			}
		}
	}
	return nil, nil, false
}

// fpGroup is one fingerprint class of candidates inside a dense cell.
type fpGroup struct {
	fp    uint64
	rules []*Rule
}

// fpBase is the base of the positional sequence fingerprint.
const fpBase uint64 = 0x9E3779B97F4A7C15

// instrFingerprint packs the fields Rule.Match compares unconditionally
// at every position.
func instrFingerprint(in arm.Instr) uint64 {
	fp := uint64(in.Op)<<6 | uint64(in.Cond)<<1
	if in.SetFlags {
		fp |= 1
	}
	return fp
}

// seqFingerprint is the positional hash Σ instrFingerprint(w[j])·B^j of a
// window or guest pattern.
func seqFingerprint(w []arm.Instr) uint64 {
	var fp uint64
	pow := uint64(1)
	for _, in := range w {
		fp += instrFingerprint(in) * pow
		pow *= fpBase
	}
	return fp
}
