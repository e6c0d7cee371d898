package rules

import (
	"sort"

	"dbtrules/arm"
)

// oracle is the naive reference matcher the differential gates hold the
// frozen Index to. It reads the store's buckets directly, under the read
// lock, and tries every candidate in Add order with Rule.Match.
//
// In coarse mode it is §4's flat table: every rule whose mean-of-opcodes
// key equals the window's is a candidate, filtered to the window's
// length. In fine mode it is §7's hierarchical table: only the window's
// own (mean, length, firstOp) bucket is searched. Both must pick the
// Index's winner.
type oracle struct {
	s    *Store
	fine bool
}

// lookup finds a rule matching the exact window.
func (o oracle) lookup(window []arm.Instr) (*Rule, *Binding, bool) {
	if len(window) == 0 {
		return nil, nil, false
	}
	o.s.mu.RLock()
	defer o.s.mu.RUnlock()
	var cands []*Rule
	if o.fine {
		cands = o.s.byFine[fineKeyOf(window)]
	} else {
		mean := HashKey(window)
		var keys []fineKey
		for k := range o.s.byFine {
			if k.mean == mean {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].length != keys[j].length {
				return keys[i].length < keys[j].length
			}
			return keys[i].firstOp < keys[j].firstOp
		})
		for _, k := range keys {
			cands = append(cands, o.s.byFine[k]...)
		}
	}
	for _, r := range cands {
		if len(r.Guest) != len(window) {
			continue
		}
		if b, ok := r.Match(window); ok {
			return r, b, true
		}
	}
	return nil, nil, false
}

// probe is the engine's window scan at block position i (dbt's tryRules
// without the apply step): lengths from min(len(block)-i, maxLen) down to
// 1, or up from 1 when shortest is set; the first hit wins.
func probe(lookup func([]arm.Instr) (*Rule, *Binding, bool), maxLen int, block []arm.Instr, i int, shortest bool) matchResult {
	n := min(len(block)-i, maxLen)
	for k := 0; k < n; k++ {
		l := n - k
		if shortest {
			l = k + 1
		}
		if r, b, ok := lookup(block[i : i+l]); ok {
			return matchResult{r, b, l, true}
		}
	}
	return matchResult{}
}
