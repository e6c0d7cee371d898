package rules

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbtrules/arm"
)

// HashKey computes §4's lookup key for a guest instruction sequence: the
// arithmetic (integer) mean of the guest opcodes.
func HashKey(seq []arm.Instr) int {
	if len(seq) == 0 {
		return 0
	}
	sum := 0
	for _, in := range seq {
		sum += int(in.Op)
	}
	return sum / len(seq)
}

// Store installs rules in the hash table keyed by HashKey, as the DBT does
// at start-up (§4). Redundant rules (same guest pattern) keep only the
// variant with the fewest host instructions (§6.1).
//
// The store is one RWMutex over its maps. Lookups go through the frozen
// Index that Freeze builds and caches: translation never takes the lock,
// and a refreeze of an unchanged store costs a version compare.
//
// A Store is safe for concurrent use. The PreferFirst policy field is
// configuration — set it before sharing the store across goroutines.
type Store struct {
	mu sync.RWMutex
	// byFine holds the rules in Add order per (mean, length, firstOp) key,
	// §7's hierarchical buckets; Freeze copies them into the Index.
	byFine map[fineKey][]*Rule
	// byPattern deduplicates on the canonical guest-pattern string.
	byPattern map[string]*Rule
	// quarantined holds rules pulled from the lookup structures after a
	// contained runtime fault was attributed to them; quarantinedPat
	// remembers their guest patterns so Add cannot reinstall an
	// equivalent bad rule (e.g. the same rule re-learned or re-read from
	// disk).
	quarantined    []*Rule
	quarantinedPat map[string]bool
	maxLen         int
	// inconsistent counts bucket removals that failed to find the rule
	// being replaced — an internal invariant violation that would let
	// stale rules linger in lookup buckets. It is asserted zero by
	// CheckInvariants.
	inconsistent int
	// version counts mutations. It is written under mu and read lock-free
	// by Version, so engines can check their snapshot's freshness without
	// the lock.
	version atomic.Uint64
	// PreferFirst keeps the first-learned rule for a guest pattern instead
	// of the fewest-host-instructions one (ablation of the §6.1 redundant-
	// rule selection policy).
	PreferFirst bool
	// tel holds the telemetry handles installed by SetTelemetry (see
	// telemetry.go); atomic so lookup/insert paths read it lock-free.
	tel telAtomicPtr
	// frozen caches the last Index Freeze built; it is current while its
	// version equals the store's.
	frozen atomic.Pointer[Index]
}

type fineKey struct {
	mean    int
	length  int
	firstOp arm.Op
}

// NewStore returns an empty rule store.
func NewStore() *Store {
	return &Store{
		byFine:         map[fineKey][]*Rule{},
		byPattern:      map[string]*Rule{},
		quarantinedPat: map[string]bool{},
	}
}

func fineKeyOf(seq []arm.Instr) fineKey {
	return fineKey{mean: HashKey(seq), length: len(seq), firstOp: seq[0].Op}
}

// patternKey canonicalizes the parameterized guest sequence. Parameters
// are numbered by first appearance, so structurally identical patterns
// print identically.
func patternKey(guest []arm.Instr) string { return arm.Seq(guest) }

// Add installs a rule, returning false when an equal-or-better rule for
// the same guest pattern already exists. Dedup-and-insert is atomic under
// the store lock, so concurrent learners racing on the same guest pattern
// still converge on the §6.1 fewest-host-instructions winner.
func (s *Store) Add(r *Rule) bool {
	// Latency is timed from before the lock so insert contention between
	// parallel learners shows up in the rules_add_ns tail.
	tel := s.telArmed()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	added := s.addLocked(r)
	s.mu.Unlock()
	if tel != nil {
		if added {
			tel.adds.Inc()
		} else {
			tel.addRejects.Inc()
		}
		tel.addNS.ObserveSince(t0)
		tel.telStoreState(s.version.Load(), s.Count())
	}
	return added
}

// AddAll installs a batch of rules under one lock acquisition, in input
// order. The per-rule dedup decisions, version bumps, and final store
// contents are exactly what the same sequence of Add calls would produce
// — AddAll only amortizes the lock traffic (and gives batch publishers
// like learn.Options.publish and the rule miner added/rejected feedback
// that one-at-a-time Add discards). The batch latency lands in
// rules_add_ns as one observation.
func (s *Store) AddAll(list []*Rule) (added, rejected int) {
	if len(list) == 0 {
		return 0, 0
	}
	tel := s.telArmed()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	for _, r := range list {
		if s.addLocked(r) {
			added++
		} else {
			rejected++
		}
	}
	s.mu.Unlock()
	if tel != nil {
		tel.addNS.ObserveSince(t0)
		tel.adds.Add(uint64(added))
		tel.addRejects.Add(uint64(rejected))
		tel.telStoreState(s.version.Load(), s.Count())
	}
	return added, rejected
}

// addLocked is the body of Add under the held write lock. It reports
// whether the rule was installed.
func (s *Store) addLocked(r *Rule) bool {
	pk := patternKey(r.Guest)
	if s.quarantinedPat[pk] {
		// The pattern was quarantined after a contained runtime fault;
		// refusing reinstallation keeps the bad rule out even if it is
		// re-learned or re-read from a file.
		return false
	}
	if prev, ok := s.byPattern[pk]; ok {
		if s.PreferFirst || len(prev.Host) <= len(r.Host) {
			return false
		}
		// Replace: drop prev from its bucket. A missing bucket entry
		// means the buckets disagree with byPattern; record it so the
		// selftest (CheckInvariants) reports the drift instead of letting
		// a stale rule keep winning lookups.
		if !removeRule(s.byFine, fineKeyOf(prev.Guest), prev) {
			s.inconsistent++
		}
	}
	s.byPattern[pk] = r
	fk := fineKeyOf(r.Guest)
	s.byFine[fk] = append(s.byFine[fk], r)
	if len(r.Guest) > s.maxLen {
		s.maxLen = len(r.Guest)
	}
	s.version.Add(1)
	return true
}

// removeRule drops one rule pointer from a bucket, reporting whether it
// was present. An emptied bucket is deleted outright: Freeze sizes its
// dense table from the live keys, so a lingering empty bucket would make
// it index a table sized for rules that no longer exist.
func removeRule[K comparable](m map[K][]*Rule, key K, r *Rule) bool {
	bucket := m[key]
	for i, cand := range bucket {
		if cand == r {
			if len(bucket) == 1 {
				delete(m, key)
			} else {
				m[key] = append(bucket[:i], bucket[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Quarantine removes every installed rule carrying the given ID from the
// lookup structures (IDs are unique per learner, so this is normally one
// rule). Quarantined rules are excluded from subsequent Freeze()
// snapshots (the version bump makes engines holding an old snapshot
// refreeze), and their guest patterns are barred from reinstallation by
// Add. It returns the number of rules quarantined; calling it again with
// the same ID is a no-op.
func (s *Store) Quarantine(id int) int {
	tel := s.telArmed()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	total := s.pull(id, true)
	if tel != nil {
		if total > 0 {
			tel.quarantines.Add(uint64(total))
		}
		tel.quarantineNS.ObserveSince(t0)
		tel.telStoreState(s.version.Load(), s.Count())
	}
	return total
}

// Remove pulls every installed rule carrying the given ID from the
// lookup structures without barring its guest pattern: unlike
// Quarantine, the rule was not judged faulty — it just isn't wanted any
// more (the miner's eviction loop sheds mined rules that never fire this
// way), so an equivalent rule may be re-Added later. Returns the number
// of rules removed.
func (s *Store) Remove(id int) int { return s.pull(id, false) }

// pull removes the ID's rules from the lookup structures, bumping the
// version only on a hit. With quarantine set the victims also land in
// the quarantined list and their patterns are barred from
// reinstallation; without it the removal is clean (Remove). It returns
// the number of rules pulled.
func (s *Store) pull(id int, quarantine bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hits []string
	for pk, r := range s.byPattern {
		if r.ID == id {
			hits = append(hits, pk)
		}
	}
	if len(hits) == 0 {
		return 0
	}
	for _, pk := range hits {
		r := s.byPattern[pk]
		if !removeRule(s.byFine, fineKeyOf(r.Guest), r) {
			s.inconsistent++
		}
		delete(s.byPattern, pk)
		if quarantine {
			s.quarantinedPat[pk] = true
			s.quarantined = append(s.quarantined, r)
		}
	}
	// Removal can lower the longest installed pattern; recompute so
	// MaxLen and Freeze stay exact.
	s.maxLen = 0
	for _, r := range s.byPattern {
		s.maxLen = max(s.maxLen, len(r.Guest))
	}
	s.version.Add(1)
	return len(hits)
}

// Quarantined returns the quarantined rules in canonical (All-style)
// order.
func (s *Store) Quarantined() []*Rule {
	s.mu.RLock()
	out := append([]*Rule(nil), s.quarantined...)
	s.mu.RUnlock()
	sortCanonical(out)
	return out
}

// IsQuarantined reports whether any rule with the given ID has been
// quarantined.
func (s *Store) IsQuarantined(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.quarantined {
		if r.ID == id {
			return true
		}
	}
	return false
}

// Version returns the store's mutation counter. An Index whose Version()
// equals the store's is a faithful snapshot; a mismatch means rules were
// added, replaced, or quarantined after the freeze.
func (s *Store) Version() uint64 { return s.version.Load() }

// Count returns the number of installed rules.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byPattern)
}

// MaxLen returns the longest guest pattern installed.
func (s *Store) MaxLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxLen
}

// All returns the rules in a canonical order: by ID, with ties (IDs are
// only unique per Learner, and a store can hold rules from many) broken by
// source then guest pattern. The order is a total one, so serializing
// All() yields identical bytes no matter what order rules were inserted
// in — the determinism contract behind `rulelearn -jobs` and the
// byte-identical wire snapshots rules/dist serves.
func (s *Store) All() []*Rule {
	s.mu.RLock()
	out := make([]*Rule, 0, len(s.byPattern))
	for _, r := range s.byPattern {
		out = append(out, r)
	}
	s.mu.RUnlock()
	sortCanonical(out)
	return out
}

// sortCanonical sorts rules into All's total order.
func sortCanonical(rs []*Rule) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return patternKey(a.Guest) < patternKey(b.Guest)
	})
}
