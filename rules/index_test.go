package rules

import (
	"fmt"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// TestIndexDifferential sweeps the randomized Index-vs-oracle
// differential (the same body FuzzIndexMatchesStore explores) over fixed
// seeds, with the rules installed by Add and by AddAll, so the
// equivalence is exercised on every plain `go test` run, not only under
// -fuzz.
func TestIndexDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		for _, batch := range []bool{false, true} {
			runIndexDifferential(t, int64(seed), batch, 4+seed%24)
		}
	}
}

// TestFreezeVersioning: a snapshot is faithful while the store is
// untouched, and version drift — from inserts and from §6.1 replacements
// alike — is detectable through Version().
func TestFreezeVersioning(t *testing.T) {
	s := NewStore()
	if got := s.Version(); got != 0 {
		t.Fatalf("fresh store version %d", got)
	}
	ix := s.Freeze()
	if ix.Version() != 0 || ix.Count() != 0 {
		t.Fatalf("empty snapshot version %d count %d", ix.Version(), ix.Count())
	}
	if probe(ix.Lookup, ix.MaxLen(), []arm.Instr{arm.MustParse("mov r1, #4")}, 0, false).ok {
		t.Fatal("empty snapshot matched")
	}

	s.Add(immRule(1, 10))
	if s.Version() == ix.Version() {
		t.Fatal("Add did not bump version")
	}
	ix = s.Freeze()
	v := s.Version()

	// Dedup rejection mutates nothing and must not bump the version.
	if s.Add(immRule(2, 10)) {
		t.Fatal("duplicate pattern accepted")
	}
	if s.Version() != v {
		t.Fatal("rejected Add bumped version")
	}

	// A replacement (same pattern, fewer host instructions) mutates the
	// buckets, so it must invalidate outstanding snapshots.
	long := immRule(3, 11)
	long.Host = append(long.Host, x86.MustParse("movl $11, %eax"))
	s.Add(long)
	v = s.Version()
	better := immRule(4, 11)
	if !s.Add(better) {
		t.Fatal("better rule rejected")
	}
	if s.Version() == v {
		t.Fatal("replacement did not bump version")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ix = s.Freeze()
	window := []arm.Instr{arm.MustParse("mov r9, #11")}
	r, _, ok := ix.Lookup(window)
	if !ok || r != better {
		t.Fatalf("snapshot lookup returned %v, want the replacement", r)
	}
}

// TestFreezeStitchCache: a refreeze of an untouched store returns the
// identical Index (the cached-index fast path — no dense-table rebuild),
// while any mutation forces a fresh build whose contents reflect the
// change.
func TestFreezeStitchCache(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Add(immRule(i+1, 20+i))
	}
	first := s.Freeze()
	for i := 0; i < 3; i++ {
		if ix := s.Freeze(); ix != first {
			t.Fatalf("refreeze %d of an untouched store rebuilt the index", i)
		}
	}

	// A mutation must invalidate the cache: the next freeze stitches a new
	// Index carrying the new version and the new rule.
	s.Add(immRule(100, 90))
	second := s.Freeze()
	if second == first {
		t.Fatal("freeze after Add returned the stale cached index")
	}
	if second.Version() != s.Version() || second.Count() != first.Count()+1 {
		t.Fatalf("restitched index version %d count %d, want version %d count %d",
			second.Version(), second.Count(), s.Version(), first.Count()+1)
	}
	window := []arm.Instr{arm.MustParse("mov r2, #90")}
	if _, _, ok := second.Lookup(window); !ok {
		t.Fatal("restitched index does not see the new rule")
	}
	// And the new stitch is itself cached.
	if ix := s.Freeze(); ix != second {
		t.Fatal("refreeze after the restitch rebuilt again")
	}
	// The first snapshot stays immutable and usable: concurrent holders of
	// a pre-mutation Index are unaffected by later freezes.
	if _, _, ok := first.Lookup(window); ok {
		t.Fatal("old snapshot sees a rule added after it was frozen")
	}
}

// TestStoreQuarantineShardConfined pins the quarantine blast radius: a
// quarantine bumps the store version and invalidates the cached freeze
// snapshot, the refreeze drops exactly the victim, and a bystander rule
// with a different first opcode still matches in the new snapshot and in
// the old one.
func TestStoreQuarantineShardConfined(t *testing.T) {
	s := NewStore()
	ruleA := opRule(1, "and", 7)
	ruleB := opRule(2, "add", 7)
	if !s.Add(ruleA) || !s.Add(ruleB) {
		t.Fatal("setup Add rejected")
	}
	ix0 := s.Freeze()
	if ix := s.Freeze(); ix != ix0 {
		t.Fatal("refreeze of an untouched store rebuilt the index")
	}
	v0 := s.Version()

	if n := s.Quarantine(ruleA.ID); n != 1 {
		t.Fatalf("Quarantine = %d, want 1", n)
	}
	if s.Version() == v0 {
		t.Error("quarantine did not bump the store version")
	}
	ix1 := s.Freeze()
	if ix1 == ix0 {
		t.Fatal("refreeze after the quarantine served the stale cached index")
	}
	if ix1.Version() != s.Version() || ix1.Count() != ix0.Count()-1 {
		t.Fatalf("post-quarantine index version %d count %d, want version %d count %d",
			ix1.Version(), ix1.Count(), s.Version(), ix0.Count()-1)
	}

	// The stale and fresh snapshots must reflect the quarantine exactly.
	winA := []arm.Instr{arm.MustParse("and r3, r3, #7")}
	winB := []arm.Instr{arm.MustParse("add r3, r3, #7")}
	if _, _, ok := ix0.Lookup(winA); !ok {
		t.Error("pre-quarantine snapshot lost the victim rule")
	}
	if _, _, ok := ix1.Lookup(winA); ok {
		t.Error("post-quarantine snapshot still serves the victim rule")
	}
	for _, ix := range []*Index{ix0, ix1} {
		if _, _, ok := ix.Lookup(winB); !ok {
			t.Error("bystander rule missing from a snapshot")
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexLenMask: the per-first-opcode length mask must skip exactly
// the lengths that cannot match, never a length that holds a rule.
func TestIndexLenMask(t *testing.T) {
	s := NewStore()
	s.Add(&Rule{
		ID:    1,
		Guest: arm.MustParseSeq("add r0, r0, r1; sub r0, r0, r2"),
		Host:  []x86.Instr{x86.MustParse("addl %ecx, %eax")},
		// Parameters: r0→0, r1→1, r2→2 by first appearance.
		NumRegParams: 3,
		Source:       "mask:2",
	})
	s.Add(immRule(2, 5))
	ix := s.Freeze()
	if !ix.hasLen(arm.ADD, 2) {
		t.Fatal("mask lost the installed add-first length-2 rule")
	}
	if ix.hasLen(arm.ADD, 1) {
		t.Fatal("mask claims a length-1 add rule that was never installed")
	}
	if !ix.hasLen(arm.MOV, 1) {
		t.Fatal("mask lost the installed mov-first length-1 rule")
	}
	if ix.hasLen(arm.SUB, 2) {
		t.Fatal("mask claims a sub-first rule; the rule starts with add")
	}
	block := arm.MustParseSeq("add r4, r4, r5; sub r4, r4, r6; mov r7, #5")
	if m := probe(ix.Lookup, ix.MaxLen(), block, 0, false); !m.ok || m.l != 2 {
		t.Fatalf("longest match at 0: len %d ok %v, want 2 true", m.l, m.ok)
	}
	if m := probe(ix.Lookup, ix.MaxLen(), block, 2, false); !m.ok || m.l != 1 {
		t.Fatalf("longest match at 2: len %d ok %v, want 1 true", m.l, m.ok)
	}
	if probe(ix.Lookup, ix.MaxLen(), block, 1, false).ok {
		t.Fatal("longest match at 1 matched; no rule starts with sub")
	}
}

// TestStoreReplaceInvariants drives the §6.1 replace path serially and
// checks the indexes stay exact (the concurrent variant lives in
// store_concurrent_test.go).
func TestStoreReplaceInvariants(t *testing.T) {
	s := NewStore()
	for n := 0; n < 8; n++ {
		worse := immRule(100+n, n)
		worse.Host = append(worse.Host, x86.MustParse("movl %eax, %ebx"), x86.MustParse("movl %ebx, %eax"))
		if !s.Add(worse) {
			t.Fatalf("initial rule %d rejected", n)
		}
	}
	for n := 0; n < 8; n++ {
		if !s.Add(immRule(200+n, n)) {
			t.Fatalf("better rule %d rejected", n)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("count %d after replacements, want 8", got)
	}
	ix := s.Freeze()
	for n := 0; n < 8; n++ {
		r, _, ok := ix.Lookup([]arm.Instr{arm.MustParse(fmt.Sprintf("mov r2, #%d", n))})
		if !ok || len(r.Host) != 1 {
			t.Fatalf("pattern %d: winner has %d host instrs, want the 1-instr replacement", n, len(r.Host))
		}
	}
}
