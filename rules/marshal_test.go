package rules

import (
	"bytes"
	"testing"

	"dbtrules/arm"
)

// storeFixture builds a store holding the two paper rules plus a third
// single-instruction rule, so the round-trip exercises multi-rule files,
// immediate slots, and expression keys.
func storeFixture(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	third := paperRule()
	third.ID = 3
	third.Guest = arm.MustParseSeq("add r0, r0, r1; sub r0, r0, #0; mov r2, r0")
	third.Source = "fixture:3"
	for _, r := range []*Rule{paperRule(), orRule(), third} {
		if !s.Add(r) {
			t.Fatalf("fixture Add(%d) rejected", r.ID)
		}
	}
	return s
}

// TestStoreMarshalRoundTrip drives a whole store through WriteRules /
// ReadRules and back into a fresh store: the rule set must survive
// loss-free (same canonical All() order, byte-identical re-marshal) and
// the reloaded store must behave like the original (same count, same
// lookups).
func TestStoreMarshalRoundTrip(t *testing.T) {
	orig := storeFixture(t)

	var buf bytes.Buffer
	if err := WriteRules(&buf, orig.All()); err != nil {
		t.Fatal(err)
	}
	firstBytes := buf.String()

	list, err := ReadRules(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	reloaded := NewStore()
	for _, r := range list {
		if !reloaded.Add(r) {
			t.Fatalf("reloaded store rejected rule %d", r.ID)
		}
	}
	if got, want := reloaded.Count(), orig.Count(); got != want {
		t.Fatalf("reloaded count = %d, want %d", got, want)
	}

	// Re-marshaling the reloaded store must reproduce the file byte for
	// byte: All() is a total order, and every slot (imm params, expression
	// keys, flag emulation) parses back to what printed it.
	var buf2 bytes.Buffer
	if err := WriteRules(&buf2, reloaded.All()); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != firstBytes {
		t.Errorf("re-marshal diverged:\n--- first\n%s\n--- second\n%s", firstBytes, buf2.String())
	}

	// The reloaded rules must still match what the originals matched.
	window := arm.MustParseSeq("add r1, r1, r0; sub r1, r1, #1")
	if _, _, ok := reloaded.Freeze().Lookup(window); !ok {
		t.Error("reloaded store does not match the paper example window")
	}
}

// TestStoreMarshalSkipsQuarantined pins the quarantine semantics across
// serialization: a quarantined rule is excluded from the written file, and
// its guest pattern stays barred in the original store — re-Adding an
// equivalent rule (same pattern, fresh pointer) is refused without a
// version bump, exactly as if it had been re-learned or re-read from disk.
func TestStoreMarshalSkipsQuarantined(t *testing.T) {
	s := storeFixture(t)
	if n := s.Quarantine(2); n != 1 {
		t.Fatalf("Quarantine(2) = %d, want 1", n)
	}

	var buf bytes.Buffer
	if err := WriteRules(&buf, s.All()); err != nil {
		t.Fatal(err)
	}
	list, err := ReadRules(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("marshal after quarantine wrote %d rules, want 2", len(list))
	}
	for _, r := range list {
		if r.ID == 2 {
			t.Error("quarantined rule 2 leaked into the rule file")
		}
	}

	// Reinstallation of the quarantined pattern is barred and must not
	// churn the version (a version bump would force index refreezes for a
	// mutation that never happened).
	v := s.Version()
	if s.Add(orRule()) {
		t.Error("Add reinstalled a quarantined pattern")
	}
	if s.Version() != v {
		t.Errorf("rejected Add bumped version %d -> %d", v, s.Version())
	}
	if s.Count() != 2 {
		t.Errorf("count = %d, want 2", s.Count())
	}

	// A fresh store built from the file is a clean slate: the pattern was
	// never quarantined there, so the re-read rule set plus a re-learned
	// rule 2 installs fine.
	reloaded := NewStore()
	for _, r := range list {
		if !reloaded.Add(r) {
			t.Fatalf("reloaded store rejected rule %d", r.ID)
		}
	}
	if !reloaded.Add(orRule()) {
		t.Error("fresh store refused a rule that was only quarantined elsewhere")
	}
}

// TestStoreVersionSemantics pins the mutation-counter contract that the
// frozen-index staleness check and the telemetry rules_version gauge both
// rely on: successful Adds and Quarantines bump it, rejected Adds and
// reads do not, and Freeze stamps the version it snapshotted.
func TestStoreVersionSemantics(t *testing.T) {
	s := NewStore()
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d", s.Version())
	}
	if !s.Add(paperRule()) {
		t.Fatal("Add rejected")
	}
	if s.Version() != 1 {
		t.Fatalf("version after one Add = %d, want 1", s.Version())
	}

	// Duplicate (equal-or-worse) rule: rejected, no version churn.
	if s.Add(paperRule()) {
		t.Fatal("duplicate Add accepted")
	}
	if s.Version() != 1 {
		t.Errorf("rejected Add bumped version to %d", s.Version())
	}

	ix := s.Freeze()
	if ix.Version() != s.Version() {
		t.Errorf("frozen version %d != store version %d", ix.Version(), s.Version())
	}

	if !s.Add(orRule()) {
		t.Fatal("Add rejected")
	}
	if s.Version() != 2 {
		t.Errorf("version after second Add = %d, want 2", s.Version())
	}
	if ix.Version() == s.Version() {
		t.Error("stale snapshot indistinguishable from fresh one")
	}

	if n := s.Quarantine(1); n != 1 {
		t.Fatalf("Quarantine(1) = %d, want 1", n)
	}
	if s.Version() != 3 {
		t.Errorf("version after Quarantine = %d, want 3", s.Version())
	}
	if n := s.Quarantine(1); n != 0 {
		t.Fatalf("repeat Quarantine(1) = %d, want 0", n)
	}
	if s.Version() != 3 {
		t.Errorf("no-op Quarantine bumped version to %d", s.Version())
	}
}
