package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// opRule builds a one-instruction rule "<op> r0, r0, #n".
func opRule(id int, op string, n int) *Rule {
	return &Rule{
		ID:           id,
		Guest:        []arm.Instr{arm.MustParse(fmt.Sprintf("%s r0, r0, #%d", op, n))},
		Host:         []x86.Instr{x86.MustParse("movl $1, %eax")},
		NumRegParams: 1,
		Source:       fmt.Sprintf("op:%s:%d", op, n),
	}
}

// addAllDifferential drives AddAll and a sequential Add loop over the
// same rule list (on stores with identical prior state) and asserts the
// outcomes are indistinguishable: same accept/reject totals, same final
// pattern→rule mapping, same count. The list deliberately includes
// duplicate patterns with varying host lengths (replacement races within
// one batch) and patterns quarantined before the batch.
func addAllDifferential(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	block := genGuestBlock(r, 24)

	batchStore := NewStore()
	seqStore := NewStore()

	// Pre-state: a few installed rules (some of which the batch will try
	// to replace) and one quarantined pattern.
	var pre []*Rule
	id := 1
	for i := 0; i < 6; i++ {
		l := 1 + r.Intn(4)
		start := r.Intn(len(block) - l + 1)
		rule, ok := parameterize(block[start:start+l], 2+r.Intn(4), id, r.Intn(2) == 0)
		if !ok {
			continue
		}
		pre = append(pre, rule)
		id++
	}
	for _, rule := range pre {
		a, b := batchStore.Add(rule), seqStore.Add(rule)
		if a != b {
			t.Fatalf("seed %d: pre-state diverged", seed)
		}
	}
	if len(pre) > 0 {
		victim := pre[r.Intn(len(pre))]
		if batchStore.Quarantine(victim.ID) != seqStore.Quarantine(victim.ID) {
			t.Fatalf("seed %d: quarantine diverged", seed)
		}
	}

	// The batch: fresh windows, plus rewrites of pre-state patterns with
	// shorter and longer hosts, plus intra-batch duplicates.
	var batch []*Rule
	for i := 0; i < 24; i++ {
		l := 1 + r.Intn(4)
		start := r.Intn(len(block) - l + 1)
		rule, ok := parameterize(block[start:start+l], 1+r.Intn(6), id, r.Intn(2) == 0)
		if !ok {
			continue
		}
		batch = append(batch, rule)
		id++
	}

	added, rejected := batchStore.AddAll(batch)
	seqAdded, seqRejected := 0, 0
	for _, rule := range batch {
		if seqStore.Add(rule) {
			seqAdded++
		} else {
			seqRejected++
		}
	}
	if added != seqAdded || rejected != seqRejected {
		t.Fatalf("seed %d: AddAll = (%d, %d), sequential Add = (%d, %d)",
			seed, added, rejected, seqAdded, seqRejected)
	}
	if added+rejected != len(batch) {
		t.Fatalf("seed %d: %d + %d != batch size %d", seed, added, rejected, len(batch))
	}
	if batchStore.Count() != seqStore.Count() {
		t.Fatalf("seed %d: count %d vs %d", seed, batchStore.Count(), seqStore.Count())
	}

	// Same surviving rule per pattern (IDs distinguish batch entries).
	byPat := func(s *Store) map[string]int {
		out := map[string]int{}
		for _, rule := range s.All() {
			out[patternKey(rule.Guest)] = rule.ID
		}
		return out
	}
	bp, sp := byPat(batchStore), byPat(seqStore)
	if len(bp) != len(sp) {
		t.Fatalf("seed %d: pattern sets differ: %d vs %d", seed, len(bp), len(sp))
	}
	for k, v := range bp {
		if sp[k] != v {
			t.Fatalf("seed %d: pattern %q kept rule %d vs %d", seed, k, v, sp[k])
		}
	}
}

func TestAddAllMatchesSequentialAdd(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		addAllDifferential(t, seed)
	}
}

func TestAddAllEmpty(t *testing.T) {
	s := NewStore()
	v := s.Version()
	if a, r := s.AddAll(nil); a != 0 || r != 0 {
		t.Fatalf("AddAll(nil) = (%d, %d)", a, r)
	}
	if s.Version() != v {
		t.Fatal("AddAll(nil) bumped the version")
	}
}

// TestAddAllQuarantinedPatternRejected: the quarantine bar applies to
// batched admission exactly as to Add — a faulting pattern cannot
// sneak back in via a batch.
func TestAddAllQuarantinedPatternRejected(t *testing.T) {
	s := NewStore()
	r1 := opRule(1, "add", 1)
	if !s.Add(r1) {
		t.Fatal("Add refused r1")
	}
	if s.Quarantine(1) != 1 {
		t.Fatal("quarantine missed r1")
	}
	clone := opRule(2, "add", 1)
	added, rejected := s.AddAll([]*Rule{clone, opRule(3, "sub", 1)})
	if added != 1 || rejected != 1 {
		t.Fatalf("AddAll = (%d, %d), want quarantined pattern rejected", added, rejected)
	}
	for _, rule := range s.All() {
		if rule.ID == 2 {
			t.Fatal("quarantined pattern re-admitted via AddAll")
		}
	}
}
