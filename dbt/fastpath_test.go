package dbt

import (
	"slices"
	"testing"

	"dbtrules/arm"
	"dbtrules/learn"
	"dbtrules/prog"
	"dbtrules/rules"
)

// loopGuest is a small function whose body re-enters its loop head, so
// chaining edges are traversed repeatedly within one run.
func loopGuest() *prog.ARM {
	code := arm.MustParseSeq(
		"mov r1, #0; add r1, r1, #1; cmp r1, r0; blt 1; mov r0, r1; bx lr")
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}
	return g
}

// TestRunResetsChaining: Engine.Run must not inherit a chaining
// predecessor from a previous run. Before the reset, run N's final TB
// left a phantom edge into run N+1's entry block: the edge got chained
// and run N+2 scored a bogus ChainHit on it, so ChainHits drifted upward
// across back-to-back runs. With the reset, every warm rerun of the same
// workload sees identical dispatch behaviour — on the same engine or a
// fresh one.
func TestRunResetsChaining(t *testing.T) {
	args := []uint32{9}
	run := func(e *Engine) uint64 {
		before := e.Stats.ChainHits
		if _, err := e.Run("f", args, 100000); err != nil {
			t.Fatal(err)
		}
		return e.Stats.ChainHits - before
	}

	a := NewEngine(loopGuest(), BackendQEMU, nil)
	d1, d2, d3 := run(a), run(a), run(a)
	if d2 != d3 {
		t.Fatalf("warm reruns disagree: run2 %d chain hits, run3 %d (phantom edge chained?)", d2, d3)
	}

	b := NewEngine(loopGuest(), BackendQEMU, nil)
	if f1 := run(b); f1 != d1 {
		t.Fatalf("first run: %d chain hits on reused engine, %d on fresh", d1, f1)
	}
	if f2 := run(b); f2 != d2 {
		t.Fatalf("second run: %d chain hits back-to-back, %d on fresh engine", d2, f2)
	}
	// Warm reruns re-dispatch every block; all real edges are already
	// chained, and the only full-cost dispatch left is the run's entry
	// (no predecessor exit to patch).
	if want := b.Stats.DispatchCount/2 - 1; d2 != want {
		t.Fatalf("warm rerun chain hits %d, want dispatches-1 = %d", d2, want)
	}
}

// TestEngineRefreezesBetweenRuns: rules added between Runs (learning
// finishing after the engine was built) must be picked up by the next
// Run's refrozen snapshot.
func TestEngineRefreezesBetweenRuns(t *testing.T) {
	code := arm.MustParseSeq("add r1, r0, #7; mov r0, r1; bx lr")
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}

	l := learn.NewLearner(nil)
	rule, bucket := l.LearnOne(learnCand("add r1, r0, #100", "leal 100(%eax), %ecx"))
	if rule == nil {
		t.Fatalf("rule not learned: %v", bucket)
	}

	store := rules.NewStore()
	e := NewEngine(g, BackendRules, store)
	if _, err := e.Run("f", []uint32{1}, 1000); err != nil {
		t.Fatal(err)
	}
	if e.Stats.StaticCovered != 0 {
		t.Fatalf("empty store covered %d instructions", e.Stats.StaticCovered)
	}

	store.Add(rule)
	e2 := NewEngine(g, BackendRules, store) // fresh engine: fresh code cache
	if _, err := e2.Run("f", []uint32{1}, 1000); err != nil {
		t.Fatal(err)
	}
	if e2.Stats.StaticCovered == 0 {
		t.Fatal("rule added before run not applied")
	}
	if e2.idx == nil || e2.idx.Version() != store.Version() {
		t.Fatal("engine index not refrozen to the store's version")
	}
}

// TestTranslateRefreezesMutatedStore: a rule added to the store after
// the engine froze its index must be applied by the very next
// translation, which refreezes the index to the store's version.
func TestTranslateRefreezesMutatedStore(t *testing.T) {
	code := arm.MustParseSeq("add r1, r0, #7; mov r0, r1; bx lr")
	g := &prog.ARM{Code: code}
	g.Funcs = []prog.Func{{Name: "f", Entry: 0, End: len(code)}}

	l := learn.NewLearner(nil)
	rule, bucket := l.LearnOne(learnCand("add r1, r0, #100", "leal 100(%eax), %ecx"))
	if rule == nil {
		t.Fatalf("rule not learned: %v", bucket)
	}

	store := rules.NewStore()
	e := NewEngine(g, BackendRules, store)
	stale := e.idx
	store.Add(rule)
	tb, err := e.translate(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(tb.ruleIDs, rule.ID) {
		t.Fatalf("block rules %v, want rule %d added after NewEngine", tb.ruleIDs, rule.ID)
	}
	if e.idx == stale || e.idx.Version() != store.Version() {
		t.Fatalf("index version %d, store version %d: not refrozen", e.idx.Version(), store.Version())
	}
}

// TestDirectMappedTBCache: the slice-backed code cache must translate
// each entry PC once and serve repeats from the same TB.
func TestDirectMappedTBCache(t *testing.T) {
	e := NewEngine(loopGuest(), BackendQEMU, nil)
	if _, err := e.Run("f", []uint32{5}, 100000); err != nil {
		t.Fatal(err)
	}
	tbs := e.TBs()
	if len(tbs) == 0 || uint64(len(tbs)) != e.Stats.TBCount {
		t.Fatalf("TBs() returned %d blocks, TBCount %d", len(tbs), e.Stats.TBCount)
	}
	seen := map[int]bool{}
	for _, tb := range tbs {
		if seen[tb.EntryGPC] {
			t.Fatalf("entry %d translated twice", tb.EntryGPC)
		}
		seen[tb.EntryGPC] = true
		if len(tb.HostCosts) != len(tb.Host) {
			t.Fatalf("entry %d: %d cached costs for %d host instrs", tb.EntryGPC, len(tb.HostCosts), len(tb.Host))
		}
		for k, in := range tb.Host {
			if tb.HostCosts[k] != hostCost(in) {
				t.Fatalf("entry %d host %d: cached cost %d, hostCost %d",
					tb.EntryGPC, k, tb.HostCosts[k], hostCost(in))
			}
		}
	}
	if e.Stats.DispatchCount == 0 {
		t.Fatal("no dispatches recorded")
	}
}
