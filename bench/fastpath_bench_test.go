package bench

import (
	"testing"

	"dbtrules/arm"
	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/rules"
)

// corpusRuleStore installs the full Table-1 learned rule set (all twelve
// benchmarks, llvm O2) in one store — the "learned corpus rule set" the
// translation fast path is benchmarked against.
func corpusRuleStore(tb testing.TB) *rules.Store {
	tb.Helper()
	rows, err := Table1()
	if err != nil {
		tb.Fatal(err)
	}
	store := rules.NewStore()
	for _, row := range rows {
		for _, r := range row.Rules {
			store.Add(r)
		}
	}
	return store
}

// guestBlocks splits one benchmark's guest code into per-function blocks
// — the shape Engine.translate scans rule windows over.
func guestBlocks(tb testing.TB, name string) [][]arm.Instr {
	tb.Helper()
	b, ok := corpus.ByName(name)
	if !ok {
		tb.Fatalf("no benchmark %q", name)
	}
	g, _, err := CompilePair(b, codegen.StyleLLVM, 2)
	if err != nil {
		tb.Fatal(err)
	}
	var blocks [][]arm.Instr
	for _, f := range g.Funcs {
		if f.End > f.Entry {
			blocks = append(blocks, g.Code[f.Entry:f.End])
		}
	}
	return blocks
}

// scanIndex runs the engine's rule probe over every position of every
// block: Index.Lookup on window lengths min(remaining, MaxLen) down to 1,
// the first hit winning (dbt's tryRules without the apply step).
func scanIndex(ix *rules.Index, blocks [][]arm.Instr) int {
	hits := 0
	for _, blk := range blocks {
		for i := range blk {
			for l := min(len(blk)-i, ix.MaxLen()); l >= 1; l-- {
				if _, _, ok := ix.Lookup(blk[i : i+l]); ok {
					hits++
					break
				}
			}
		}
	}
	return hits
}

// BenchmarkLongestMatch times §4's longest-match application scan on the
// learned corpus rule set through the frozen index. One op = a full scan
// of every window position in the gcc guest binary.
func BenchmarkLongestMatch(b *testing.B) {
	store := corpusRuleStore(b)
	blocks := guestBlocks(b, "gcc")
	ix := store.Freeze()
	b.Logf("rules=%d blocks=%d hits=%d", store.Count(), len(blocks), scanIndex(ix, blocks))
	b.Run("index", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			scanIndex(ix, blocks)
		}
	})
}

// BenchmarkDispatch measures a warm end-to-end Run (translation already
// cached): direct-mapped TB dispatch, per-TB successor chaining checks,
// and the exec loop under each execution tier. One op = one full mcf
// test-workload emulation. The bare qemu/rules variants run the default
// auto tier (comparable to earlier BENCH_*.json entries, which predate
// tiering and measured the pure switch loop); the -interp and -native
// variants pin the tier. The native/interp ratio is the machine-code win
// the ci.sh tiers stage gates on (the -native variants run the
// interpreter on hosts without the back end).
func BenchmarkDispatch(b *testing.B) {
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		b.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	run := func(b *testing.B, backend dbt.Backend, store *rules.Store, tier dbt.Tier) {
		e := dbt.NewEngine(g, backend, store)
		e.Tier = tier
		if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	mcfRules := func(b *testing.B) *rules.Store {
		store, err := LeaveOneOut("mcf")
		if err != nil {
			b.Fatal(err)
		}
		return store
	}
	b.Run("qemu", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierAuto) })
	b.Run("rules", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierAuto) })
	b.Run("qemu-interp", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierInterp) })
	b.Run("rules-interp", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierInterp) })
	b.Run("qemu-native", func(b *testing.B) { run(b, dbt.BackendQEMU, nil, dbt.TierNative) })
	b.Run("rules-native", func(b *testing.B) { run(b, dbt.BackendRules, mcfRules(b), dbt.TierNative) })
}
