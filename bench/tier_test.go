package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/rules"
)

// tierSnapshot runs one benchmark × backend under the given tier and
// returns the canonical StatsSnapshot encoding.
func tierSnapshot(t *testing.T, b *corpus.Benchmark, backend dbt.Backend, store *rules.Store, tier dbt.Tier) []byte {
	t.Helper()
	g, _, err := CompilePair(b, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := dbt.NewEngine(g, backend, store)
	e.Tier = tier
	if _, err := e.Run("bench", []uint32{uint32(b.TestN), 12345}, 4_000_000_000); err != nil {
		t.Fatalf("%s/%s tier %s: %v", b.Name, backend, tier, err)
	}
	snap := e.Stats.Snapshot()
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTierGoldenDifferential is the determinism gate for the native
// tier: every corpus program, under every backend, must produce a
// byte-for-byte identical StatsSnapshot whichever tier executes it. The
// interpreter tier is the reference (it is the seed engine's loop);
// native and auto (interp → native at the default threshold) must match
// it exactly — native code is a wall-clock tier only, invisible to the
// modeled machine. On hosts without the native back end both run the
// interpreter, which must also match. Together with
// TestStatsGolden (which runs the default auto tier against the recorded
// golden file) this pins all tiers to the recorded cycle model.
func TestTierGoldenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	for i := range corpus.All() {
		b := &corpus.All()[i]
		store, err := LeaveOneOut(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []dbt.Backend{dbt.BackendQEMU, dbt.BackendRules, dbt.BackendJIT} {
			var st *rules.Store
			if backend == dbt.BackendRules {
				st = store
			}
			ref := tierSnapshot(t, b, backend, st, dbt.TierInterp)
			for _, tier := range []dbt.Tier{dbt.TierNative, dbt.TierAuto} {
				got := tierSnapshot(t, b, backend, st, tier)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s/%s: tier %s snapshot diverges from interp\n got  %s\n want %s",
						b.Name, backend, tier, got, ref)
				}
			}
		}
	}
}

// TestDispatchTierSpeedup gates the tier ladder's perf number: a warm
// mcf emulation under the native tier must be at least 1.5× faster than
// the switch-interpreter tier. Emitted machine code eliminates the Go
// interpreter's per-instruction Instr copy plus its opcode and
// operand-kind switches; that is worth far more than the margin in
// isolation, which keeps the gate robust on loaded CI machines.
func TestDispatchTierSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("wall-clock gate needs >= 4 CPUs, have %d", procs)
	}
	if !dbt.NativeSupported() {
		t.Skip("native back end unavailable on this host")
	}
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	measure := func(tier dbt.Tier) int64 {
		e := dbt.NewEngine(g, dbt.BackendQEMU, nil)
		e.Tier = tier
		if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
		return r.NsPerOp()
	}
	// Best of three per tier: the gate compares achievable speeds, not
	// scheduler noise.
	best := func(tier dbt.Tier) int64 {
		b := measure(tier)
		for i := 0; i < 2; i++ {
			if v := measure(tier); v < b {
				b = v
			}
		}
		return b
	}
	interp := best(dbt.TierInterp)
	native := best(dbt.TierNative)
	speedup := float64(interp) / float64(native)
	t.Logf("warm mcf run: interp %v ns/op, native %v ns/op, speedup %.2fx",
		interp, native, speedup)
	if speedup < 1.5 {
		t.Errorf("native tier speedup over interp %.2fx, want >= 1.5x", speedup)
	}
}
