package dbt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dbtrules/codegen"
	"dbtrules/rules"
)

// runUnderTier compiles-free helper: runs the work function of a prepared
// engine configuration under one tier and returns the engine for
// inspection.
func runUnderTier(t *testing.T, label, src string, args []uint32, backend Backend, tier Tier) (*Engine, uint32) {
	t.Helper()
	g, _ := compileGuest(t, src, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "tier"})
	var e *Engine
	if backend == BackendRules {
		e = NewEngine(g, backend, learnedStore(t, src, codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "tier"}))
	} else {
		e = NewEngine(g, backend, nil)
	}
	e.Tier = tier
	ret, err := e.Run("work", args, 200_000_000)
	if err != nil {
		t.Fatalf("%s %s tier %s: %v\n%s", label, backend, tier, err, src)
	}
	return e, ret
}

// checkTiersAgree runs one program under the interpreter tier, eager
// native compilation, and auto, and requires the return value, the full
// Stats struct, and guest-visible memory to be bit-identical — the
// determinism contract native compilation may not break. On hosts
// without the native back end both faster tiers run the interpreter,
// which is itself the contract under test.
func checkTiersAgree(t *testing.T, label, src string, args []uint32) {
	t.Helper()
	for _, backend := range []Backend{BackendQEMU, BackendRules} {
		base, baseRet := runUnderTier(t, label, src, args, backend, TierInterp)
		if base.TierStats.NativeDispatches != 0 || base.TierStats.NativePromotions != 0 {
			t.Fatalf("%s %s: interp tier promoted blocks: %+v", label, backend, base.TierStats)
		}
		for _, tier := range []Tier{TierNative, TierAuto} {
			e, ret := runUnderTier(t, label, src, args, backend, tier)
			tag := fmt.Sprintf("%s %s tier %s", label, backend, tier)
			if ret != baseRet {
				t.Fatalf("%s: returned %d, interp tier %d\n%s", tag, int32(ret), int32(baseRet), src)
			}
			if !reflect.DeepEqual(e.Stats, base.Stats) {
				t.Fatalf("%s: Stats diverge from interp tier\ngot:    %+v\ninterp: %+v\n%s",
					tag, e.Stats, base.Stats, src)
			}
			if !e.Mem().Equal(base.Mem()) {
				t.Fatalf("%s: memory diverges from interp tier\n%s", tag, src)
			}
			ts := e.TierStats
			if tier == TierNative && NativeSupported() {
				if ts.NativeDispatches == 0 {
					t.Fatalf("%s: native tier never executed native code: %+v", tag, ts)
				}
				if ts.InterpDispatches != 0 && ts.NativeBuildFails == 0 {
					t.Fatalf("%s: eager native tier interpreted blocks it never rejected: %+v", tag, ts)
				}
			}
			if !NativeSupported() && ts.NativeDispatches != 0 {
				t.Fatalf("%s: native dispatches without the back end: %+v", tag, ts)
			}
			if got := ts.InterpDispatches + ts.NativeDispatches; got != e.Stats.DispatchCount {
				t.Fatalf("%s: tier split %d does not sum to DispatchCount %d",
					tag, got, e.Stats.DispatchCount)
			}
		}
	}
}

// TestTiersAgreeFixed pins the differential on a deterministic set of
// random programs so plain `go test` exercises it without the fuzz driver.
func TestTiersAgreeFixed(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 3
	}
	r := rand.New(rand.NewSource(31337))
	for it := 0; it < iters; it++ {
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkTiersAgree(t, fmt.Sprintf("iter %d", it), src, args)
	}
}

// TestParseTier pins the flag syntax, including the rejection of the
// removed "threaded" tier.
func TestParseTier(t *testing.T) {
	for s, want := range map[string]Tier{
		"": TierAuto, "auto": TierAuto, "interp": TierInterp, "native": TierNative,
	} {
		got, err := ParseTier(s)
		if err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("Tier(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	for _, s := range []string{"jit", "threaded"} {
		_, err := ParseTier(s)
		if err == nil {
			t.Errorf("ParseTier accepted %q", s)
		} else if !strings.Contains(err.Error(), "interp|native|auto") {
			t.Errorf("ParseTier(%q) error %q does not name interp|native|auto", s, err)
		}
	}
}

// FuzzNativeMatchesStep is the native tier's engine-level differential
// fuzz gate: random guest programs must produce bit-identical results,
// Stats, and memory whether the Step switch or emitted machine code
// executes them (checkTiersAgree runs TierNative and auto). On hosts
// without the back end it pins the interpreter fallback instead.
func FuzzNativeMatchesStep(f *testing.F) {
	for _, seed := range []int64{2, 11, 90210} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		checkTiersAgree(t, fmt.Sprintf("native seed %d", seed), src, args)
	})
}

// FuzzAutoLadderMatchesStep is the auto ladder's warm-cache differential
// fuzz gate: each random guest program runs promoteThreshold+2 times on
// one auto engine — early runs interpret, later ones start with blocks
// that earlier runs promoted to native code — and as often on one interp
// engine. After each run the return value, the accumulated Stats, and
// guest memory must be bit-identical between the two engines, and a
// cached block holds native code exactly when it has reached the
// threshold and the back end took it.
func FuzzAutoLadderMatchesStep(f *testing.F) {
	for _, seed := range []int64{1, 7, 4242} {
		f.Add(seed)
	}
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "ladder"}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := genDBTProgram(r)
		args := []uint32{uint32(r.Int31n(2000) - 1000), uint32(r.Int31n(2000) - 1000)}
		g, _ := compileGuest(t, src, opts)
		store := learnedStore(t, src, opts)
		for _, backend := range []Backend{BackendQEMU, BackendRules} {
			var s *rules.Store
			if backend == BackendRules {
				s = store
			}
			interp := NewEngine(g, backend, s)
			interp.Tier = TierInterp
			auto := NewEngine(g, backend, s) // TierAuto: the zero value
			for run := 1; run <= promoteThreshold+2; run++ {
				tag := fmt.Sprintf("seed %d %s run %d", seed, backend, run)
				want, err := interp.Run("work", args, 200_000_000)
				if err != nil {
					t.Fatalf("%s interp: %v\n%s", tag, err, src)
				}
				got, err := auto.Run("work", args, 200_000_000)
				if err != nil {
					t.Fatalf("%s auto: %v\n%s", tag, err, src)
				}
				if got != want {
					t.Fatalf("%s: auto returned %d, interp %d\n%s", tag, int32(got), int32(want), src)
				}
				if !reflect.DeepEqual(auto.Stats, interp.Stats) {
					t.Fatalf("%s: Stats diverge from interp\ngot:    %+v\ninterp: %+v\n%s",
						tag, auto.Stats, interp.Stats, src)
				}
				if !auto.Mem().Equal(interp.Mem()) {
					t.Fatalf("%s: memory diverges from interp\n%s", tag, src)
				}
				ts := auto.TierStats
				if got := ts.InterpDispatches + ts.NativeDispatches; got != auto.Stats.DispatchCount {
					t.Fatalf("%s: tier split %d does not sum to DispatchCount %d",
						tag, got, auto.Stats.DispatchCount)
				}
				if live := nativeTBs(auto); uint64(live) != ts.NativePromotions-ts.NativeDemotions {
					t.Fatalf("%s: cache holds %d native blocks, TierStats says %d promotions - %d demotions",
						tag, live, ts.NativePromotions, ts.NativeDemotions)
				}
				for _, tb := range auto.TBs() {
					hot := tb.ExecCount >= promoteThreshold && !tb.noNative && NativeSupported()
					if (tb.native != nil) != hot {
						t.Fatalf("%s: block %d: ExecCount %d, native %v, noNative %v",
							tag, tb.EntryGPC, tb.ExecCount, tb.native != nil, tb.noNative)
					}
				}
			}
		}
	})
}

// nativeTBs counts cached blocks currently holding live native code.
func nativeTBs(e *Engine) int {
	n := 0
	for _, tb := range e.TBs() {
		if tb.native != nil {
			n++
		}
	}
	return n
}

// TestTierLifecycle walks blocks up the two-rung ladder at the default
// threshold: cold blocks interpret, and a block compiles to machine code
// exactly when its ExecCount reaches promoteThreshold — with TierStats
// agreeing with the cache contents. Without the native back end, auto
// must run everything on the interpreter. TestThreeTierLifecycle covers
// the way back down.
func TestTierLifecycle(t *testing.T) {
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "lifecycle"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	store := learnedStore(t, dbtTestSrc, opts)
	e := NewEngine(g, BackendRules, store) // TierAuto: the zero value

	want, _ := nativeRun(t, g, "work", []uint32{200, 3})
	got, err := e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto tier returned %d, reference %d", int32(got), int32(want))
	}
	ts := e.TierStats
	if !NativeSupported() {
		if ts.NativeDispatches != 0 || ts.NativePromotions != 0 || ts.InterpDispatches != e.Stats.DispatchCount {
			t.Fatalf("auto tier left the interpreter without a native back end: %+v", ts)
		}
		t.Skip("native back end not available on this host; interpreter-only ladder checked")
	}
	if ts.InterpDispatches == 0 || ts.NativeDispatches == 0 || ts.NativePromotions == 0 {
		t.Fatalf("hot loop did not climb from interp to native: %+v", ts)
	}
	// One threshold: a block holds native code iff it reached
	// promoteThreshold executions (and the back end took it), so each
	// block interpreted min(ExecCount, promoteThreshold) times.
	var wantInterp uint64
	for _, tb := range e.TBs() {
		hot := tb.ExecCount >= promoteThreshold && !tb.noNative
		if (tb.native != nil) != hot {
			t.Fatalf("block %d: ExecCount %d, native %v, noNative %v",
				tb.EntryGPC, tb.ExecCount, tb.native != nil, tb.noNative)
		}
		if hot {
			wantInterp += promoteThreshold
		} else {
			wantInterp += tb.ExecCount
		}
	}
	if ts.InterpDispatches != wantInterp {
		t.Fatalf("%d interp dispatches, want %d at threshold %d", ts.InterpDispatches, wantInterp, promoteThreshold)
	}
	live := nativeTBs(e)
	if live == 0 || uint64(live) != ts.NativePromotions-ts.NativeDemotions {
		t.Fatalf("cache holds %d native blocks, TierStats says %d promotions - %d demotions",
			live, ts.NativePromotions, ts.NativeDemotions)
	}

	// TierInterp never runs native code even with the back end available.
	ei := NewEngine(g, BackendQEMU, nil)
	ei.Tier = TierInterp
	if _, err := ei.Run("work", []uint32{200, 3}, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if ei.TierStats.NativeDispatches != 0 || ei.TierStats.NativePromotions != 0 {
		t.Fatalf("TierInterp executed native code: %+v", ei.TierStats)
	}
}

// TestThreeTierLifecycle walks native blocks back down the ladder:
// Invalidate demotes the native block it removes, and an OfferRules
// hot-swap flush drops every native block, resets the code buffer, and
// lets the next run re-promote — with live native blocks equal to
// NativePromotions - NativeDemotions throughout. The name is kept from
// the three-rung ladder (interp, threaded, native) whose demotion checks
// it carries; the threaded rung is gone.
func TestThreeTierLifecycle(t *testing.T) {
	if !NativeSupported() {
		t.Skip("native back end not available on this host")
	}
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "lifecycle3"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	store := learnedStore(t, dbtTestSrc, opts)
	e := NewEngine(g, BackendRules, store) // TierAuto: the zero value

	want, _ := nativeRun(t, g, "work", []uint32{200, 3})
	got, err := e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto tier returned %d, reference %d", int32(got), int32(want))
	}
	ts := e.TierStats
	live := nativeTBs(e)
	if live == 0 || uint64(live) != ts.NativePromotions-ts.NativeDemotions {
		t.Fatalf("cache holds %d native blocks, TierStats says %d promotions - %d demotions",
			live, ts.NativePromotions, ts.NativeDemotions)
	}

	// Invalidation demotes the native block it removes.
	var victim *TB
	for _, tb := range e.TBs() {
		if tb.native != nil {
			victim = tb
			break
		}
	}
	beforeDem := e.TierStats.NativeDemotions
	if n := e.Invalidate(victim.EntryGPC, victim.GuestLen); n == 0 {
		t.Fatal("Invalidate removed nothing")
	}
	if e.TierStats.NativeDemotions == beforeDem {
		t.Fatal("invalidating a native block did not count a native demotion")
	}

	// A rule hot-swap flush demotes every still-native block, resets the
	// code buffer generation, and the engine re-promotes on the next run.
	stillNative := uint64(nativeTBs(e))
	beforeDem = e.TierStats.NativeDemotions
	genBefore := e.jit.Gen()
	e.OfferRules(store)
	got, err = e.Run("work", []uint32{200, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-swap run returned %d, reference %d", int32(got), int32(want))
	}
	if e.TierStats.NativeDemotions != beforeDem+stillNative {
		t.Fatalf("hot-swap flush demoted %d native blocks, %d were native",
			e.TierStats.NativeDemotions-beforeDem, stillNative)
	}
	if e.jit.Gen() == genBefore {
		t.Fatal("hot-swap flush did not reset the code buffer generation")
	}
	if nativeTBs(e) == 0 {
		t.Fatal("retranslated hot blocks never re-promoted to native after the swap")
	}
	ts = e.TierStats
	if live := nativeTBs(e); uint64(live) != ts.NativePromotions-ts.NativeDemotions {
		t.Fatalf("after the swap the cache holds %d native blocks, TierStats says %d promotions - %d demotions",
			live, ts.NativePromotions, ts.NativeDemotions)
	}
}
