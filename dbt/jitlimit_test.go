package dbt

import (
	"bytes"
	"encoding/json"
	"testing"

	"dbtrules/codegen"
	"dbtrules/internal/telemetry"
)

// TestNativeBufferFullFallsBackToInterp pins the buffer-exhaustion
// contract: when the executable code buffer cannot place a compiled
// block (JITLimit here; a failed mmap takes the same path), the block
// stays on the interpreter and the failure is counted — in TierStats
// and on the dbt_native_buffer_fail_total telemetry counter — while the
// modeled Stats stay byte-identical to an interpreter-tier run.
func TestNativeBufferFullFallsBackToInterp(t *testing.T) {
	if !NativeSupported() {
		t.Skip("native tier unsupported on this host")
	}
	opts := codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2, SourceName: "jitlimit"}
	g, _ := compileGuest(t, dbtTestSrc, opts)
	args := []uint32{40, 7}
	wantRet, _ := nativeRun(t, g, "work", args)

	ref := NewEngine(g, BackendQEMU, nil)
	ref.Tier = TierInterp
	refRet, err := ref.Run("work", args, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if refRet != wantRet {
		t.Fatalf("interp run returned %d, native %d", refRet, wantRet)
	}
	refSnap, err := json.Marshal(ref.Stats.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New(0)
	e := NewEngine(g, BackendQEMU, nil)
	e.Tier = TierNative
	e.JITLimit = 1 // no block fits: every native promotion must shed
	e.SetTelemetry(reg)
	ret, err := e.Run("work", args, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ret != wantRet {
		t.Fatalf("buffer-starved run returned %d, native %d", ret, wantRet)
	}
	ts := &e.TierStats
	if ts.NativeBufferFails == 0 {
		t.Error("no NativeBufferFails recorded with a 1-byte buffer limit")
	}
	if ts.NativeDispatches != 0 {
		t.Errorf("%d native dispatches happened with a 1-byte buffer limit", ts.NativeDispatches)
	}
	if ts.InterpDispatches == 0 || ts.InterpDispatches != e.Stats.DispatchCount {
		t.Errorf("%d interp of %d dispatches: buffer-starved blocks did not fall back to the interpreter",
			ts.InterpDispatches, e.Stats.DispatchCount)
	}
	if ts.ThreadedDispatches != 0 {
		t.Errorf("%d threaded dispatches recorded; the threaded tier is gone", ts.ThreadedDispatches)
	}
	if ts.NativeBuildFails != 0 {
		t.Errorf("placement failures miscounted as build failures (%d)", ts.NativeBuildFails)
	}
	gotSnap, err := json.Marshal(e.Stats.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, refSnap) {
		t.Errorf("buffer-starved StatsSnapshot diverges from interp:\n got %s\nwant %s", gotSnap, refSnap)
	}
	if got := reg.Counter("dbt_native_buffer_fail_total").Load(); got != ts.NativeBufferFails {
		t.Errorf("dbt_native_buffer_fail_total = %d, TierStats.NativeBufferFails = %d", got, ts.NativeBufferFails)
	}

	// A generous limit admits at least one block natively and the stats
	// still match — the cap changes tiers, never the modeled machine.
	roomy := NewEngine(g, BackendQEMU, nil)
	roomy.Tier = TierNative
	roomy.JITLimit = 1 << 20
	if ret, err := roomy.Run("work", args, 100_000_000); err != nil || ret != wantRet {
		t.Fatalf("roomy-limit run: ret %d err %v", ret, err)
	}
	if roomy.TierStats.NativeDispatches == 0 {
		t.Error("roomy limit admitted no native dispatches")
	}
	if snap, _ := json.Marshal(roomy.Stats.Snapshot()); !bytes.Equal(snap, refSnap) {
		t.Error("roomy-limit StatsSnapshot diverges from interp")
	}
}
