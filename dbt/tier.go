package dbt

import (
	"fmt"

	"dbtrules/dbt/jitbuf"
	"dbtrules/x86/native"
)

// Tier selects the execution tier for translated blocks.
//
// The deterministic cycle model (Stats, golden snapshots) is identical
// under every tier: native compilation changes how fast the host walks a
// block's instructions, never what the block computes or what the model
// charges for it. TierStats therefore lives outside Stats — it is
// wall-clock-tier accounting, not part of the modeled machine.
type Tier int

// Tiers. TierAuto is the zero value so a zero Engine keeps the adaptive
// behaviour: interpret cold blocks, promote hot ones.
const (
	// TierAuto interprets cold blocks through the x86.State.Step switch
	// and, on hosts with the native back end, compiles a block to emitted
	// machine code once its ExecCount reaches promoteThreshold.
	TierAuto Tier = iota
	// TierInterp pins every block to the switch interpreter (the seed
	// engine's behaviour, and the differential baseline).
	TierInterp
	// TierNative compiles every dispatched block to host machine code
	// eagerly, falling back to the interpreter when the back end is
	// unavailable or cannot take the block.
	TierNative
)

// String names the tier (flag syntax).
func (t Tier) String() string {
	switch t {
	case TierInterp:
		return "interp"
	case TierNative:
		return "native"
	default:
		return "auto"
	}
}

// ParseTier parses the -tier flag syntax.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "auto", "":
		return TierAuto, nil
	case "interp":
		return TierInterp, nil
	case "native":
		return TierNative, nil
	}
	return TierAuto, fmt.Errorf("dbt: unknown tier %q (want interp|native|auto)", s)
}

// promoteThreshold is the ExecCount at which TierAuto compiles a block to
// machine code. A handful of interpreted executions is enough evidence
// that the block will repay the compile (one encoding pass plus the
// buffer's mprotect flips); blocks executed fewer times pay nothing.
// Measured against 64 on the corpus (EXPERIMENTS.md, "Two-rung ladder"),
// 8 ran the engine faster on both ref and test inputs.
const promoteThreshold = 8

// NativeSupported reports whether this host can run the native tier
// (amd64 back end compiled in and an executable code buffer available).
// Elsewhere every block runs on the interpreter, whatever the Tier.
func NativeSupported() bool { return native.Supported() && jitbuf.Supported() }

// TierStats counts execution-tier activity. It is deliberately not part
// of Stats: the differential gate compares StatsSnapshot byte-for-byte
// across tiers, and these counters differ by construction.
type TierStats struct {
	// InterpDispatches and NativeDispatches split Stats.DispatchCount by
	// the tier that executed the block.
	InterpDispatches uint64 `json:"interp_dispatches"`
	// ThreadedDispatches is always zero: it counted the token-threaded
	// tier, which was removed. It stays (with Promotions) for readers of
	// the JSON record until they drop it.
	ThreadedDispatches uint64 `json:"threaded_dispatches"`
	NativeDispatches   uint64 `json:"native_dispatches"`
	// Promotions is always zero: it counted thunk compilations for the
	// removed threaded tier. NativePromotions counts native compiles.
	Promotions uint64 `json:"promotions"`
	// NativePromotions counts blocks compiled to machine code;
	// NativeDemotions counts native blocks dropped from the code cache
	// (invalidation, rule hot-swap, fault containment, stale generation) —
	// their code dies with them, and a retranslated block starts cold
	// again.
	NativePromotions uint64 `json:"native_promotions"`
	NativeDemotions  uint64 `json:"native_demotions"`
	// NativeBailouts counts instructions a native block handed back to
	// the interpreter mid-run (TLB miss, page-straddling access, or a
	// shape compiled as a bail stub). Bails are self-limiting: the
	// engine warms the TLB from the interpreted instruction, so steady
	// state is bail-free for resident working sets.
	NativeBailouts uint64 `json:"native_bailouts,omitempty"`
	// NativeBuildFails counts blocks the native back end rejected,
	// including all-bail compilations not worth placing. Such a block
	// stays on the interpreter (noNative).
	NativeBuildFails uint64 `json:"native_build_fails,omitempty"`
	// NativeBufferFails counts blocks whose machine code compiled fine
	// but could not be placed — the executable buffer hit Engine.JITLimit
	// or the platform refused the mapping. Each such block stays on the
	// interpreter (noNative), so a saturated buffer costs throughput,
	// never correctness.
	NativeBufferFails uint64 `json:"native_buffer_fails,omitempty"`
}

// promoteNative compiles tb's host code to machine code and places it in
// the engine's executable buffer. Any failure (unsupported platform,
// compile rejection, a block that is all bail stubs, buffer exhaustion)
// pins the block to the interpreter: native execution is an
// optimization, never a correctness dependency.
func (e *Engine) promoteNative(tb *TB) {
	if !NativeSupported() {
		tb.noNative = true
		return
	}
	code, err := native.Compile(tb.Host, tb.HostCosts)
	if err != nil || code.Bails >= len(tb.Host) {
		tb.noNative = true
		e.TierStats.NativeBuildFails++
		return
	}
	if e.jit == nil {
		e.jit = jitbuf.New()
		e.jit.Limit = e.JITLimit
		e.nctx = native.NewCtx()
	}
	entry, perr := e.jit.Place(code.Text)
	if perr != nil {
		// The compile succeeded; only placement failed (buffer at
		// JITLimit, or the platform refusing executable memory). Count it
		// so the fallback to the interpreter is visible.
		tb.noNative = true
		e.TierStats.NativeBufferFails++
		if t := e.tel; t.armed() {
			t.bufferFails.Inc()
		}
		return
	}
	tb.native = code
	tb.nativeEntry = entry
	tb.nativeGen = e.jit.Gen()
	e.TierStats.NativePromotions++
	if t := e.tel; t.armed() {
		t.telPromote(tb)
		t.codeBytes.Set(uint64(e.jit.Bytes()))
	}
}

// noteDropped records the demotion when a block leaves the code cache.
// Every removal path (Invalidate, rule hot-swap flush, fault containment,
// the stale-generation backstop) funnels through this so TierStats agrees
// with the cache's actual contents.
func (e *Engine) noteDropped(tb *TB) {
	if tb != nil && tb.native != nil {
		e.TierStats.NativeDemotions++
	}
}
