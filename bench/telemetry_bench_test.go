package bench

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/internal/telemetry"
)

// dispatchWorkload builds the warm BenchmarkDispatch engine (mcf test
// workload, rules backend, translation cached) with the given registry
// attached — nil for the un-instrumented baseline.
func dispatchWorkload(tb testing.TB, reg *telemetry.Registry) (*dbt.Engine, []uint32) {
	tb.Helper()
	mcf, _ := corpus.ByName("mcf")
	g, _, err := CompilePair(mcf, codegen.StyleLLVM, 2)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := LeaveOneOut("mcf")
	if err != nil {
		tb.Fatal(err)
	}
	if reg != nil {
		store.SetTelemetry(reg)
	}
	args := []uint32{uint32(mcf.TestN), 12345}
	e := dbt.NewEngine(g, dbt.BackendRules, store)
	if reg != nil {
		e.SetTelemetry(reg)
	}
	if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
		tb.Fatal(err)
	}
	return e, args
}

// BenchmarkDispatchTelemetry is BenchmarkDispatch/rules under the three
// telemetry configurations, so the per-dispatch cost of the subsystem is
// directly visible in the perf-trajectory JSON: no registry at all,
// attached but disarmed (the always-on production default — one atomic
// load per hook), and armed (counters, histograms, sampled trace events).
func BenchmarkDispatchTelemetry(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		e, args := dispatchWorkload(b, reg)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, nil) })
	b.Run("disarmed", func(b *testing.B) {
		reg := telemetry.New(0)
		reg.Disarm()
		run(b, reg)
	})
	b.Run("armed", func(b *testing.B) { run(b, telemetry.New(0)) })
}

// TestTelemetryDisarmedOverhead gates the subsystem's core performance
// promise: with a registry attached but disarmed, the dispatch loop must
// run within 5% of the un-instrumented engine (the disarmed path is one
// atomic load per hook site). A shared host's speed moves by more than
// 5% within tens of milliseconds, in bursts, so the two engines are
// compared in pairs taken back to back: a pair interleaves single warm
// Runs of each engine, alternating which goes first, and its ratio is
// the ratio of the two sides' median Run times, which a burst shorter
// than half the pair cannot move. The gate is on the median ratio over
// all pairs; the ratios' interquartile range is logged as the noise
// floor the run actually saw.
func TestTelemetryDisarmedOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	none, args := dispatchWorkload(t, nil)
	reg := telemetry.New(0)
	reg.Disarm()
	disarmed, _ := dispatchWorkload(t, reg)
	timeRun := func(e *dbt.Engine) time.Duration {
		t0 := time.Now()
		if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	median := func(d []time.Duration) float64 {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return float64(d[len(d)/2])
	}
	const pairs, runsPerSide = 21, 15
	ratios := make([]float64, pairs)
	for p := range ratios {
		runtime.GC()
		var tn, td []time.Duration
		for k := 0; k < runsPerSide; k++ {
			if (p+k)%2 == 0 {
				tn = append(tn, timeRun(none))
				td = append(td, timeRun(disarmed))
			} else {
				td = append(td, timeRun(disarmed))
				tn = append(tn, timeRun(none))
			}
		}
		ratios[p] = median(td) / median(tn)
	}
	sort.Float64s(ratios)
	med, q1, q3 := ratios[pairs/2], ratios[pairs/4], ratios[3*pairs/4]
	overhead := (med - 1) * 100
	t.Logf("dispatch: %d pairs of %d runs a side, median disarmed/none %.4f (overhead %+.2f%%), ratio IQR %.4f (q1 %.4f, q3 %.4f)",
		pairs, runsPerSide, med, overhead, q3-q1, q1, q3)
	if overhead > 5 {
		t.Errorf("disarmed telemetry overhead %.2f%% exceeds the 5%% gate", overhead)
	}
}

// TestTelemetryDisarmedAllocs is the deterministic companion of the
// overhead gate: a disarmed registry must add no allocation to a warm Run.
func TestTelemetryDisarmedAllocs(t *testing.T) {
	none, args := dispatchWorkload(t, nil)
	reg := telemetry.New(0)
	reg.Disarm()
	disarmed, _ := dispatchWorkload(t, reg)
	allocs := func(e *dbt.Engine) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := e.Run("bench", args, 4_000_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(none), allocs(disarmed); a != b {
		t.Errorf("warm Run allocates %v times with no registry, %v with a disarmed one", a, b)
	}
}
