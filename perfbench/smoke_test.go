package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dbtrules/dbt"
)

// inTempDir runs the test from an empty directory, so the results and
// trace files the benchmark writes land there.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func workloadNames() []string {
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryMetric runs one op slot per workload, untraced and
// traced, and checks that every metric is emitted with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	inTempDir(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: w, seed: 7, seconds: 1, trace: traced, setupReps: 1, maxSlots: 1}
			res, err := execute(cfg, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, m.name, got, m.unit)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestWrongReferenceCounted corrupts the reference results after set-up
// and checks that the ops fail: the oracle cannot pass silently.
func TestWrongReferenceCounted(t *testing.T) {
	inTempDir(t)
	for _, w := range workloadNames() {
		cfg := &config{workload: w, seed: 7, seconds: 1, setupReps: 1, maxSlots: 1,
			tamper: func(exp []expect) {
				for i := range exp {
					exp[i].ret ^= 1
				}
			}}
		out, err := workloads[w](cfg, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if out.failed == 0 || out.values["ops_failed_frac"] <= 0 {
			t.Errorf("%s: wrong reference not counted: failed=%d ops_failed_frac=%v", w, out.failed, out.values["ops_failed_frac"])
		}
	}
}

// TestReferenceMatchesEngine checks the oracle itself on a fresh seed:
// the ARM interpreter's r0 and retired-instruction count equal the rules
// engine's, and the yardstick's, on every program, for both inputs.
func TestReferenceMatchesEngine(t *testing.T) {
	tr := newTracer()
	progs, err := compileCorpus(tr, 0, 0, 777)
	if err != nil {
		t.Fatal(err)
	}
	learned := learnCorpus(tr, 0, 0, progs, 2)
	for _, ref := range []bool{false, true} {
		exp, err := referenceRuns(tr, 0, 0, progs, ref)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			e := dbt.NewEngine(p.guest, dbt.BackendRules, leaveOneOut(learned, i))
			ret, err := e.Run("bench", []uint32{p.input(ref), p.seedArg}, maxGuestInstrs)
			if err := checkRun(exp[i], ret, e.Stats.GuestInstrs, err); err != nil {
				t.Errorf("%s ref=%v: %v", p.name(), ref, err)
			}
			if _, err := yardRun(yardJobs(progs, ref, exp)[i]); err != nil {
				t.Errorf("%s ref=%v: %v", p.name(), ref, err)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and units
// in step with what the driver emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, driver %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("workloads: BENCHMARK.json %v, driver %v", got, want)
	}
}
