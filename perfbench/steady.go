package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"

	"dbtrules/dbt"
	"dbtrules/internal/telemetry"
	"dbtrules/rules"
)

// repeatSetup runs the workload's set-up cfg.setupReps times, from
// scratch each time, and returns each one's process CPU time in seconds;
// the first counts from process start, so it covers everything before the
// first timed op. CPU time, unlike wall time, does not move with the
// hypervisor steal of a shared host.
func repeatSetup(cfg *config, tr *tracer, setup func(op, root int) error) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < max(1, cfg.setupReps); rep++ {
		var c0 time.Duration
		if rep > 0 {
			c0 = cpuTime()
		}
		op, root := tr.op("setup", cfg.trace, time.Now())
		err := setup(op, root)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		secs = append(secs, (cpuTime() - c0).Seconds())
	}
	return secs, nil
}

// forSlots calls run for each op slot, a closed loop, until the measured
// window has closed at the end of a pass of passLen slots (or cfg.maxSlots
// slots have run). Whole passes give every program the same number of
// ops, so latency percentiles do not shift with where the window happens
// to cut a pass. In a traced run each slot runs twice, traced and
// untraced in alternating order, so trace.overhead_frac compares like
// with like.
func forSlots(cfg *config, passLen int, run func(slot int, traced bool)) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for slot := 0; ; slot++ {
		if cfg.maxSlots > 0 && slot >= cfg.maxSlots ||
			cfg.maxSlots == 0 && slot%passLen == 0 && time.Since(start) >= window {
			return
		}
		if !cfg.trace {
			run(slot, false)
			continue
		}
		first := slot%2 == 0
		run(slot, first)
		run(slot, !first)
	}
}

// measureSlots runs ops over the seeded program rotation, one program per
// slot. Each op starts, as a fresh dbtrun process would, from a collected
// heap with free memory returned to the OS, so the resident set sampled at
// its end is the op's own peak. Ops are timed in process CPU time (user +
// system, all threads): they run on one goroutine and never wait, so this
// is their wall time less the hypervisor steal a shared host adds, which
// moved wall-clock medians by over 10% between runs of the same code.
//
// When yard is set, in an untraced run, each successful op is followed by
// a yardstick sample of the same program, kept in t.yardMIPS.
func measureSlots(cfg *config, n int, t *opTimes, op func(i int, traced bool) bool, yard func(i int) (float64, error)) error {
	rot := rotation(cfg.seed, n)
	t.rss = map[int][]float64{}
	var err error
	forSlots(cfg, n, func(slot int, traced bool) {
		if err != nil {
			return
		}
		i := rot[slot%n]
		debug.FreeOSMemory()
		c0, w0 := cpuTime(), time.Now()
		ok := op(i, traced)
		d, wall := cpuTime()-c0, time.Since(w0)
		t.rss[i] = append(t.rss[i], rssMB())
		if !ok {
			return
		}
		if yard != nil && !cfg.trace {
			var mips float64
			if mips, err = yard(i); err != nil {
				return
			}
			t.yardMIPS = append(t.yardMIPS, mips)
		}
		t.record(i, d, wall, traced)
	})
	return err
}

// opTimes collects the times of the successful measured ops.
type opTimes struct {
	untraced, traced time.Duration
	lat              []float64         // untraced op times, ms
	wallLat          []float64         // the same ops' wall times, ms
	perProg          map[int][]float64 // untraced op times by program, s
	rss              map[int][]float64 // resident set at each op's end by program, MB
	yardMIPS         []float64         // the yardstick's samples, MIPS
}

// peakRSS is the largest, over programs, of a program's median op-end
// resident set: the peak of a typical op, which one op's stray spike
// does not move.
func (t *opTimes) peakRSS() float64 {
	peak := 0.0
	for _, xs := range t.rss {
		peak = max(peak, quartilesOf(xs).Median)
	}
	return peak
}

// record adds one successful op of program i.
func (t *opTimes) record(i int, d, wall time.Duration, traced bool) {
	if traced {
		t.traced += d
		return
	}
	if t.perProg == nil {
		t.perProg = map[int][]float64{}
	}
	t.untraced += d
	t.lat = append(t.lat, ms(d))
	t.wallLat = append(t.wallLat, ms(wall))
	t.perProg[i] = append(t.perProg[i], d.Seconds())
}

// guestMIPS is the throughput of one pass over the programs the window
// ran, each taking its median op time: reference guest instructions per
// second.
func (t *opTimes) guestMIPS(exp []expect) float64 {
	var instrs, secs float64
	for i, xs := range t.perProg {
		instrs += float64(exp[i].instrs)
		secs += quartilesOf(xs).Median
	}
	return instrs / secs / 1e6
}

// commonMetrics sets the metrics every steady-loop workload reports.
func commonMetrics(o *outcome, cfg *config, tr *tracer, setup []float64, t *opTimes, exp []expect, mem *memAgg, agg *engineAgg) error {
	scale := yardScale(o, t.yardMIPS)
	o.sample("setup_s", setup)
	o.values["setup_s"] *= scale
	o.values["peak_rss_mb"] = t.peakRSS()
	if len(t.lat) > 0 {
		// The programs' op times differ several-fold, so a percentile of
		// the raw ops lands in a gap between two programs and jumps with
		// their extremes. Percentiles over the programs' median op times
		// sit at the same place run after run; the raw quartiles are kept
		// in the record, unscaled.
		var meds []float64
		for _, xs := range t.perProg {
			meds = append(meds, 1000*quartilesOf(xs).Median*scale)
		}
		q := quartilesOf(meds)
		o.values["op_p50_ms"], o.values["op_p90_ms"] = q.Median, q.P90
		o.quartiles["op_ms"] = quartilesOf(t.lat)
		o.quartiles["op_wall_ms"] = quartilesOf(t.wallLat)
		o.context["unscaled_guest_mips"] = t.guestMIPS(exp)
		o.values["guest_mips"] = t.guestMIPS(exp) / scale
	}
	o.values["ops_failed_frac"] = float64(o.failed) / float64(max(1, o.attempted))
	if !cfg.trace {
		return nil
	}
	if err := o.setLedger(tr); err != nil {
		return err
	}
	if t.untraced > 0 {
		o.values["trace.overhead_frac"] = t.traced.Seconds()/t.untraced.Seconds() - 1
	}
	agg.report(o, tr.ledger().ops)
	mem.report(o)
	o.zeroLayers()
	return nil
}

// ensureCycles fills in the modelled cycles of programs the window never
// ran (or whose op failed) with one untimed rules-backend run each.
func ensureCycles(progs []*program, stores func(i int) *rules.Store, ref bool, cycles []uint64) error {
	for i, p := range progs {
		if cycles[i] != 0 {
			continue
		}
		e := dbt.NewEngine(p.guest, dbt.BackendRules, stores(i))
		if _, err := e.Run("bench", []uint32{p.input(ref), p.seedArg}, maxGuestInstrs); err != nil {
			return fmt.Errorf("rules run %s: %v", p.name(), err)
		}
		cycles[i] = e.Stats.TotalCycles()
	}
	return nil
}

// runRefSteady is the execution-bound workload: each op is a fresh rules
// engine running one program's ref input under its leave-one-out store,
// learned, self-tested and frozen in set-up.
func runRefSteady(cfg *config, tr *tracer) (*outcome, error) {
	var progs []*program
	var stores []*rules.Store
	var exp []expect
	var armSecs float64
	setup, err := repeatSetup(cfg, tr, func(op, root int) error {
		var err error
		if progs, err = compileCorpus(tr, op, root, cfg.seed); err != nil {
			return err
		}
		learned := learnCorpus(tr, op, root, progs, 2)
		// Each distinct rule of the twelve stores is self-tested once.
		sp := tr.begin(op, root, "rules.selftest")
		passed := map[*rules.Rule]bool{}
		stores = make([]*rules.Store, len(progs))
		for i := range progs {
			var ok []*rules.Rule
			for _, r := range leaveOneOut(learned, i).All() {
				pass, tested := passed[r]
				if !tested {
					_, rejected := selfTest([]*rules.Rule{r})
					pass = rejected == 0
					passed[r] = pass
				}
				if pass {
					ok = append(ok, r)
				}
			}
			stores[i] = rules.NewStore()
			stores[i].AddAll(ok)
			stores[i].Freeze()
		}
		tr.end(sp)
		c0 := cpuTime()
		exp, err = referenceRuns(tr, op, root, progs, true)
		armSecs = (cpuTime() - c0).Seconds()
		return err
	})
	if err != nil {
		return nil, err
	}
	jobs := yardJobs(progs, true, exp)
	if cfg.tamper != nil {
		cfg.tamper(exp)
	}

	o := newOutcome()
	// Context for guest_mips: the plain ARM reference interpreter's speed
	// on the same inputs.
	var instrs uint64
	for _, e := range exp {
		instrs += e.instrs
	}
	o.context["arm_interp_mips"] = float64(instrs) / armSecs / 1e6
	reg := telemetry.New(0)
	translateNS := reg.Histogram("dbt_translate_ns")
	var t opTimes
	var mem memAgg
	var agg engineAgg
	cycles := make([]uint64, len(progs))
	// The yardstick runs the op's program on the same input.
	yard := func(i int) (float64, error) { return yardstick(jobs[i:i+1], 0) }
	err = measureSlots(cfg, len(progs), &t, func(i int, traced bool) bool {
		p := progs[i]
		if traced {
			mem.start()
		}
		op, root := tr.op("op.ref", traced, time.Now())
		sp := tr.begin(op, root, "dbt.new_engine")
		e := dbt.NewEngine(p.guest, dbt.BackendRules, stores[i])
		tr.end(sp)
		var tns uint64
		if traced {
			e.SetTelemetry(reg)
			tns = translateNS.SumNS()
		}
		sp = tr.begin(op, root, "dbt.run")
		r0 := time.Now()
		ret, err := e.Run("bench", []uint32{p.input(true), p.seedArg}, maxGuestInstrs)
		runWall := time.Since(r0)
		tr.end(sp)
		tr.end(root)
		o.attempted++
		if err := checkRun(exp[i], ret, e.Stats.GuestInstrs, err); err != nil {
			o.fail(p.name()+" ref", err)
			return false
		}
		cycles[i] = e.Stats.TotalCycles()
		if traced {
			mem.stop(1)
			agg.add(e, runWall, time.Duration(translateNS.SumNS()-tns))
		}
		return true
	}, yard)
	if err != nil {
		return nil, err
	}
	if err := ensureCycles(progs, func(i int) *rules.Store { return stores[i] }, true, cycles); err != nil {
		return nil, err
	}
	if o.values["modelled_speedup_geomean"], err = modelledSpeedup(progs, true, cycles); err != nil {
		return nil, err
	}
	return o, commonMetrics(o, cfg, tr, setup, &t, exp, &mem, &agg)
}

// runTestCold is the start-up-bound workload: each op is an in-process
// replica of `dbtrun -backend rules -workload test` — compile the guest,
// read its leave-one-out rule file, SelfTest every rule, install, freeze,
// and run the test input on a fresh engine.
func runTestCold(cfg *config, tr *tracer) (*outcome, error) {
	var progs []*program
	var files [][]byte
	var stores []*rules.Store // the rule files' contents, for ensureCycles
	var exp []expect
	setup, err := repeatSetup(cfg, tr, func(op, root int) error {
		var err error
		if progs, err = compileCorpus(tr, op, root, cfg.seed); err != nil {
			return err
		}
		learned := learnCorpus(tr, op, root, progs, 2)
		files = make([][]byte, len(progs))
		stores = make([]*rules.Store, len(progs))
		for i := range progs {
			stores[i] = leaveOneOut(learned, i)
			if files[i], err = ruleFile(stores[i].All()); err != nil {
				return err
			}
		}
		exp, err = referenceRuns(tr, op, root, progs, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	jobs := yardJobs(progs, false, exp)
	if cfg.tamper != nil {
		cfg.tamper(exp)
	}

	o := newOutcome()
	reg := telemetry.New(0)
	translateNS := reg.Histogram("dbt_translate_ns")
	var t opTimes
	var mem memAgg
	var agg engineAgg
	var stAlloc uint64
	var stRejects int
	cycles := make([]uint64, len(progs))
	// The yardstick repeats the op's program on the test input, which
	// retires too few instructions for one run to be timed alone.
	yard := func(i int) (float64, error) { return yardstick(jobs[i:i+1], 50*time.Millisecond) }
	err = measureSlots(cfg, len(progs), &t, func(i int, traced bool) bool {
		p := progs[i]
		if traced {
			mem.start()
		}
		op, root := tr.op("op.cold", traced, time.Now())
		defer tr.end(root)
		o.attempted++
		sp := tr.begin(op, root, "codegen.compile")
		g, _, err := p.bench.Compile(guestOpts)
		tr.end(sp)
		if err != nil {
			o.fail(p.name()+" compile", err)
			return false
		}
		sp = tr.begin(op, root, "rules.read")
		list, err := rules.ReadRules(bytes.NewReader(files[i]))
		tr.end(sp)
		if err != nil {
			o.fail(p.name()+" read rules", err)
			return false
		}
		sp = tr.begin(op, root, "rules.selftest")
		var a0 uint64
		if traced {
			a0 = allocBytes()
		}
		list, rejected := selfTest(list)
		if traced {
			stAlloc += allocBytes() - a0
			stRejects += rejected
		}
		tr.end(sp)
		sp = tr.begin(op, root, "rules.addall")
		store := rules.NewStore()
		store.AddAll(list)
		tr.end(sp)
		sp = tr.begin(op, root, "rules.freeze")
		store.Freeze()
		tr.end(sp)
		sp = tr.begin(op, root, "dbt.new_engine")
		e := dbt.NewEngine(g, dbt.BackendRules, store)
		tr.end(sp)
		var tns uint64
		if traced {
			e.SetTelemetry(reg)
			tns = translateNS.SumNS()
		}
		sp = tr.begin(op, root, "dbt.run")
		r0 := time.Now()
		ret, err := e.Run("bench", []uint32{p.input(false), p.seedArg}, maxGuestInstrs)
		runWall := time.Since(r0)
		tr.end(sp)
		if err := checkRun(exp[i], ret, e.Stats.GuestInstrs, err); err != nil {
			o.fail(p.name()+" test", err)
			return false
		}
		cycles[i] = e.Stats.TotalCycles()
		if traced {
			mem.stop(1)
			agg.add(e, runWall, time.Duration(translateNS.SumNS()-tns))
		}
		return true
	}, yard)
	if err != nil {
		return nil, err
	}
	if err := ensureCycles(progs, func(i int) *rules.Store { return stores[i] }, false, cycles); err != nil {
		return nil, err
	}
	if o.values["modelled_speedup_geomean"], err = modelledSpeedup(progs, false, cycles); err != nil {
		return nil, err
	}
	if cfg.trace {
		if ops := tr.ledger().ops; ops > 0 {
			o.values["rules.selftest_alloc_mb"] = float64(stAlloc) / 1e6 / float64(ops)
			o.values["rules.selftest_rejects"] = float64(stRejects) / float64(ops)
		}
	}
	return o, commonMetrics(o, cfg, tr, setup, &t, exp, &mem, &agg)
}
