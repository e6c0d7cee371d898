package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"dbtrules/arm"
	"dbtrules/dbt"
	"dbtrules/internal/telemetry"
	"dbtrules/learn"
	"dbtrules/mine"
	"dbtrules/rules"
	"dbtrules/rules/dist"
)

// mineRounds is how many profile → evict → mine rounds a cycle runs after
// learning; eviction needs a second round to have a grace period behind it.
const mineRounds = 2

// adoptTimeout bounds how long the producer waits for a publish to be
// adopted.
const adoptTimeout = 10 * time.Second

// swapLog pairs each publish with the first completed fleet run under
// that version or a newer one. A swap's latency is counted in process CPU
// time: the producer waits while a swap is in flight, so the process runs
// only the distribution pipeline, and CPU time is its wall time less the
// hypervisor steal of a shared host. Wall latencies are kept beside.
type swapLog struct {
	mu       sync.Mutex
	pending  []publish
	adoptedV uint64
	lat      []float64         // ms of CPU time
	wallLat  []float64         // ms
	byPos    map[int][]float64 // lat by the swap's position in its cycle
	cycle    []publish         // the current cycle's adopted publishes
}

type publish struct {
	version uint64
	at      time.Time
	cpu     time.Duration
	lat     float64 // CPU ms, once adopted
	wallLat float64
}

// published records a store version a publish call returned with.
func (s *swapLog) published(v uint64, at time.Time, cpu time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v <= s.adoptedV {
		// Already adopted before the publish call returned.
		s.cycle = append(s.cycle, publish{version: v})
		return
	}
	s.pending = append(s.pending, publish{version: v, at: at, cpu: cpu})
}

// adopted records a completed run under version v; every pending
// publish at or below v is adopted now.
func (s *swapLog) adopted(v uint64, at time.Time, cpu time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adoptedV = max(s.adoptedV, v)
	keep := s.pending[:0]
	for _, p := range s.pending {
		if p.version <= v {
			p.lat, p.wallLat = ms(cpu-p.cpu), ms(at.Sub(p.at))
			s.cycle = append(s.cycle, p)
		} else {
			keep = append(keep, p)
		}
	}
	s.pending = keep
}

// await waits until version v is adopted and reports whether it was
// within the timeout.
func (s *swapLog) await(v uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		done := s.adoptedV >= v
		s.mu.Unlock()
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// finish closes a cycle: it keeps the cycle's latencies and returns the
// number of publishes never adopted.
func (s *swapLog) finish() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost := len(s.pending)
	if s.byPos == nil {
		s.byPos = map[int][]float64{}
	}
	for k, p := range s.cycle {
		s.lat = append(s.lat, p.lat)
		s.wallLat = append(s.wallLat, p.wallLat)
		s.byPos[k] = append(s.byPos[k], p.lat)
	}
	s.pending, s.cycle, s.adoptedV = nil, nil, 0
	return lost
}

// fetchTimer is the subscriber's HTTP transport: it times each snapshot
// fetch from request to the end of its body and counts the bytes.
type fetchTimer struct {
	rt    http.RoundTripper
	mu    sync.Mutex
	last  fetch
	fresh bool
}

type fetch struct {
	start, done time.Time
	bytes       int64
}

func (f *fetchTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/snapshot") {
		return f.rt.RoundTrip(req)
	}
	start := time.Now()
	resp, err := f.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, f: f, start: start}
	return resp, nil
}

// take returns the latest snapshot fetch once.
func (f *fetchTimer) take() (fetch, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ok := f.fresh
	f.fresh = false
	return f.last, ok
}

type timedBody struct {
	io.ReadCloser
	f     *fetchTimer
	start time.Time
	n     int64
	seen  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.record()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.record()
	return b.ReadCloser.Close()
}

func (b *timedBody) record() {
	if b.seen {
		return
	}
	b.seen = true
	b.f.mu.Lock()
	b.f.last = fetch{start: b.start, done: time.Now(), bytes: b.n}
	b.f.fresh = true
	b.f.mu.Unlock()
}

// swapCounters are the learn-swap layer counters summed over traced
// cycles.
type swapCounters struct {
	cycles                         int
	learn                          learn.Stats
	proposed, duplicates, verified int
	submitted, added, evicted      int
	snapshots                      int
	snapshotBytes                  int64
	stAlloc                        uint64
	stRejects                      int
}

// runLearnSwap is the rule-production workload. Each cycle starts from an
// empty live store served by a dist.Server on loopback, learns the corpus
// one program at a time into it, then mines it; a dist.Subscribe client
// self-tests every snapshot and hot-swaps it into a fleet of engines
// running test inputs. Two goroutines are busy: the producer and the
// subscriber.
func runLearnSwap(cfg *config, tr *tracer) (*outcome, error) {
	var progs []*program
	var exp []expect
	setup, err := repeatSetup(cfg, tr, func(op, root int) error {
		var err error
		if progs, err = compileCorpus(tr, op, root, cfg.seed); err != nil {
			return err
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
	subReg := telemetry.New(0)
	w := &swapper{tr: tr, o: o, progs: progs, exp: exp, reg: reg, subReg: subReg,
		translateNS: reg.Histogram("dbt_translate_ns"), addNS: reg.Histogram("rules_add_ns")}
	if !cfg.trace {
		w.yardJobs = jobs
	}
	// The producer learns and profiles in corpus order, as rulelearn
	// does, so every cycle publishes the same sequence of snapshot sizes
	// and the swap-latency percentiles do not move with the seed; the
	// fleet runs in the seeded rotation order.
	rot := rotation(cfg.seed, len(progs))
	var wall [2]time.Duration // by traced
	var cycles [2]int
	forSlots(cfg, 1, func(slot int, traced bool) {
		if err != nil {
			return
		}
		c0 := time.Now()
		err = w.cycle(rot, traced)
		wall[b2i(traced)] += time.Since(c0)
		cycles[b2i(traced)]++
	})
	if err != nil {
		return nil, err
	}

	scale := yardScale(o, w.yardMIPS)
	o.sample("setup_s", setup)
	o.values["setup_s"] *= scale
	o.values["peak_rss_mb"] = quartilesOf(w.cycleRSS).Median
	if len(w.swaps.lat) > 0 {
		// Every cycle publishes the same sequence of snapshots, whose
		// swaps differ several-fold; as on the steady workloads, the
		// percentiles are over each position's median.
		var meds []float64
		for _, xs := range w.swaps.byPos {
			meds = append(meds, quartilesOf(xs).Median*scale)
		}
		q := quartilesOf(meds)
		o.values["op_p50_ms"], o.values["op_p90_ms"] = q.Median, q.P90
		o.quartiles["op_ms"] = quartilesOf(w.swaps.lat)
		o.quartiles["op_wall_ms"] = quartilesOf(w.swaps.wallLat)
	}
	if len(w.fleetMIPS) > 0 {
		q := quartilesOf(w.fleetMIPS)
		o.quartiles["guest_mips"] = q
		o.values["guest_mips"] = q.Median / scale
	}
	// Fig 8's test series for a store learned from the whole corpus.
	if speedup, err := modelledSpeedup(progs, false, w.rulesCycles); err == nil {
		o.values["modelled_speedup_geomean"] = speedup
	} else if o.failed == 0 {
		return nil, err
	}
	o.values["ops_failed_frac"] = float64(o.failed) / float64(max(1, o.attempted))
	o.values["verify_cands_per_s"] = float64(w.decided) / w.deciding.Seconds()
	if !cfg.trace {
		return o, nil
	}
	if err := o.setLedger(tr); err != nil {
		return nil, err
	}
	ops := float64(tr.ledger().ops)
	if cycles[0] > 0 && cycles[1] > 0 {
		o.values["trace.overhead_frac"] = (wall[1].Seconds()/float64(cycles[1]))/(wall[0].Seconds()/float64(cycles[0])) - 1
	}
	k := &w.counters
	o.values["learn.candidates"] = float64(k.learn.Candidates) / float64(k.cycles)
	o.values["learn.yield"] = ratio(uint64(k.learn.Counts[learn.Learned]), uint64(k.learn.Candidates))
	o.values["learn.prep_ms"] = ms(k.learn.PrepTime) / ops
	o.values["learn.param_ms"] = ms(k.learn.ParamTime) / ops
	o.values["learn.verify_ms"] = ms(k.learn.VerifyTime) / ops
	o.values["mine.duplicate_frac"] = ratio(uint64(k.duplicates), uint64(k.proposed))
	o.values["mine.verified_frac"] = ratio(uint64(k.verified), uint64(k.submitted))
	o.values["mine.added"] = float64(k.added) / float64(k.cycles)
	o.values["mine.evicted"] = float64(k.evicted) / float64(k.cycles)
	o.values["dist.snapshot_bytes"] = float64(k.snapshotBytes) / float64(max(1, k.snapshots))
	o.values["dist.retries"] = float64(subReg.Counter("dist_retry_total").Load())
	o.values["dist.rejects"] = float64(subReg.Counter("dist_snapshot_reject_total").Load())
	o.values["rules.selftest_alloc_mb"] = float64(k.stAlloc) / 1e6 / ops
	o.values["rules.selftest_rejects"] = float64(k.stRejects) / ops
	w.agg.report(o, int(ops))
	w.mem.report(o)
	o.zeroLayers()
	return o, nil
}

// swapper holds the learn-swap run's state across cycles.
type swapper struct {
	tr          *tracer
	o           *outcome
	progs       []*program
	exp         []expect
	reg, subReg *telemetry.Registry
	translateNS *telemetry.Histogram
	addNS       *telemetry.Histogram

	mu          sync.Mutex // guards o and the consumer fields while a cycle runs
	swaps       swapLog
	fleetMIPS   []float64 // per delivery: fleet guest instructions per CPU second of its runs
	agg         engineAgg
	mem         memAgg
	counters    swapCounters
	decided     int
	deciding    time.Duration
	rulesCycles []uint64  // first cycle, after learning, by program
	peakRSS     float64   // this cycle's, MB, sampled at the end of every publish and delivery
	cycleRSS    []float64 // each cycle's peakRSS

	// In untraced runs the producer samples the yardstick on yardJobs.
	yardJobs []yardJob
	yardMIPS []float64
	yardErr  error
}

// cycle runs one learn → mine cycle against a fresh store, server and
// subscriber fleet.
func (w *swapper) cycle(rot []int, traced bool) error {
	// Each cycle starts with free memory returned to the OS, so the
	// resident sets sampled during it are its own.
	debug.FreeOSMemory()
	store := rules.NewStore()
	if traced {
		store.SetTelemetry(w.reg)
		w.mem.start()
	}
	srv := dist.NewServer(store)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return fmt.Errorf("dist server: %v", err)
	}
	transport := &http.Transport{MaxConnsPerHost: 1}
	ft := &fetchTimer{rt: transport}
	client := dist.NewClient(srv.Addr())
	client.SetTransport(ft)

	ctx, cancel := context.WithCancel(context.Background())
	type subResult struct {
		runs []fleetRun
		err  error
	}
	subDone := make(chan subResult, 1)
	go func() {
		runs, err := w.subscribe(ctx, client, ft, rot, traced)
		subDone <- subResult{runs, err}
	}()

	opsBefore := w.tr.ledger().ops
	last := w.produce(store, traced)
	w.swaps.await(last, adoptTimeout)
	lost := w.swaps.finish()
	cancel()
	sub := <-subDone
	_ = srv.Close()
	transport.CloseIdleConnections()
	if sub.err != nil && !errors.Is(sub.err, context.Canceled) {
		return fmt.Errorf("subscribe: %v", sub.err)
	}
	if w.yardErr != nil {
		return w.yardErr
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cycleRSS = append(w.cycleRSS, w.peakRSS)
	w.peakRSS = 0
	w.checkFleet(sub.runs)
	for ; lost > 0; lost-- {
		w.o.fail("swap", fmt.Errorf("publish never adopted"))
	}
	if traced {
		w.counters.cycles++
		w.mem.stop(w.tr.ledger().ops - opsBefore)
	}
	return nil
}

// produce learns every program into the live store, then runs the mining
// rounds, and returns the final store version. Each call that can change
// the store is one publish.
func (w *swapper) produce(store *rules.Store, traced bool) uint64 {
	// Before each call that can publish, the producer waits for its
	// previous publish to be adopted, so a swap's latency is the
	// distribution pipeline's — fetch, SelfTest, offer, first run — not a
	// queue whose length depends on how the two goroutines happen to
	// interleave. Learning and profiling still overlap the fleet's
	// remaining runs.
	//
	// Once the previous publish is adopted, the producer samples the
	// yardstick over the test inputs; no swap is in flight while it runs.
	var seen uint64
	adopting := true
	settle := func() {
		if adopting && !w.swaps.await(seen, adoptTimeout) {
			adopting = false
		}
		if w.yardJobs == nil || w.yardErr != nil {
			return
		}
		mips, err := yardstick(w.yardJobs, 30*time.Millisecond)
		w.mu.Lock()
		defer w.mu.Unlock()
		if err != nil {
			w.yardErr = err
			return
		}
		w.yardMIPS = append(w.yardMIPS, mips)
	}
	pub := func() {
		now, cpu := time.Now(), cpuTime()
		w.mu.Lock()
		w.peakRSS = max(w.peakRSS, rssMB())
		v := store.Version()
		if v != seen {
			w.o.attempted++
		}
		w.mu.Unlock()
		if v != seen {
			seen = v
			w.swaps.published(v, now, cpu)
		}
	}
	l := learn.NewLearner(&learn.Options{Jobs: 1, PublishTo: store})
	for _, p := range w.progs {
		settle()
		t0 := time.Now()
		op, root := w.tr.op("op.learn", traced, t0)
		sp := w.tr.begin(op, root, "learn.program")
		add0 := w.addNS.SumNS()
		_, st := l.LearnProgram(p.guest, p.host)
		end := time.Now()
		w.tr.end(sp)
		w.tr.add(op, sp, "rules.addall", end.Add(-time.Duration(w.addNS.SumNS()-add0)), end)
		w.tr.end(root)
		pub()
		w.mu.Lock()
		w.decided += st.Candidates
		w.deciding += end.Sub(t0)
		if traced {
			w.counters.learn.Add(st)
		}
		w.mu.Unlock()
	}

	pairs := make([]learn.Pair, len(w.progs))
	for i, p := range w.progs {
		pairs[i] = p.pair()
	}
	miner := mine.NewMiner(store, &mine.Options{Learn: learn.Options{Jobs: 1}})
	for round := 1; round <= mineRounds; round++ {
		settle()
		op, root := w.tr.op("op.mine", traced, time.Now())
		var hot []mine.HotPC
		hits := map[int]uint64{}
		cycles := make([]uint64, len(w.progs))
		for i, p := range w.progs {
			sp := w.tr.begin(op, root, "mine.profile")
			res, err := mine.Profile(&pairs[i], store, []uint32{p.input(false), p.seedArg}, maxGuestInstrs)
			w.tr.end(sp)
			w.mu.Lock()
			w.o.attempted++
			if err == nil {
				cycles[i] = res.Stats.TotalCycles()
				err = checkRun(w.exp[i], res.Ret, res.Stats.GuestInstrs, nil)
			}
			if err != nil {
				w.o.fail(p.name()+" profile", err)
				w.mu.Unlock()
				continue
			}
			w.mu.Unlock()
			hot = append(hot, res.Hot...)
			for id, n := range res.RuleHits {
				hits[id] += n
			}
		}
		if round == 1 && w.rulesCycles == nil {
			// The profile pass right after learning runs every program's
			// test input under the learned store: the rules side of
			// modelled_speedup_geomean.
			w.rulesCycles = cycles
		}
		evicted := 0
		if round > 1 {
			sp := w.tr.begin(op, root, "mine.evict")
			evicted = miner.EvictCold(hits)
			w.tr.end(sp)
			pub()
			settle()
		}
		sp := w.tr.begin(op, root, "mine.round")
		add0 := w.addNS.SumNS()
		r0 := time.Now()
		st := miner.Round(&mine.Context{Pairs: pairs, Hot: hot, Store: store})
		end := time.Now()
		w.tr.end(sp)
		w.tr.add(op, sp, "rules.addall", end.Add(-time.Duration(w.addNS.SumNS()-add0)), end)
		w.tr.end(root)
		pub()
		w.mu.Lock()
		w.decided += st.Submitted
		w.deciding += end.Sub(r0)
		if traced {
			k := &w.counters
			k.proposed += st.Proposed
			k.duplicates += st.Duplicates
			k.submitted += st.Submitted
			k.verified += st.Verified
			k.added += st.Added
			k.evicted += evicted
		}
		w.mu.Unlock()
	}
	return seen
}

// fleetRun is one subscriber engine run, checked against the reference
// after the cycle.
type fleetRun struct {
	prog   int
	ret    uint32
	instrs uint64
	err    error
}

// subscribe mirrors a fleet of `dbtrun -rules-watch` processes, one per
// program, sharing one subscription: every snapshot is self-tested whole,
// offered to every engine, and each engine then runs its program's test
// input, in rotation order. A swap is adopted when the first of those runs
// completes. It returns the runs for checking.
func (w *swapper) subscribe(ctx context.Context, client *dist.Client, ft *fetchTimer, rot []int, traced bool) ([]fleetRun, error) {
	// Subscribe verifies and delivers on this goroutine; pinning it to
	// one thread lets the fleet's runs be timed in that thread's CPU time,
	// which the producer's concurrent learning does not touch.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fleet := make([]*dbt.Engine, len(w.progs))
	for i, p := range w.progs {
		fleet[i] = dbt.NewEngine(p.guest, dbt.BackendRules, nil)
		if traced {
			fleet[i].SetTelemetry(w.reg)
		}
	}
	var runs []fleetRun
	var vStart, vEnd time.Time
	opts := &dist.SubscribeOptions{
		Verify: func(list []*rules.Rule) error {
			vStart = time.Now()
			var a0 uint64
			if traced {
				a0 = allocBytes()
			}
			_, rejected := selfTest(list)
			vEnd = time.Now()
			if traced {
				w.mu.Lock()
				w.counters.stAlloc += allocBytes() - a0
				w.counters.stRejects += rejected
				w.mu.Unlock()
			}
			if rejected > 0 {
				return fmt.Errorf("%d of %d rules failed SelfTest", rejected, len(list))
			}
			return nil
		},
		Telemetry: w.subReg,
	}
	err := dist.Subscribe(ctx, client, opts, func(s *rules.Store, info dist.VersionInfo) {
		now := time.Now()
		f, fetched := ft.take()
		if !fetched {
			f = fetch{start: now, done: now}
		}
		op, root := w.tr.op("op.swap", traced, f.start)
		w.tr.add(op, root, "dist.snapshot", f.start, f.done)
		if !vStart.IsZero() {
			verify := w.tr.add(op, root, "dist.verify", f.done, now)
			w.tr.add(op, verify, "rules.selftest", vStart, vEnd)
			vStart = time.Time{}
		}
		sp := w.tr.begin(op, root, "rules.freeze")
		s.Freeze()
		w.tr.end(sp)
		sp = w.tr.begin(op, root, "dbt.offer")
		for _, e := range fleet {
			e.OfferRules(s)
		}
		w.tr.end(sp)
		var instrs uint64
		var runCPU time.Duration
		for k, i := range rot {
			p, e := w.progs[i], fleet[i]
			// Reset the counters so each run's Stats are its own.
			e.Stats = dbt.Stats{RuleHitsByLen: map[int]uint64{}}
			e.TierStats = dbt.TierStats{}
			var tns uint64
			if traced {
				tns = w.translateNS.SumNS()
			}
			sp = w.tr.begin(op, root, "dbt.adopt_run")
			r0, c0 := time.Now(), threadCPUTime()
			ret, err := e.Run("bench", []uint32{p.input(false), p.seedArg}, maxGuestInstrs)
			runWall := time.Since(r0)
			runCPU += threadCPUTime() - c0
			w.tr.end(sp)
			runs = append(runs, fleetRun{prog: i, ret: ret, instrs: e.Stats.GuestInstrs, err: err})
			if k == 0 && err == nil {
				w.swaps.adopted(info.Version, time.Now(), cpuTime())
			}
			instrs += e.Stats.GuestInstrs
			if traced {
				w.mu.Lock()
				w.agg.add(e, runWall, time.Duration(w.translateNS.SumNS()-tns))
				w.mu.Unlock()
			}
		}
		w.tr.end(root)
		w.mu.Lock()
		defer w.mu.Unlock()
		w.fleetMIPS = append(w.fleetMIPS, float64(instrs)/runCPU.Seconds()/1e6)
		w.peakRSS = max(w.peakRSS, rssMB())
		if traced {
			w.counters.snapshots++
			w.counters.snapshotBytes += f.bytes
		}
	})
	return runs, err
}

// checkFleet checks the subscriber's runs against the ARM interpreter.
// Each engine keeps its guest memory across runs, so run k of a program
// is checked against the k-th interpreter run on one carried-over state;
// the first must also equal the set-up reference.
func (w *swapper) checkFleet(runs []fleetRun) {
	shadow := make([]*arm.State, len(w.progs))
	for _, r := range runs {
		p := w.progs[r.prog]
		w.o.attempted++
		if r.err != nil {
			w.o.fail(p.name()+" adopt run", r.err)
			continue
		}
		first := shadow[r.prog] == nil
		var steps0 uint64
		if !first {
			steps0 = shadow[r.prog].Steps
		}
		ret, st, err := p.guest.RunARM(shadow[r.prog], "bench", []uint32{p.input(false), p.seedArg}, maxGuestInstrs)
		if err != nil {
			w.o.fail(p.name()+" reference run", err)
			continue
		}
		shadow[r.prog] = st
		want := expect{ret: ret, instrs: st.Steps - steps0}
		if first {
			want = w.exp[r.prog]
		}
		if err := checkRun(want, r.ret, r.instrs, nil); err != nil {
			w.o.fail(p.name()+" adopt run", err)
		}
	}
}
