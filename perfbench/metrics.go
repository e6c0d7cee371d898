package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbtrules/dbt"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them (README.md gives each workload's definition of an op).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"guest_mips", "Minstr/s"},
	{"modelled_speedup_geomean", "ratio"},
}

// ledgerSpans are the layer spans of a measured op. Their self times,
// plus other_ms, add up to trace.op_ms.
var ledgerSpans = []string{
	"codegen.compile", "rules.read", "rules.selftest", "rules.addall", "rules.freeze",
	"dbt.new_engine", "dbt.run", "learn.program", "mine.profile", "mine.round", "mine.evict",
	"dist.snapshot", "dist.verify", "dbt.offer", "dbt.adopt_run",
}

// perLayer is what the traced run reports. A layer a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	out := []metricDef{{"trace.op_ms", "ms"}, {"other_ms", "ms"}}
	for _, s := range ledgerSpans {
		out = append(out, metricDef{s + "_ms", "ms"})
	}
	return append(out, []metricDef{
		{"trace.overhead_frac", "ratio"},
		{"ops_failed_frac", "ratio"},
		{"rules.selftest_alloc_mb", "MB"},
		{"rules.selftest_rejects", "count"},
		{"dbt.translate_ms", "ms"},
		{"dbt.exec_ms", "ms"},
		{"dbt.ns_per_guest_instr", "ns"},
		{"dbt.tb_count", "count"},
		{"dbt.dispatches", "count"},
		{"dbt.chain_hit_frac", "ratio"},
		{"dbt.tier.interp_frac", "ratio"},
		{"dbt.tier.threaded_frac", "ratio"},
		{"dbt.tier.native_frac", "ratio"},
		{"dbt.tier.promotions", "count"},
		{"dbt.tier.native_promotions", "count"},
		{"dbt.tier.native_bailouts", "count"},
		{"rules.dyn_coverage", "ratio"},
		{"rules.static_coverage", "ratio"},
		{"rules.apply_fail_frac", "ratio"},
		{"dbt.host_instrs_per_guest", "ratio"},
		{"dbt.trans_cycle_frac", "ratio"},
		{"verify_cands_per_s", "1/s"},
		{"learn.candidates", "count"},
		{"learn.yield", "ratio"},
		{"learn.prep_ms", "ms"},
		{"learn.param_ms", "ms"},
		{"learn.verify_ms", "ms"},
		{"mine.duplicate_frac", "ratio"},
		{"mine.verified_frac", "ratio"},
		{"mine.added", "count"},
		{"mine.evicted", "count"},
		{"dist.snapshot_bytes", "bytes"},
		{"dist.retries", "count"},
		{"dist.rejects", "count"},
		{"go.gc_pause_ms", "ms"},
		{"go.alloc_mb_per_op", "MB"},
	}...)
}()

// zeroLayers gives every per-layer metric a value, so a layer the
// workload never calls reads 0 rather than missing.
func (o *outcome) zeroLayers() {
	for _, m := range perLayer {
		if _, ok := o.values[m.name]; !ok {
			o.values[m.name] = 0
		}
	}
}

// setLedger reports the traced ops' time split, per op.
func (o *outcome) setLedger(tr *tracer) error {
	l := tr.ledger()
	if l.ops == 0 {
		return fmt.Errorf("no traced ops")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(l.ops) }
	o.values["trace.op_ms"] = per(l.total)
	o.values["other_ms"] = per(l.other)
	known := map[string]bool{}
	for _, s := range ledgerSpans {
		known[s] = true
		o.values[s+"_ms"] = per(l.self[s])
	}
	for name := range l.self {
		if !known[name] {
			return fmt.Errorf("span %s is not a ledger layer", name)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// engineAgg sums the counters of the traced engine runs.
type engineAgg struct {
	runs             int
	wall, translate  time.Duration
	st               dbt.Stats
	tier             dbt.TierStats
	ruleHits, cycles uint64
}

func (a *engineAgg) add(e *dbt.Engine, wall, translate time.Duration) {
	a.runs++
	a.wall += wall
	a.translate += translate
	s, t := &e.Stats, &e.TierStats
	a.st.GuestInstrs += s.GuestInstrs
	a.st.HostInstrs += s.HostInstrs
	a.st.TransCycles += s.TransCycles
	a.st.DispatchCount += s.DispatchCount
	a.st.TBCount += s.TBCount
	a.st.StaticCovered += s.StaticCovered
	a.st.StaticTotal += s.StaticTotal
	a.st.DynCovered += s.DynCovered
	a.st.DynTotal += s.DynTotal
	a.st.RuleApplyFails += s.RuleApplyFails
	a.st.ChainHits += s.ChainHits
	a.cycles += s.TotalCycles()
	for _, n := range s.RuleHitsByLen {
		a.ruleHits += n
	}
	a.tier.InterpDispatches += t.InterpDispatches
	a.tier.ThreadedDispatches += t.ThreadedDispatches
	a.tier.NativeDispatches += t.NativeDispatches
	a.tier.Promotions += t.Promotions
	a.tier.NativePromotions += t.NativePromotions
	a.tier.NativeBailouts += t.NativeBailouts
}

// report sets the dbt.* and rules coverage metrics; times are per op,
// counts per engine run.
func (a *engineAgg) report(o *outcome, ops int) {
	if a.runs == 0 {
		return
	}
	runs := float64(a.runs)
	s, t := &a.st, &a.tier
	o.values["dbt.translate_ms"] = ms(a.translate) / float64(ops)
	o.values["dbt.exec_ms"] = ms(a.wall-a.translate) / float64(ops)
	o.values["dbt.ns_per_guest_instr"] = float64(a.wall.Nanoseconds()) / float64(max(1, s.GuestInstrs))
	o.values["dbt.tb_count"] = float64(s.TBCount) / runs
	o.values["dbt.dispatches"] = float64(s.DispatchCount) / runs
	o.values["dbt.chain_hit_frac"] = ratio(s.ChainHits, s.DispatchCount)
	tiers := t.InterpDispatches + t.ThreadedDispatches + t.NativeDispatches
	o.values["dbt.tier.interp_frac"] = ratio(t.InterpDispatches, tiers)
	o.values["dbt.tier.threaded_frac"] = ratio(t.ThreadedDispatches, tiers)
	o.values["dbt.tier.native_frac"] = ratio(t.NativeDispatches, tiers)
	o.values["dbt.tier.promotions"] = float64(t.Promotions) / runs
	o.values["dbt.tier.native_promotions"] = float64(t.NativePromotions) / runs
	o.values["dbt.tier.native_bailouts"] = float64(t.NativeBailouts) / runs
	o.values["rules.dyn_coverage"] = ratio(s.DynCovered, s.DynTotal)
	o.values["rules.static_coverage"] = ratio(s.StaticCovered, s.StaticTotal)
	o.values["rules.apply_fail_frac"] = ratio(s.RuleApplyFails, s.RuleApplyFails+a.ruleHits)
	o.values["dbt.host_instrs_per_guest"] = ratio(s.HostInstrs, s.GuestInstrs)
	o.values["dbt.trans_cycle_frac"] = ratio(s.TransCycles, a.cycles)
}

// memAgg sums Go runtime allocation and GC pause deltas over traced ops.
type memAgg struct {
	alloc, pause uint64
	ops          int
	before       runtime.MemStats
}

func (m *memAgg) start() { runtime.ReadMemStats(&m.before) }

func (m *memAgg) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.alloc += after.TotalAlloc - m.before.TotalAlloc
	m.pause += after.PauseTotalNs - m.before.PauseTotalNs
	m.ops += ops
}

func (m *memAgg) report(o *outcome) {
	if m.ops == 0 {
		return
	}
	o.values["go.alloc_mb_per_op"] = float64(m.alloc) / 1e6 / float64(m.ops)
	o.values["go.gc_pause_ms"] = float64(m.pause) / 1e6 / float64(m.ops)
}

// allocBytes returns the bytes the Go runtime has allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssMB returns the process's resident set (VmRSS) in MB, or the Go
// runtime's reserved memory where /proc is unavailable.
func rssMB() float64 {
	if v := procField("/proc/self/status", "VmRSS:"); v != "" {
		kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
		if err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// procField returns the trimmed value after the first line of path that
// starts with key, or "".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			return strings.TrimSpace(strings.TrimPrefix(line, key))
		}
	}
	return ""
}

// machineFingerprint identifies the machine and the code a result came
// from, so a later comparison can tell a machine change from a code
// change. The source hash covers every Go source and module file under
// the working directory (the checkout root).
func machineFingerprint() map[string]any {
	cpu := procField("/proc/cpuinfo", "model name")
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     strings.TrimSpace(strings.TrimPrefix(cpu, ":")),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit(),
		"source_sha256": sourceHash(),
	}
}

// gitCommit reads HEAD from .git without running git; "" outside a
// repository.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".s" || ext == ".mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime returns the CPU time the process has used, user plus system,
// across all threads.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPUTime returns the CPU time the calling OS thread has used; the
// caller locks its goroutine to the thread.
func threadCPUTime() time.Duration { return rusage(rusageThread) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
