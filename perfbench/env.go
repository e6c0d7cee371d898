package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/learn"
	"dbtrules/prog"
	"dbtrules/rules"
)

// maxGuestInstrs bounds every guest run; the longest ref input retires
// well under a tenth of it.
const maxGuestInstrs = 4_000_000_000

// guestOpts is the paper's guest configuration: LLVM-style code at O2.
var guestOpts = codegen.Options{Style: codegen.StyleLLVM, OptLevel: 2}

// program is one corpus benchmark compiled for both ISAs, with the guest
// seed argument this run passes to bench(n, seed).
type program struct {
	bench   *corpus.Benchmark
	guest   *prog.ARM
	host    *prog.X86
	seedArg uint32
}

func (p *program) name() string { return p.bench.Name }

// input is the argument n of bench(n, seed) for a workload input.
func (p *program) input(ref bool) uint32 {
	if ref {
		return uint32(p.bench.RefN)
	}
	return uint32(p.bench.TestN)
}

func (p *program) pair() learn.Pair {
	return learn.Pair{Name: p.bench.Name, Guest: p.guest, Host: p.host}
}

// expect is the reference result of one guest run: r0 and the number of
// guest instructions the ARM interpreter retired.
type expect struct {
	ret    uint32
	instrs uint64
}

// checkRun compares an engine run against the reference interpreter's
// result; a non-nil error is one failed op.
func checkRun(want expect, ret uint32, instrs uint64, err error) error {
	switch {
	case err != nil:
		return err
	case ret != want.ret:
		return fmt.Errorf("ret %d, reference %d", int32(ret), int32(want.ret))
	case instrs != want.instrs:
		return fmt.Errorf("guest_instrs %d, reference %d", instrs, want.instrs)
	}
	return nil
}

// guestSeed derives the guest seed argument for program i from the
// benchmark seed (splitmix64 finaliser), kept in a small positive range.
func guestSeed(seed int64, i int) uint32 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + uint32(z%100000)
}

// rotation is the seeded order in which a workload visits the programs.
func rotation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// compileCorpus compiles all twelve corpus programs; each compile is a
// codegen span of the setup op.
func compileCorpus(tr *tracer, op, parent int, seed int64) ([]*program, error) {
	all := corpus.All()
	out := make([]*program, len(all))
	for i := range all {
		b := &all[i]
		sp := tr.begin(op, parent, "codegen.compile")
		g, h, err := b.Compile(guestOpts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out[i] = &program{bench: b, guest: g, host: h, seedArg: guestSeed(seed, i)}
	}
	return out, nil
}

// referenceRuns computes every program's reference result on one input
// with the plain ARM interpreter — the oracle every op is checked
// against, never the DBT itself.
func referenceRuns(tr *tracer, op, parent int, progs []*program, ref bool) ([]expect, error) {
	out := make([]expect, len(progs))
	for i, p := range progs {
		sp := tr.begin(op, parent, "oracle.run_arm")
		ret, st, err := p.guest.RunARM(nil, "bench", []uint32{p.input(ref), p.seedArg}, maxGuestInstrs)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %v", p.name(), err)
		}
		out[i] = expect{ret: ret, instrs: st.Steps}
	}
	return out, nil
}

// learnCorpus learns every program's rules with one learner, so rule IDs
// are unique across the corpus. learned[i] is program i's rule list.
func learnCorpus(tr *tracer, op, parent int, progs []*program, jobs int) [][]*rules.Rule {
	l := learn.NewLearner(&learn.Options{Jobs: jobs})
	learned := make([][]*rules.Rule, len(progs))
	for i, p := range progs {
		sp := tr.begin(op, parent, "learn.program")
		learned[i], _ = l.LearnProgram(p.guest, p.host)
		tr.end(sp)
	}
	return learned
}

// leaveOneOut returns program target's rule store: the rules learned from
// every other program (§6 of the paper), deduplicated by the store as
// `rulelearn -exclude` does before it writes a rule file.
func leaveOneOut(learned [][]*rules.Rule, target int) *rules.Store {
	s := rules.NewStore()
	for i, rs := range learned {
		if i != target {
			s.AddAll(rs)
		}
	}
	return s
}

// selfTest runs the runtime rule gate dbtrun applies to rule files and
// returns the rules that pass plus the number rejected.
func selfTest(list []*rules.Rule) ([]*rules.Rule, int) {
	ok := make([]*rules.Rule, 0, len(list))
	for _, r := range list {
		if r.SelfTest(8, 1) == nil {
			ok = append(ok, r)
		}
	}
	return ok, len(list) - len(ok)
}

// ruleFile marshals a rule list to the on-disk rule format.
func ruleFile(list []*rules.Rule) ([]byte, error) {
	var buf bytes.Buffer
	if err := rules.WriteRules(&buf, list); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// modelledSpeedup is the geomean over programs of qemu-backend modelled
// cycles over rules-backend modelled cycles (Fig 8's series).
func modelledSpeedup(progs []*program, ref bool, rulesCycles []uint64) (float64, error) {
	ratios := make([]float64, len(progs))
	for i, p := range progs {
		if i >= len(rulesCycles) || rulesCycles[i] == 0 {
			return 0, fmt.Errorf("no rules-backend run of %s", p.name())
		}
		e := dbt.NewEngine(p.guest, dbt.BackendQEMU, nil)
		if _, err := e.Run("bench", []uint32{p.input(ref), p.seedArg}, maxGuestInstrs); err != nil {
			return 0, fmt.Errorf("qemu run %s: %v", p.name(), err)
		}
		ratios[i] = float64(e.Stats.TotalCycles()) / float64(rulesCycles[i])
	}
	return geomean(ratios), nil
}
