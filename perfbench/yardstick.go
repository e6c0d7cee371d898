package main

import (
	"fmt"
	"runtime"
	"time"

	"dbtrules/arm"
	"dbtrules/prog"
)

// yardNominalMIPS is the yardstick speed that times are scaled to: a
// run's CPU times are reported as they would read on a machine where the
// yardstick, sampled throughout the run, runs at this many guest MIPS.
const yardNominalMIPS = 60

// yardScale returns the factor that converts a run's CPU times, set-up
// included, to the yardstick's nominal speed — the median of its samples over
// yardNominalMIPS, or 1 without samples (a traced run) — and records the
// median in the result's context. The run's median, not each op's own
// sample, because a sample of tens of milliseconds is noisier than the op
// it follows: scaling test-cold's ops one by one doubled their spread
// within a run.
func yardScale(o *outcome, samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	m := quartilesOf(samples).Median
	o.context["yardstick_mips"] = m
	return m / yardNominalMIPS
}

// The yardstick measures the shared host's speed for interpreter-like
// work, which moved by a quarter between runs of the same code on a
// 2-vCPU VM. It is a frozen copy of the ARM reference interpreter
// (arm.State.Step over a paged mach.Memory), kept here so that a change
// to the arm or mach packages cannot move the scale the benchmark
// measures with. It runs the corpus's own guests, so it touches memory as
// the ops' guests do: per 10-second window its log speed correlates with
// the DBT's at 0.8-0.9, where a synthetic kernel with an L1-resident
// working set correlates at 0.2-0.7.

// yardPageShift is log2 of mach's page size.
const yardPageShift = 12

type yardMem struct {
	pages    map[uint32]*[1 << yardPageShift]byte
	lastPN   uint32
	lastPage *[1 << yardPageShift]byte
}

func (m *yardMem) page(addr uint32, create bool) *[1 << yardPageShift]byte {
	pn := addr >> yardPageShift
	if p := m.lastPage; p != nil && pn == m.lastPN {
		return p
	}
	p := m.pages[pn]
	if p == nil && create {
		p = new([1 << yardPageShift]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

func (m *yardMem) load8(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(1<<yardPageShift-1)]
	}
	return 0
}

func (m *yardMem) store8(addr uint32, b byte) {
	m.page(addr, true)[addr&(1<<yardPageShift-1)] = b
}

func (m *yardMem) read32(addr uint32) uint32 {
	if off := addr & (1<<yardPageShift - 1); off <= 1<<yardPageShift-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.load8(addr+i)) << (8 * i)
	}
	return v
}

func (m *yardMem) write32(addr, v uint32) {
	if off := addr & (1<<yardPageShift - 1); off <= 1<<yardPageShift-4 {
		p := m.page(addr, true)
		p[off], p[off+1], p[off+2], p[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.store8(addr+i, byte(v>>(8*i)))
	}
}

type yardState struct {
	r          [arm.NumRegs]uint32
	n, z, c, v bool
	mem        yardMem
	steps      uint64
}

func (s *yardState) cond(c arm.Cond) bool {
	switch c {
	case arm.EQ:
		return s.z
	case arm.NE:
		return !s.z
	case arm.CS:
		return s.c
	case arm.CC:
		return !s.c
	case arm.MI:
		return s.n
	case arm.PL:
		return !s.n
	case arm.VS:
		return s.v
	case arm.VC:
		return !s.v
	case arm.HI:
		return s.c && !s.z
	case arm.LS:
		return !s.c || s.z
	case arm.GE:
		return s.n == s.v
	case arm.LT:
		return s.n != s.v
	case arm.GT:
		return !s.z && s.n == s.v
	case arm.LE:
		return s.z || s.n != s.v
	}
	return true
}

func (s *yardState) operand2(o arm.Operand2) (val uint32, carry, valid bool) {
	if o.IsImm {
		return o.Imm, false, false
	}
	v, n := s.r[o.Reg], uint32(o.Shift.Amount)
	if o.Shift.None() {
		return v, false, false
	}
	switch o.Shift.Kind {
	case arm.LSL:
		return v << n, v>>(32-n)&1 == 1, true
	case arm.LSR:
		return v >> n, v>>(n-1)&1 == 1, true
	case arm.ASR:
		return uint32(int32(v) >> n), v>>(n-1)&1 == 1, true
	}
	return v>>n | v<<(32-n), v>>(n-1)&1 == 1, true
}

func (s *yardState) addr(m arm.Mem) uint32 {
	a := s.r[m.Base]
	if m.HasIndex {
		idx := s.r[m.Index]
		switch m.Shift.Kind {
		case arm.LSL:
			idx <<= m.Shift.Amount
		case arm.LSR:
			idx >>= m.Shift.Amount
		case arm.ASR:
			idx = uint32(int32(idx) >> m.Shift.Amount)
		case arm.ROR:
			n := uint32(m.Shift.Amount)
			idx = idx>>n | idx<<(32-n)
		}
		if m.NegIndex {
			a -= idx
		} else {
			a += idx
		}
	}
	return a + uint32(m.Imm)
}

func (s *yardState) setNZ(v uint32) { s.n, s.z = v>>31 == 1, v == 0 }

func (s *yardState) step(in *arm.Instr, pc int) (int, error) {
	s.steps++
	if !s.cond(in.Cond) {
		return pc + 1, nil
	}
	next := pc + 1
	switch in.Op {
	case arm.AND, arm.EOR, arm.ORR, arm.BIC, arm.MOV, arm.MVN, arm.TST, arm.TEQ:
		val, shC, shValid := s.operand2(in.Op2)
		var res uint32
		switch in.Op {
		case arm.AND, arm.TST:
			res = s.r[in.Rn] & val
		case arm.EOR, arm.TEQ:
			res = s.r[in.Rn] ^ val
		case arm.ORR:
			res = s.r[in.Rn] | val
		case arm.BIC:
			res = s.r[in.Rn] &^ val
		case arm.MOV:
			res = val
		case arm.MVN:
			res = ^val
		}
		if in.SetFlags {
			s.setNZ(res)
			if shValid {
				s.c = shC
			}
		}
		if !in.Op.IsCompare() {
			s.r[in.Rd] = res
		}
	case arm.ADD, arm.ADC, arm.SUB, arm.SBC, arm.RSB, arm.RSC, arm.CMP, arm.CMN:
		val, _, _ := s.operand2(in.Op2)
		a, b, cin := s.r[in.Rn], val, false
		switch in.Op {
		case arm.ADC:
			cin = s.c
		case arm.SUB, arm.CMP:
			b, cin = ^b, true
		case arm.SBC:
			b, cin = ^b, s.c
		case arm.RSB:
			a, b, cin = val, ^s.r[in.Rn], true
		case arm.RSC:
			a, b, cin = val, ^s.r[in.Rn], s.c
		}
		full := uint64(a) + uint64(b)
		if cin {
			full++
		}
		res := uint32(full)
		if in.SetFlags {
			s.setNZ(res)
			s.c, s.v = full>>32 == 1, (a^res)&(b^res)>>31 == 1
		}
		if !in.Op.IsCompare() {
			s.r[in.Rd] = res
		}
	case arm.MUL, arm.MLA:
		res := s.r[in.Rn] * s.r[in.Op2.Reg]
		if in.Op == arm.MLA {
			res += s.r[in.Ra]
		}
		s.r[in.Rd] = res
		if in.SetFlags {
			s.setNZ(res)
		}
	case arm.LDR:
		s.r[in.Rd] = s.mem.read32(s.addr(in.Mem))
	case arm.LDRB:
		s.r[in.Rd] = uint32(s.mem.load8(s.addr(in.Mem)))
	case arm.STR:
		s.mem.write32(s.addr(in.Mem), s.r[in.Rd])
	case arm.STRB:
		s.mem.store8(s.addr(in.Mem), byte(s.r[in.Rd]))
	case arm.B:
		next = int(in.Target)
	case arm.BL:
		s.r[arm.LR] = uint32(pc + 1)
		next = int(in.Target)
	case arm.BX:
		next = int(s.r[in.Rn])
	case arm.PUSH:
		sp := s.r[arm.SP]
		for r := arm.Reg(arm.NumRegs) - 1; ; r-- {
			if in.RegList&(1<<r) != 0 {
				sp -= 4
				s.mem.write32(sp, s.r[r])
			}
			if r == 0 {
				break
			}
		}
		s.r[arm.SP] = sp
	case arm.POP:
		sp := s.r[arm.SP]
		for r := arm.Reg(0); r < arm.NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				s.r[r] = s.mem.read32(sp)
				sp += 4
			}
		}
		s.r[arm.SP] = sp
		if in.RegList&(1<<arm.PC) != 0 {
			next = int(s.r[arm.PC])
		}
	default:
		return 0, fmt.Errorf("yardstick: unhandled op %s", in.Op)
	}
	return next, nil
}

// yardJob is one guest run the yardstick makes: bench(args) of guest,
// whose reference result is want.
type yardJob struct {
	guest *prog.ARM
	args  []uint32
	want  expect
}

// yardJobs makes each program's job on one input. The jobs copy the
// reference results, so a test that tampers with them afterwards fails
// the ops, not the yardstick.
func yardJobs(progs []*program, ref bool, exp []expect) []yardJob {
	jobs := make([]yardJob, len(progs))
	for i, p := range progs {
		jobs[i] = yardJob{p.guest, []uint32{p.input(ref), p.seedArg}, exp[i]}
	}
	return jobs
}

// yardstick runs the jobs on the frozen interpreter, as prog.ARM.RunARM
// would, round after round until at least min of CPU time has passed,
// checks every run against its reference result, and returns the speed in
// guest MIPS. It is timed on its goroutine's own thread, so work on other
// threads (learn-swap's subscriber, GC workers) does not count.
func yardstick(jobs []yardJob, min time.Duration) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var steps uint64
	c0 := threadCPUTime()
	for {
		for _, j := range jobs {
			n, err := yardRun(j)
			if err != nil {
				return 0, err
			}
			steps += n
		}
		if d := threadCPUTime() - c0; d >= min && d > 0 {
			return float64(steps) / d.Seconds() / 1e6, nil
		}
	}
}

// yardRun makes one run and returns the instructions it retired.
func yardRun(j yardJob) (uint64, error) {
	f := j.guest.FuncByName("bench")
	if f == nil {
		return 0, fmt.Errorf("yardstick: no bench function")
	}
	s := &yardState{mem: yardMem{pages: map[uint32]*[1 << yardPageShift]byte{}}}
	s.r[arm.SP], s.r[arm.LR] = prog.StackTop, prog.HaltPC
	copy(s.r[:], j.args)
	pc := f.Entry
	for pc >= 0 && pc < len(j.guest.Code) && s.steps < j.want.instrs {
		var err error
		if pc, err = s.step(&j.guest.Code[pc], pc); err != nil {
			return 0, err
		}
	}
	if err := checkRun(j.want, s.r[arm.R0], s.steps, nil); err != nil || pc != prog.HaltPC {
		return 0, fmt.Errorf("yardstick: %v (exit pc %d)", err, pc)
	}
	return s.steps, nil
}
