package x86

import (
	"fmt"

	"dbtrules/mach"
)

// State is a concrete x86 machine state. Control flow uses instruction
// indices (the repo-wide convention); data memory is byte-addressed.
type State struct {
	R              [NumRegs]uint32
	CF, ZF, SF, OF bool
	Mem            *mach.Memory
	// Steps counts executed instructions.
	Steps uint64
}

// NewState returns a state with fresh memory.
func NewState() *State {
	return &State{Mem: mach.NewMemory()}
}

// CondHolds evaluates a condition code against the flags.
func (s *State) CondHolds(c CC) bool {
	switch c {
	case O:
		return s.OF
	case NO:
		return !s.OF
	case B:
		return s.CF
	case AE:
		return !s.CF
	case E:
		return s.ZF
	case NE:
		return !s.ZF
	case BE:
		return s.CF || s.ZF
	case A:
		return !s.CF && !s.ZF
	case S:
		return s.SF
	case NS:
		return !s.SF
	case L:
		return s.SF != s.OF
	case GE:
		return s.SF == s.OF
	case LE:
		return s.ZF || s.SF != s.OF
	case G:
		return !s.ZF && s.SF == s.OF
	default:
		panic(fmt.Sprintf("x86: unknown condition %d", c))
	}
}

// EA computes the effective address of a memory reference.
func (s *State) EA(m MemRef) uint32 {
	addr := uint32(m.Disp)
	if m.HasBase {
		addr += s.R[m.Base]
	}
	if m.HasIndex {
		addr += s.R[m.Index] * uint32(m.Scale)
	}
	return addr
}

// read returns the 32-bit value of a source operand.
func (s *State) read(o Operand) uint32 {
	switch o.Kind {
	case KReg:
		return s.R[o.Reg]
	case KReg8:
		return s.R[o.Reg] & 0xff
	case KImm:
		return o.Imm
	case KMem:
		return s.Mem.Read32(s.EA(o.Mem))
	default:
		panic("x86: read of empty operand")
	}
}

func (s *State) readByte(o Operand) uint32 {
	switch o.Kind {
	case KReg8:
		return s.R[o.Reg] & 0xff
	case KImm:
		return o.Imm & 0xff
	case KMem:
		return uint32(s.Mem.Load8(s.EA(o.Mem)))
	default:
		panic(fmt.Sprintf("x86: byte read of operand kind %d", o.Kind))
	}
}

// write stores a 32-bit value into a destination operand.
func (s *State) write(o Operand, v uint32) {
	switch o.Kind {
	case KReg:
		s.R[o.Reg] = v
	case KReg8:
		s.R[o.Reg] = s.R[o.Reg]&^0xff | v&0xff
	case KMem:
		s.Mem.Write32(s.EA(o.Mem), v)
	default:
		panic("x86: write to non-writable operand")
	}
}

func (s *State) setSZ(v uint32) {
	s.SF = v>>31 == 1
	s.ZF = v == 0
}

// addc performs a + b + cin, setting CF/OF/SF/ZF.
func (s *State) addc(a, b uint32, cin bool) uint32 {
	var ci uint64
	if cin {
		ci = 1
	}
	full := uint64(a) + uint64(b) + ci
	res := uint32(full)
	s.CF = full>>32 == 1
	s.OF = (a^res)&(b^res)>>31 == 1
	s.setSZ(res)
	return res
}

// subb performs a - b - bin, setting CF (borrow)/OF/SF/ZF.
func (s *State) subb(a, b uint32, bin bool) uint32 {
	res := s.addc(a, ^b, !bin)
	s.CF = !s.CF // x86 subtraction carry is a borrow
	return res
}

// Step executes one instruction at index pc and returns the next index.
func (s *State) Step(in Instr, pc int) int {
	s.Steps++
	next := pc + 1
	switch in.Op {
	case MOV:
		s.write(in.Dst, s.read(in.Src))
	case MOVB:
		// Operand validation (movb to a 32-bit register, byte reads of
		// unreadable operands, …) happens before execution via CheckInstr,
		// so the hot switch carries only the valid shapes.
		v := s.readByte(in.Src)
		if in.Dst.Kind == KReg8 {
			s.R[in.Dst.Reg] = s.R[in.Dst.Reg]&^0xff | v
		} else { // KMem, by CheckInstr
			s.Mem.Store8(s.EA(in.Dst.Mem), byte(v))
		}
	case MOVZBL:
		s.write(in.Dst, s.readByte(in.Src))
	case MOVSBL:
		v := s.readByte(in.Src)
		s.write(in.Dst, uint32(int32(int8(v))))
	case LEA:
		s.write(in.Dst, s.EA(in.Src.Mem))
	case ADD:
		s.write(in.Dst, s.addc(s.read(in.Dst), s.read(in.Src), false))
	case ADC:
		s.write(in.Dst, s.addc(s.read(in.Dst), s.read(in.Src), s.CF))
	case SUB:
		s.write(in.Dst, s.subb(s.read(in.Dst), s.read(in.Src), false))
	case SBB:
		s.write(in.Dst, s.subb(s.read(in.Dst), s.read(in.Src), s.CF))
	case CMP:
		s.subb(s.read(in.Dst), s.read(in.Src), false)
	case AND, OR, XOR, TEST:
		a, b := s.read(in.Dst), s.read(in.Src)
		var res uint32
		switch in.Op {
		case AND, TEST:
			res = a & b
		case OR:
			res = a | b
		case XOR:
			res = a ^ b
		}
		s.CF, s.OF = false, false
		s.setSZ(res)
		if in.Op != TEST {
			s.write(in.Dst, res)
		}
	case NOT:
		s.write(in.Dst, ^s.read(in.Dst))
	case NEG:
		v := s.read(in.Dst)
		res := -v
		s.CF = v != 0
		s.OF = v == 0x80000000
		s.setSZ(res)
		s.write(in.Dst, res)
	case INC:
		v := s.read(in.Dst)
		res := v + 1
		s.OF = v == 0x7fffffff
		s.setSZ(res) // CF preserved — the §5 adds-vs-incl gap
		s.write(in.Dst, res)
	case DEC:
		v := s.read(in.Dst)
		res := v - 1
		s.OF = v == 0x80000000
		s.setSZ(res)
		s.write(in.Dst, res)
	case SHL, SHR, SAR:
		// Only immediate shift counts are modeled, enforced by CheckInstr.
		n := in.Src.Imm & 31
		if n == 0 {
			break
		}
		v := s.read(in.Dst)
		var res uint32
		switch in.Op {
		case SHL:
			res = v << n
			s.CF = v>>(32-n)&1 == 1
		case SHR:
			res = v >> n
			s.CF = v>>(n-1)&1 == 1
		case SAR:
			res = uint32(int32(v) >> n)
			s.CF = v>>(n-1)&1 == 1
		}
		s.OF = false
		s.setSZ(res)
		s.write(in.Dst, res)
	case IMUL:
		a, b := s.read(in.Dst), s.read(in.Src)
		wide := int64(int32(a)) * int64(int32(b))
		res := uint32(wide)
		ovf := wide != int64(int32(res))
		s.CF, s.OF = ovf, ovf
		s.setSZ(res)
		s.write(in.Dst, res)
	case JMP:
		next = int(in.Target)
	case JCC:
		if s.CondHolds(in.CC) {
			next = int(in.Target)
		}
	case CALL:
		s.R[ESP] -= 4
		s.Mem.Write32(s.R[ESP], uint32(pc+1))
		next = int(in.Target)
	case RET:
		next = int(s.Mem.Read32(s.R[ESP]))
		s.R[ESP] += 4
	case PUSH:
		v := s.read(in.Dst)
		s.R[ESP] -= 4
		s.Mem.Write32(s.R[ESP], v)
	case POP:
		v := s.Mem.Read32(s.R[ESP])
		s.R[ESP] += 4
		s.write(in.Dst, v)
	case SETCC:
		var v uint32
		if s.CondHolds(in.CC) {
			v = 1
		}
		if in.Dst.Kind == KReg8 {
			s.R[in.Dst.Reg] = s.R[in.Dst.Reg]&^0xff | v
		} else { // KMem, by CheckInstr
			s.Mem.Store8(s.EA(in.Dst.Mem), byte(v))
		}
	case PUSHF:
		var fl uint32
		if s.CF {
			fl |= FlagBitCF
		}
		if s.ZF {
			fl |= FlagBitZF
		}
		if s.SF {
			fl |= FlagBitSF
		}
		if s.OF {
			fl |= FlagBitOF
		}
		s.R[ESP] -= 4
		s.Mem.Write32(s.R[ESP], fl)
	case POPF:
		fl := s.Mem.Read32(s.R[ESP])
		s.R[ESP] += 4
		s.CF = fl&FlagBitCF != 0
		s.ZF = fl&FlagBitZF != 0
		s.SF = fl&FlagBitSF != 0
		s.OF = fl&FlagBitOF != 0
	default:
		panic(fmt.Sprintf("x86: Step: unhandled op %s", in.Op))
	}
	return next
}

// Run executes from pc until control leaves [0, len(code)).
func (s *State) Run(code []Instr, pc int, maxSteps uint64) (int, error) {
	start := s.Steps
	for pc >= 0 && pc < len(code) {
		if s.Steps-start >= maxSteps {
			return pc, fmt.Errorf("x86: step budget (%d) exhausted at pc %d", maxSteps, pc)
		}
		pc = s.Step(code[pc], pc)
	}
	return pc, nil
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := *s
	c.Mem = s.Mem.Clone()
	return &c
}
