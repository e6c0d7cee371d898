package x86

import "fmt"

// OperandError reports a structurally invalid instruction: an operand
// combination the interpreter has no semantics for. These used to be
// panics inside State.Step's hot switch ("movb to 32-bit register", "lea
// of non-memory operand", …); they are now detected before execution —
// CheckInstr runs at translate time in the DBT and when rules are loaded —
// so bad host code surfaces as a typed error instead of unwinding the
// execution loop.
type OperandError struct {
	Instr Instr
	Msg   string
}

func (e *OperandError) Error() string {
	return fmt.Sprintf("x86: %s: %s", e.Msg, e.Instr)
}

func operr(in Instr, format string, args ...any) error {
	return &OperandError{Instr: in, Msg: fmt.Sprintf(format, args...)}
}

// regOK reports whether every register an operand names is a real
// machine register (rule templates use Reg values >= NumRegs as parameter
// placeholders; those must never reach execution).
func regOK(o Operand) bool {
	switch o.Kind {
	case KReg, KReg8:
		return o.Reg < NumRegs
	case KMem:
		return (!o.Mem.HasBase || o.Mem.Base < NumRegs) &&
			(!o.Mem.HasIndex || o.Mem.Index < NumRegs)
	}
	return true
}

// readable reports whether State.read accepts the operand.
func readable(o Operand) bool {
	return o.Kind == KReg || o.Kind == KReg8 || o.Kind == KImm || o.Kind == KMem
}

// byteReadable reports whether State.readByte accepts the operand.
func byteReadable(o Operand) bool {
	return o.Kind == KReg8 || o.Kind == KImm || o.Kind == KMem
}

// writable reports whether State.write accepts the operand.
func writable(o Operand) bool {
	return o.Kind == KReg || o.Kind == KReg8 || o.Kind == KMem
}

// ccValid reports whether c is one of the modeled condition codes
// (CondHolds panics on anything else).
func ccValid(c CC) bool {
	_, ok := ccNames[c]
	return ok
}

// CheckInstr validates one instruction against the interpreter's
// semantics, returning a *OperandError for any shape State.Step cannot
// execute. It is the translate-time home of the operand checks Step used
// to perform with panics on the per-step hot path.
func CheckInstr(in Instr) error {
	if !regOK(in.Src) || !regOK(in.Dst) {
		return operr(in, "register out of range")
	}
	switch in.Op {
	case MOV:
		if !readable(in.Src) {
			return operr(in, "read of empty operand")
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case MOVB:
		if !byteReadable(in.Src) {
			return operr(in, "byte read of operand kind %d", in.Src.Kind)
		}
		if in.Dst.Kind != KReg8 && in.Dst.Kind != KMem {
			return operr(in, "movb to 32-bit register")
		}
	case MOVZBL, MOVSBL:
		if !byteReadable(in.Src) {
			return operr(in, "byte read of operand kind %d", in.Src.Kind)
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case LEA:
		if in.Src.Kind != KMem {
			return operr(in, "lea of non-memory operand")
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case ADD, ADC, SUB, SBB, AND, OR, XOR, IMUL:
		if !readable(in.Src) || !readable(in.Dst) {
			return operr(in, "read of empty operand")
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case CMP, TEST:
		if !readable(in.Src) || !readable(in.Dst) {
			return operr(in, "read of empty operand")
		}
	case NOT, NEG, INC, DEC:
		if !readable(in.Dst) {
			return operr(in, "read of empty operand")
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case SHL, SHR, SAR:
		if in.Src.Kind != KImm {
			return operr(in, "only immediate shift counts are modeled")
		}
		if !readable(in.Dst) {
			return operr(in, "read of empty operand")
		}
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case JMP, RET, PUSHF, POPF:
		// No operand constraints: targets are bounds-checked by the
		// execution loop itself.
	case JCC:
		if !ccValid(in.CC) {
			return operr(in, "unknown condition %d", in.CC)
		}
	case CALL:
		// Target only.
	case PUSH:
		if !readable(in.Dst) {
			return operr(in, "read of empty operand")
		}
	case POP:
		if !writable(in.Dst) {
			return operr(in, "write to non-writable operand")
		}
	case SETCC:
		if !ccValid(in.CC) {
			return operr(in, "unknown condition %d", in.CC)
		}
		if in.Dst.Kind != KReg8 && in.Dst.Kind != KMem {
			return operr(in, "setcc needs a byte destination")
		}
	default:
		return operr(in, "unhandled op %d", uint8(in.Op))
	}
	return nil
}

// CheckCode validates a whole instruction sequence, reporting the index
// of the first invalid instruction in the error.
func CheckCode(code []Instr) error {
	for i, in := range code {
		if err := CheckInstr(in); err != nil {
			return fmt.Errorf("instruction %d: %w", i, err)
		}
	}
	return nil
}
