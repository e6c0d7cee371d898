package x86

import (
	"errors"
	"testing"
)

// TestCheckInstrRejectsInvalid: every operand shape Step used to panic on
// is a typed *OperandError before execution, from CheckInstr and from
// CheckCode (which reports the offending index), while the valid
// counterpart of each shape passes.
func TestCheckInstrRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		in   Instr
	}{
		{"movb to 32-bit register", Instr{Op: MOVB, Src: ImmOp(1), Dst: RegOp(EAX)}},
		{"lea of non-memory operand", Instr{Op: LEA, Src: RegOp(EAX), Dst: RegOp(EBX)}},
		{"register shift count", Instr{Op: SHL, Src: RegOp(ECX), Dst: RegOp(EAX)}},
		{"setcc to 32-bit register", Instr{Op: SETCC, CC: E, Dst: RegOp(EAX)}},
		{"read of empty operand", Instr{Op: ADD, Dst: RegOp(EAX)}},
		{"write to immediate", Instr{Op: MOV, Src: RegOp(EAX), Dst: ImmOp(4)}},
		{"unknown condition", Instr{Op: JCC, CC: CC(0xa), Target: 3}},
		{"placeholder register", Instr{Op: MOV, Src: RegOp(Reg(9)), Dst: RegOp(EAX)}},
		{"unknown op", Instr{Op: Op(200)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var oe *OperandError
			if err := CheckInstr(tc.in); !errors.As(err, &oe) {
				t.Errorf("CheckInstr(%v) = %v, want *OperandError", tc.in, err)
			}
			if err := CheckCode([]Instr{{Op: NOT, Dst: RegOp(EBX)}, tc.in}); !errors.As(err, &oe) {
				t.Errorf("CheckCode accepted %v: %v", tc.in, err)
			}
		})
	}
	valid := []Instr{
		{Op: MOVB, Src: ImmOp(1), Dst: Reg8Op(EAX)},
		{Op: LEA, Src: MemOp(MemRef{Disp: 4, HasBase: true, Base: EBP}), Dst: RegOp(EBX)},
		{Op: SHL, Src: ImmOp(3), Dst: RegOp(EAX)},
		{Op: SETCC, CC: E, Dst: Reg8Op(EAX)},
		{Op: ADD, Src: ImmOp(1), Dst: RegOp(EAX)},
		{Op: MOV, Src: RegOp(EAX), Dst: MemOp(MemRef{Disp: 0x6000})},
		{Op: JCC, CC: NE, Target: 0},
	}
	if err := CheckCode(valid); err != nil {
		t.Errorf("CheckCode rejected a valid program: %v", err)
	}
}
