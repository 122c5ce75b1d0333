package ir

import (
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
)

func TestLiftCoversAllOpcodes(t *testing.T) {
	tests := []struct {
		in   isa.Inst
		want string
	}{
		{isa.Inst{Op: isa.OpMOV, Rd: isa.R5, Rm: isa.R0}, "R5 = R0"},
		{isa.Inst{Op: isa.OpMOV, Rd: isa.R2, Imm: 0x200, HasImm: true}, "R2 = 0x200"},
		{isa.Inst{Op: isa.OpLDR, Rd: isa.R1, Rn: isa.R5, Imm: 0x4C, HasImm: true}, "R1 = mem4[R5+76]"},
		{isa.Inst{Op: isa.OpLDRB, Rd: isa.R1, Rn: isa.R5, HasImm: true}, "R1 = mem1[R5+0]"},
		{isa.Inst{Op: isa.OpSTR, Rd: isa.R1, Rn: isa.SP, Imm: 8, HasImm: true}, "mem4[SP+8] = R1"},
		{isa.Inst{Op: isa.OpSTRB, Rd: isa.R0, Rn: isa.R4, HasImm: true}, "mem1[R4+0] = R0"},
		{isa.Inst{Op: isa.OpADD, Rd: isa.R0, Rn: isa.SP, Imm: 0x18, HasImm: true}, "R0 = SP + 0x18"},
		{isa.Inst{Op: isa.OpSUB, Rd: isa.SP, Rn: isa.SP, Imm: 0x118, HasImm: true}, "SP = SP - 0x118"},
		{isa.Inst{Op: isa.OpMUL, Rd: isa.R3, Rn: isa.R3, Rm: isa.R4}, "R3 = R3 * R4"},
		{isa.Inst{Op: isa.OpAND, Rd: isa.R10, Rn: isa.R3, Imm: 7, HasImm: true}, "R10 = R3 & 0x7"},
		{isa.Inst{Op: isa.OpORR, Rd: isa.R6, Rn: isa.R6, Rm: isa.R2}, "R6 = R6 | R2"},
		{isa.Inst{Op: isa.OpEOR, Rd: isa.R1, Rn: isa.R1, Rm: isa.R1}, "R1 = R1 ^ R1"},
		{isa.Inst{Op: isa.OpLSL, Rd: isa.R2, Rn: isa.R2, Imm: 8, HasImm: true}, "R2 = R2 << 0x8"},
		{isa.Inst{Op: isa.OpLSR, Rd: isa.R2, Rn: isa.R2, Imm: 16, HasImm: true}, "R2 = R2 >> 0x10"},
		{isa.Inst{Op: isa.OpCMP, Rd: isa.R0, Imm: 8, HasImm: true}, "flags = cmp(R0, 0x8)"},
		{isa.Inst{Op: isa.OpB, Cond: isa.CondEQ, Target: 0x670BC}, "if EQ goto 0x670bc"},
		{isa.Inst{Op: isa.OpB, Target: 0x1000}, "goto 0x1000"},
		{isa.Inst{Op: isa.OpBL, Target: 0x8000}, "call 0x8000"},
		{isa.Inst{Op: isa.OpBLX, Rm: isa.R12}, "call [R12]"},
		{isa.Inst{Op: isa.OpBX}, "ret"},
		{isa.Inst{Op: isa.OpNOP}, "nop"},
	}
	for _, tt := range tests {
		if got := Lift(tt.in).String(); got != tt.want {
			t.Errorf("Lift(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestExprOpMapping(t *testing.T) {
	want := map[Oper]expr.Op{
		OperAdd: expr.OpAdd, OperSub: expr.OpSub, OperMul: expr.OpMul,
		OperAnd: expr.OpAnd, OperOr: expr.OpOr, OperXor: expr.OpXor,
		OperShl: expr.OpShl, OperShr: expr.OpShr,
	}
	for o, e := range want {
		if o.ExprOp() != e {
			t.Errorf("%v.ExprOp() = %v, want %v", o, o.ExprOp(), e)
		}
	}
}

func TestValString(t *testing.T) {
	if R(isa.R3).String() != "R3" {
		t.Error("register operand")
	}
	if Imm(255).String() != "0xff" {
		t.Errorf("imm operand: %s", Imm(255))
	}
}
