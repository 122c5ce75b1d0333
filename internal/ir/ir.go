// Package ir defines the architecture-neutral intermediate representation
// that DTaint's analyses consume, standing in for the VEX IR the paper
// lifts firmware binaries into (Section III-B: "we first transfer the
// binary executable file into an intermediate representation").
//
// Every machine instruction lifts to one IR statement over registers and
// memory; after lifting, nothing downstream depends on the architecture
// flavor except the calling convention.
package ir

import (
	"fmt"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
)

// Val is an operand: a register or an immediate constant.
type Val struct {
	Reg   isa.Reg
	Imm   int64
	IsImm bool
}

// R returns a register operand.
func R(r isa.Reg) Val { return Val{Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Val { return Val{Imm: v, IsImm: true} }

// String implements fmt.Stringer.
func (v Val) String() string {
	if v.IsImm {
		return fmt.Sprintf("%#x", v.Imm)
	}
	return v.Reg.String()
}

// Stmt is one IR statement.
type Stmt interface {
	irStmt()
	String() string
}

// Move assigns a value to a register: Dst = Src.
type Move struct {
	Dst isa.Reg
	Src Val
}

// Load reads Size bytes of memory: Dst = mem[Base + Off].
type Load struct {
	Dst  isa.Reg
	Base isa.Reg
	Off  int32
	Size int // 1 or 4
}

// Store writes Size bytes of memory: mem[Base + Off] = Src.
type Store struct {
	Src  Val
	Base isa.Reg
	Off  int32
	Size int
}

// BinOp computes Dst = A op B.
type BinOp struct {
	Dst  isa.Reg
	Op   Oper
	A, B Val
}

// Oper is an arithmetic/logic operator in the IR.
type Oper int

// IR operators.
const (
	OperAdd Oper = iota + 1
	OperSub
	OperMul
	OperAnd
	OperOr
	OperXor
	OperShl
	OperShr
)

var operNames = map[Oper]string{
	OperAdd: "+", OperSub: "-", OperMul: "*", OperAnd: "&",
	OperOr: "|", OperXor: "^", OperShl: "<<", OperShr: ">>",
}

// String implements fmt.Stringer.
func (o Oper) String() string {
	if s, ok := operNames[o]; ok {
		return s
	}
	return "?"
}

// Compare sets the condition flags from A compared with B.
type Compare struct {
	A, B Val
}

// Branch transfers control to Target when Cond holds (CondAL is
// unconditional).
type Branch struct {
	Cond   isa.Cond
	Target uint32
}

// Call invokes a function: direct (Target) or indirect (through Reg).
type Call struct {
	Target   uint32
	Indirect bool
	Reg      isa.Reg
}

// Ret returns to the caller.
type Ret struct{}

// Nop does nothing.
type Nop struct{}

func (Move) irStmt()    {}
func (Load) irStmt()    {}
func (Store) irStmt()   {}
func (BinOp) irStmt()   {}
func (Compare) irStmt() {}
func (Branch) irStmt()  {}
func (Call) irStmt()    {}
func (Ret) irStmt()     {}
func (Nop) irStmt()     {}

// String implements fmt.Stringer.
func (s Move) String() string { return fmt.Sprintf("%s = %s", s.Dst, s.Src) }

// String implements fmt.Stringer.
func (s Load) String() string {
	return fmt.Sprintf("%s = mem%d[%s%+d]", s.Dst, s.Size, s.Base, s.Off)
}

// String implements fmt.Stringer.
func (s Store) String() string {
	return fmt.Sprintf("mem%d[%s%+d] = %s", s.Size, s.Base, s.Off, s.Src)
}

// String implements fmt.Stringer.
func (s BinOp) String() string {
	return fmt.Sprintf("%s = %s %s %s", s.Dst, s.A, s.Op, s.B)
}

// String implements fmt.Stringer.
func (s Compare) String() string { return fmt.Sprintf("flags = cmp(%s, %s)", s.A, s.B) }

// String implements fmt.Stringer.
func (s Branch) String() string {
	if s.Cond == isa.CondAL {
		return fmt.Sprintf("goto %#x", s.Target)
	}
	return fmt.Sprintf("if %s goto %#x", s.Cond, s.Target)
}

// String implements fmt.Stringer.
func (s Call) String() string {
	if s.Indirect {
		return fmt.Sprintf("call [%s]", s.Reg)
	}
	return fmt.Sprintf("call %#x", s.Target)
}

// String implements fmt.Stringer.
func (Ret) String() string { return "ret" }

// String implements fmt.Stringer.
func (Nop) String() string { return "nop" }

// Lift translates one decoded machine instruction into its IR statement.
// The lifting is total over valid instructions.
func Lift(in isa.Inst) Stmt {
	switch in.Op {
	case isa.OpNOP:
		return Nop{}
	case isa.OpMOV:
		return Move{Dst: in.Rd, Src: srcVal(in)}
	case isa.OpLDR:
		return Load{Dst: in.Rd, Base: in.Rn, Off: in.Imm, Size: 4}
	case isa.OpLDRB:
		return Load{Dst: in.Rd, Base: in.Rn, Off: in.Imm, Size: 1}
	case isa.OpSTR:
		return Store{Src: R(in.Rd), Base: in.Rn, Off: in.Imm, Size: 4}
	case isa.OpSTRB:
		return Store{Src: R(in.Rd), Base: in.Rn, Off: in.Imm, Size: 1}
	case isa.OpADD:
		return BinOp{Dst: in.Rd, Op: OperAdd, A: R(in.Rn), B: srcVal(in)}
	case isa.OpSUB:
		return BinOp{Dst: in.Rd, Op: OperSub, A: R(in.Rn), B: srcVal(in)}
	case isa.OpMUL:
		return BinOp{Dst: in.Rd, Op: OperMul, A: R(in.Rn), B: srcVal(in)}
	case isa.OpAND:
		return BinOp{Dst: in.Rd, Op: OperAnd, A: R(in.Rn), B: srcVal(in)}
	case isa.OpORR:
		return BinOp{Dst: in.Rd, Op: OperOr, A: R(in.Rn), B: srcVal(in)}
	case isa.OpEOR:
		return BinOp{Dst: in.Rd, Op: OperXor, A: R(in.Rn), B: srcVal(in)}
	case isa.OpLSL:
		return BinOp{Dst: in.Rd, Op: OperShl, A: R(in.Rn), B: srcVal(in)}
	case isa.OpLSR:
		return BinOp{Dst: in.Rd, Op: OperShr, A: R(in.Rn), B: srcVal(in)}
	case isa.OpCMP:
		return Compare{A: R(in.Rd), B: srcVal(in)}
	case isa.OpB:
		return Branch{Cond: in.Cond, Target: in.Target}
	case isa.OpBL:
		return Call{Target: in.Target}
	case isa.OpBLX:
		return Call{Indirect: true, Reg: in.Rm}
	case isa.OpBX:
		return Ret{}
	}
	return Nop{}
}

func srcVal(in isa.Inst) Val {
	if in.HasImm {
		return Imm(int64(in.Imm))
	}
	return R(in.Rm)
}

// ExprOp maps an IR operator onto the symbolic expression operator.
func (o Oper) ExprOp() expr.Op {
	switch o {
	case OperAdd:
		return expr.OpAdd
	case OperSub:
		return expr.OpSub
	case OperMul:
		return expr.OpMul
	case OperAnd:
		return expr.OpAnd
	case OperOr:
		return expr.OpOr
	case OperXor:
		return expr.OpXor
	case OperShl:
		return expr.OpShl
	case OperShr:
		return expr.OpShr
	}
	return expr.OpAdd
}
