// Package isa defines the mini 32-bit load/store instruction set that
// stands in for ARM and MIPS machine code in this reproduction.
//
// The paper analyzes firmware binaries for 32-bit ARM and MIPS. Since no
// binary-lifting framework exists for Go's stdlib, we define our own ISA
// with two *architecture flavors* that differ exactly where ARM and MIPS
// differ from DTaint's point of view: instruction encoding (including byte
// order) and calling convention (which registers carry arguments and return
// values). Both flavors decode into the same Inst with one opcode set, so
// everything downstream of Decode is architecture-neutral except the
// calling convention: Inst plays the role VEX IR plays for DTaint.
//
// Instructions are fixed-width 8-byte words: a 4-byte operation word and a
// 4-byte immediate/target word. ArchARM encodes little-endian, ArchMIPS
// big-endian with a permuted field layout.
package isa

import (
	"errors"
	"fmt"
	"strconv"
)

// Arch selects an architecture flavor.
type Arch int

// Architecture flavors.
const (
	ArchARM Arch = iota + 1
	ArchMIPS
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case ArchARM:
		return "ARM"
	case ArchMIPS:
		return "MIPS"
	}
	return "arch?"
}

// Valid reports whether a is a known architecture.
func (a Arch) Valid() bool { return a == ArchARM || a == ArchMIPS }

// Reg is a general-purpose register, R0 through R15.
type Reg uint8

// Register aliases.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // R13: stack pointer
	LR // R14: link register
	PC // R15: program counter (not generally addressable)

	NumRegs = 16
)

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch r {
	case SP:
		return "SP"
	case LR:
		return "LR"
	case PC:
		return "PC"
	}
	return "R" + strconv.Itoa(int(r))
}

// Name returns the register's symbolic name used in the analysis
// (identical to String; registers are uniform across flavors).
func (r Reg) Name() string { return r.String() }

// Opcode identifies the operation of an instruction.
type Opcode uint8

// Opcodes.
const (
	OpInvalid Opcode = iota
	OpMOV            // MOV rd, rm | MOV rd, #imm | MOV rd, =sym
	OpLDR            // LDR rd, [rn, #imm]   (32-bit load)
	OpLDRB           // LDRB rd, [rn, #imm]  (byte load)
	OpSTR            // STR rd, [rn, #imm]   (32-bit store)
	OpSTRB           // STRB rd, [rn, #imm]  (byte store)
	OpADD            // ADD rd, rn, rm|#imm
	OpSUB            // SUB rd, rn, rm|#imm
	OpMUL            // MUL rd, rn, rm|#imm
	OpAND            // AND rd, rn, rm|#imm
	OpORR            // ORR rd, rn, rm|#imm
	OpEOR            // EOR rd, rn, rm|#imm
	OpLSL            // LSL rd, rn, rm|#imm
	OpLSR            // LSR rd, rn, rm|#imm
	OpCMP            // CMP rn, rm|#imm (sets flags)
	OpB              // B target | B<cond> target
	OpBL             // BL target (direct call, return address -> LR)
	OpBLX            // BLX rm (indirect call through register)
	OpBX             // BX LR (return)
	OpNOP            // no operation

	numOpcodes
)

var opcodeNames = [...]string{
	OpInvalid: "INVALID",
	OpMOV:     "MOV",
	OpLDR:     "LDR",
	OpLDRB:    "LDRB",
	OpSTR:     "STR",
	OpSTRB:    "STRB",
	OpADD:     "ADD",
	OpSUB:     "SUB",
	OpMUL:     "MUL",
	OpAND:     "AND",
	OpORR:     "ORR",
	OpEOR:     "EOR",
	OpLSL:     "LSL",
	OpLSR:     "LSR",
	OpCMP:     "CMP",
	OpB:       "B",
	OpBL:      "BL",
	OpBLX:     "BLX",
	OpBX:      "BX",
	OpNOP:     "NOP",
}

// String implements fmt.Stringer.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return "op?"
}

// Cond is a branch condition.
type Cond uint8

// Branch conditions. CondAL (always) is the zero value so unconditional
// instructions need no explicit condition.
const (
	CondAL Cond = iota // always
	CondEQ             // equal
	CondNE             // not equal
	CondLT             // signed less than
	CondGE             // signed greater or equal
	CondGT             // signed greater than
	CondLE             // signed less or equal

	numConds
)

var condNames = [...]string{
	CondAL: "",
	CondEQ: "EQ",
	CondNE: "NE",
	CondLT: "LT",
	CondGE: "GE",
	CondGT: "GT",
	CondLE: "LE",
}

// String implements fmt.Stringer.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "cond?"
}

// Negate returns the opposite condition (EQ<->NE, LT<->GE, GT<->LE).
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondGE:
		return CondLT
	case CondGT:
		return CondLE
	case CondLE:
		return CondGT
	}
	return CondAL
}

// InstSize is the fixed encoded size of every instruction, in bytes.
const InstSize = 8

// Inst is a decoded instruction. The same structure is produced by both
// architecture flavors' decoders.
type Inst struct {
	Op     Opcode
	Cond   Cond   // branch condition for OpB
	Rd     Reg    // destination (or compared register for CMP)
	Rn     Reg    // first source / base register
	Rm     Reg    // second source register (when !HasImm)
	Imm    int32  // immediate operand or memory offset
	HasImm bool   // Imm is used instead of Rm
	Target uint32 // absolute branch/call target for OpB/OpBL
}

// IsBranch reports whether the instruction transfers control (branch,
// call, or return).
func (in Inst) IsBranch() bool {
	switch in.Op {
	case OpB, OpBL, OpBLX, OpBX:
		return true
	}
	return false
}

// IsTerminator reports whether the instruction ends a basic block.
// Calls do not terminate blocks (control returns to the next instruction),
// matching how CFG construction treats them.
func (in Inst) IsTerminator() bool {
	switch in.Op {
	case OpB, OpBX:
		return true
	}
	return false
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case OpNOP:
		return "NOP"
	case OpBX:
		return "BX LR"
	case OpBLX:
		return "BLX " + in.Rm.String()
	case OpB:
		return fmt.Sprintf("B%s 0x%X", in.Cond, in.Target)
	case OpBL:
		return fmt.Sprintf("BL 0x%X", in.Target)
	case OpCMP:
		if in.HasImm {
			return fmt.Sprintf("CMP %s, #%d", in.Rd, in.Imm)
		}
		return fmt.Sprintf("CMP %s, %s", in.Rd, in.Rm)
	case OpMOV:
		if in.HasImm {
			return fmt.Sprintf("MOV %s, #%d", in.Rd, in.Imm)
		}
		return fmt.Sprintf("MOV %s, %s", in.Rd, in.Rm)
	case OpLDR, OpLDRB:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, in.Rd, in.Rn, in.Imm)
	case OpSTR, OpSTRB:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, in.Rd, in.Rn, in.Imm)
	case OpADD, OpSUB, OpMUL, OpAND, OpORR, OpEOR, OpLSL, OpLSR:
		if in.HasImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Rd, in.Rn, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rn, in.Rm)
	}
	return "INVALID"
}

// CallConv describes a flavor's calling convention, as used by the
// function-analysis component to seed symbolic argument values
// (Section III-B: "DTaint uses unique symbolic values to initialize the
// corresponding calling convention").
type CallConv struct {
	// ArgRegs carry the first len(ArgRegs) arguments; further arguments are
	// passed on the stack at SP+0, SP+4, ...
	ArgRegs []Reg
	// RetReg receives the return value.
	RetReg Reg
	// MaxArgs is the total number of tracked arguments (arg0..arg{MaxArgs-1}),
	// register plus stack, matching the paper's arg0-arg9.
	MaxArgs int
}

// Conv returns the calling convention of the flavor.
func (a Arch) Conv() CallConv {
	switch a {
	case ArchMIPS:
		// MIPS o32-like: a0-a3 are R4-R7, return in v0 (R2).
		return CallConv{ArgRegs: []Reg{R4, R5, R6, R7}, RetReg: R2, MaxArgs: 10}
	default:
		// ARM AAPCS-like: R0-R3, return in R0.
		return CallConv{ArgRegs: []Reg{R0, R1, R2, R3}, RetReg: R0, MaxArgs: 10}
	}
}

// Errors returned by the decoders.
var (
	ErrShortCode     = errors.New("isa: code not a multiple of the instruction size")
	ErrBadOpcode     = errors.New("isa: invalid opcode")
	ErrBadRegister   = errors.New("isa: invalid register field")
	ErrBadCondition  = errors.New("isa: invalid condition field")
	ErrUnknownArch   = errors.New("isa: unknown architecture")
	ErrPCNotWritable = errors.New("isa: PC is not a general destination")
)

// Encode encodes the instruction for the flavor.
func Encode(a Arch, in Inst) ([InstSize]byte, error) {
	var out [InstSize]byte
	if in.Op == OpInvalid || in.Op >= numOpcodes {
		return out, fmt.Errorf("%w: %d", ErrBadOpcode, in.Op)
	}
	if in.Cond >= numConds {
		return out, fmt.Errorf("%w: %d", ErrBadCondition, in.Cond)
	}
	if in.Rd >= NumRegs || in.Rn >= NumRegs || in.Rm >= NumRegs {
		return out, ErrBadRegister
	}
	if in.Rd == PC && writesRd(in.Op) {
		return out, ErrPCNotWritable
	}
	var flags uint8
	if in.HasImm {
		flags = 1
	}
	imm := uint32(in.Imm)
	if in.Op == OpB || in.Op == OpBL {
		imm = in.Target
	}
	switch a {
	case ArchARM:
		// Little-endian: [op][cond|flags][rd|rn][rm|0] [imm LE]
		out[0] = byte(in.Op)
		out[1] = byte(in.Cond)<<4 | flags
		out[2] = byte(in.Rd)<<4 | byte(in.Rn)
		out[3] = byte(in.Rm) << 4
		putLE32(out[4:8], imm)
	case ArchMIPS:
		// Big-endian with a permuted layout: [rm|rd][rn|cond][flags][op] [imm BE]
		out[0] = byte(in.Rm)<<4 | byte(in.Rd)
		out[1] = byte(in.Rn)<<4 | byte(in.Cond)
		out[2] = flags
		out[3] = byte(in.Op)
		putBE32(out[4:8], imm)
	default:
		return out, ErrUnknownArch
	}
	return out, nil
}

func writesRd(op Opcode) bool {
	switch op {
	case OpMOV, OpLDR, OpLDRB, OpADD, OpSUB, OpMUL, OpAND, OpORR, OpEOR, OpLSL, OpLSR:
		return true
	}
	return false
}

// Decode decodes one instruction for the flavor.
func Decode(a Arch, b []byte) (Inst, error) {
	var in Inst
	if len(b) < InstSize {
		return in, ErrShortCode
	}
	var imm uint32
	var flags uint8
	switch a {
	case ArchARM:
		in.Op = Opcode(b[0])
		in.Cond = Cond(b[1] >> 4)
		flags = b[1] & 0x0F
		in.Rd = Reg(b[2] >> 4)
		in.Rn = Reg(b[2] & 0x0F)
		in.Rm = Reg(b[3] >> 4)
		imm = getLE32(b[4:8])
	case ArchMIPS:
		in.Rm = Reg(b[0] >> 4)
		in.Rd = Reg(b[0] & 0x0F)
		in.Rn = Reg(b[1] >> 4)
		in.Cond = Cond(b[1] & 0x0F)
		flags = b[2]
		in.Op = Opcode(b[3])
		imm = getBE32(b[4:8])
	default:
		return in, ErrUnknownArch
	}
	if in.Op == OpInvalid || in.Op >= numOpcodes {
		return in, fmt.Errorf("%w: %d", ErrBadOpcode, in.Op)
	}
	if in.Cond >= numConds {
		return in, fmt.Errorf("%w: %d", ErrBadCondition, in.Cond)
	}
	in.HasImm = flags&1 != 0
	if in.Op == OpB || in.Op == OpBL {
		in.Target = imm
	} else {
		in.Imm = int32(imm)
	}
	return in, nil
}

// DecodeAll decodes a whole code section starting at base, returning the
// instructions in address order.
func DecodeAll(a Arch, code []byte, base uint32) ([]Inst, error) {
	if len(code)%InstSize != 0 {
		return nil, ErrShortCode
	}
	out := make([]Inst, 0, len(code)/InstSize)
	for off := 0; off < len(code); off += InstSize {
		in, err := Decode(a, code[off:off+InstSize])
		if err != nil {
			return nil, fmt.Errorf("at %#x: %w", base+uint32(off), err)
		}
		out = append(out, in)
	}
	return out, nil
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putBE32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getBE32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
