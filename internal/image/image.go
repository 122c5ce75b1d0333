// Package image defines FWELF, the executable object format used by the
// synthetic firmware in this reproduction.
//
// Real firmware ships ELF binaries for ARM/MIPS; FWELF plays that role for
// the mini-ISA. A Binary carries a text section of fixed-width instructions,
// a read-only data section, a function symbol table (DTaint, like angr,
// relies on function identification to analyze each function separately),
// and an import table naming the C-library functions the binary calls
// (strcpy, recv, system, ...). Imported functions are represented by stub
// addresses in a reserved high address range, the way a PLT maps library
// calls to fixed code addresses.
package image

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dtaint/internal/isa"
)

// Magic begins every serialized FWELF binary.
var Magic = [6]byte{'F', 'W', 'E', 'L', 'F', 1}

// ImportBase is the address of the first import stub. Each import occupies
// one instruction slot.
const ImportBase uint32 = 0xF000_0000

// Limits guarding the parser against corrupt or adversarial inputs.
const (
	MaxTextSize   = 64 << 20
	MaxRodataSize = 16 << 20
	MaxSymbols    = 1 << 20
	MaxNameLen    = 4096
)

// Symbol names a function in the text section.
type Symbol struct {
	Name string
	Addr uint32 // start address within [TextBase, TextBase+len(Text))
	Size uint32 // size in bytes; a multiple of isa.InstSize
}

// Import names an external library function reachable at a stub address.
type Import struct {
	Name string
	Addr uint32
}

// DataSym names an object in the rodata section (e.g. a command string).
type DataSym struct {
	Name string
	Addr uint32
	Size uint32
}

// Binary is a loaded FWELF executable.
type Binary struct {
	Name       string
	Arch       isa.Arch
	Entry      uint32
	TextBase   uint32
	Text       []byte
	RodataBase uint32
	Rodata     []byte
	Funcs      []Symbol  // sorted by Addr
	Imports    []Import  // sorted by Addr
	Data       []DataSym // sorted by Addr
}

// Errors returned by Parse and the lookup helpers.
var (
	ErrBadMagic  = errors.New("image: bad magic")
	ErrTruncated = errors.New("image: truncated input")
	ErrMalformed = errors.New("image: malformed binary")
)

// SortTables sorts the symbol tables by address; Parse and well-formed
// builders maintain this invariant, which the lookup helpers rely on.
func (b *Binary) SortTables() {
	sort.Slice(b.Funcs, func(i, j int) bool { return b.Funcs[i].Addr < b.Funcs[j].Addr })
	sort.Slice(b.Imports, func(i, j int) bool { return b.Imports[i].Addr < b.Imports[j].Addr })
	sort.Slice(b.Data, func(i, j int) bool { return b.Data[i].Addr < b.Data[j].Addr })
}

// FuncByName returns the function symbol with the given name.
func (b *Binary) FuncByName(name string) (Symbol, bool) {
	for _, s := range b.Funcs {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// FuncAt returns the function symbol starting exactly at addr.
func (b *Binary) FuncAt(addr uint32) (Symbol, bool) {
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].Addr >= addr })
	if i < len(b.Funcs) && b.Funcs[i].Addr == addr {
		return b.Funcs[i], true
	}
	return Symbol{}, false
}

// FuncContaining returns the function symbol whose range contains addr.
func (b *Binary) FuncContaining(addr uint32) (Symbol, bool) {
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	s := b.Funcs[i-1]
	if addr >= s.Addr && addr < s.Addr+s.Size {
		return s, true
	}
	return Symbol{}, false
}

// ImportAt returns the import whose stub address is addr.
func (b *Binary) ImportAt(addr uint32) (Import, bool) {
	i := sort.Search(len(b.Imports), func(i int) bool { return b.Imports[i].Addr >= addr })
	if i < len(b.Imports) && b.Imports[i].Addr == addr {
		return b.Imports[i], true
	}
	return Import{}, false
}

// ImportByName returns the import with the given name.
func (b *Binary) ImportByName(name string) (Import, bool) {
	for _, im := range b.Imports {
		if im.Name == name {
			return im, true
		}
	}
	return Import{}, false
}

// DataByName returns the rodata symbol with the given name.
func (b *Binary) DataByName(name string) (DataSym, bool) {
	for _, d := range b.Data {
		if d.Name == name {
			return d, true
		}
	}
	return DataSym{}, false
}

// StringAt returns the NUL-terminated string at a rodata address.
func (b *Binary) StringAt(addr uint32) (string, bool) {
	if addr < b.RodataBase || addr >= b.RodataBase+uint32(len(b.Rodata)) {
		return "", false
	}
	off := int(addr - b.RodataBase)
	end := bytes.IndexByte(b.Rodata[off:], 0)
	if end < 0 {
		return string(b.Rodata[off:]), true
	}
	return string(b.Rodata[off : off+end]), true
}

// FuncCode returns the code bytes of a function symbol.
func (b *Binary) FuncCode(s Symbol) ([]byte, error) {
	if s.Addr < b.TextBase {
		return nil, fmt.Errorf("%w: function %q below text base", ErrMalformed, s.Name)
	}
	start := int(s.Addr - b.TextBase)
	end := start + int(s.Size)
	if end > len(b.Text) || start > end {
		return nil, fmt.Errorf("%w: function %q exceeds text section", ErrMalformed, s.Name)
	}
	return b.Text[start:end], nil
}

// Size returns the total serialized size estimate in bytes (used for the
// "Size (KB)" column of Table II).
func (b *Binary) Size() int {
	n := len(b.Text) + len(b.Rodata)
	for _, s := range b.Funcs {
		n += len(s.Name) + 12
	}
	for _, s := range b.Imports {
		n += len(s.Name) + 8
	}
	for _, s := range b.Data {
		n += len(s.Name) + 12
	}
	return n + 64
}

// Validate checks the structural invariants of the binary.
func (b *Binary) Validate() error {
	if !b.Arch.Valid() {
		return fmt.Errorf("%w: invalid arch %d", ErrMalformed, b.Arch)
	}
	if len(b.Text)%isa.InstSize != 0 {
		return fmt.Errorf("%w: text size %d not a multiple of %d", ErrMalformed, len(b.Text), isa.InstSize)
	}
	// Block and function end addresses are exclusive uint32 bounds, so the
	// text section must end below 2^32.
	if uint64(b.TextBase)+uint64(len(b.Text)) >= 1<<32 {
		return fmt.Errorf("%w: text section runs past the 32-bit address space", ErrMalformed)
	}
	for _, s := range b.Funcs {
		if s.Addr < b.TextBase || uint64(s.Addr)+uint64(s.Size) > uint64(b.TextBase)+uint64(len(b.Text)) {
			return fmt.Errorf("%w: function %q out of text range", ErrMalformed, s.Name)
		}
		if s.Size%isa.InstSize != 0 {
			return fmt.Errorf("%w: function %q size not instruction-aligned", ErrMalformed, s.Name)
		}
	}
	for _, im := range b.Imports {
		if im.Addr < ImportBase {
			return fmt.Errorf("%w: import %q below import base", ErrMalformed, im.Name)
		}
	}
	return nil
}

// Marshal serializes the binary to the FWELF wire format.
func (b *Binary) Marshal() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(Magic[:])
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeStr := func(s string) {
		w(uint32(len(s)))
		buf.WriteString(s)
	}
	writeStr(b.Name)
	w(uint32(b.Arch))
	w(b.Entry)
	w(b.TextBase)
	w(uint32(len(b.Text)))
	buf.Write(b.Text)
	w(b.RodataBase)
	w(uint32(len(b.Rodata)))
	buf.Write(b.Rodata)
	w(uint32(len(b.Funcs)))
	for _, s := range b.Funcs {
		writeStr(s.Name)
		w(s.Addr)
		w(s.Size)
	}
	w(uint32(len(b.Imports)))
	for _, s := range b.Imports {
		writeStr(s.Name)
		w(s.Addr)
	}
	w(uint32(len(b.Data)))
	for _, s := range b.Data {
		writeStr(s.Name)
		w(s.Addr)
		w(s.Size)
	}
	return buf.Bytes(), nil
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n uint32, limit int) ([]byte, error) {
	if int64(n) > int64(limit) {
		return nil, fmt.Errorf("%w: section of %d bytes exceeds limit", ErrMalformed, n)
	}
	if r.off+int(n) > len(r.b) {
		return nil, ErrTruncated
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	raw, err := r.bytes(n, MaxNameLen)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// Parse deserializes a FWELF binary and validates it.
func Parse(data []byte) (*Binary, error) {
	if len(data) < len(Magic) || !bytes.Equal(data[:len(Magic)], Magic[:]) {
		return nil, ErrBadMagic
	}
	r := &reader{b: data, off: len(Magic)}
	var b Binary
	var err error
	if b.Name, err = r.str(); err != nil {
		return nil, err
	}
	arch, err := r.u32()
	if err != nil {
		return nil, err
	}
	b.Arch = isa.Arch(arch)
	if b.Entry, err = r.u32(); err != nil {
		return nil, err
	}
	if b.TextBase, err = r.u32(); err != nil {
		return nil, err
	}
	tn, err := r.u32()
	if err != nil {
		return nil, err
	}
	text, err := r.bytes(tn, MaxTextSize)
	if err != nil {
		return nil, err
	}
	b.Text = append([]byte(nil), text...)
	if b.RodataBase, err = r.u32(); err != nil {
		return nil, err
	}
	rn, err := r.u32()
	if err != nil {
		return nil, err
	}
	ro, err := r.bytes(rn, MaxRodataSize)
	if err != nil {
		return nil, err
	}
	b.Rodata = append([]byte(nil), ro...)

	nf, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nf > MaxSymbols {
		return nil, fmt.Errorf("%w: %d function symbols", ErrMalformed, nf)
	}
	b.Funcs = make([]Symbol, 0, nf)
	for i := uint32(0); i < nf; i++ {
		var s Symbol
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		if s.Addr, err = r.u32(); err != nil {
			return nil, err
		}
		if s.Size, err = r.u32(); err != nil {
			return nil, err
		}
		b.Funcs = append(b.Funcs, s)
	}
	ni, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ni > MaxSymbols {
		return nil, fmt.Errorf("%w: %d imports", ErrMalformed, ni)
	}
	b.Imports = make([]Import, 0, ni)
	for i := uint32(0); i < ni; i++ {
		var s Import
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		if s.Addr, err = r.u32(); err != nil {
			return nil, err
		}
		b.Imports = append(b.Imports, s)
	}
	nd, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nd > MaxSymbols {
		return nil, fmt.Errorf("%w: %d data symbols", ErrMalformed, nd)
	}
	b.Data = make([]DataSym, 0, nd)
	for i := uint32(0); i < nd; i++ {
		var s DataSym
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		if s.Addr, err = r.u32(); err != nil {
			return nil, err
		}
		if s.Size, err = r.u32(); err != nil {
			return nil, err
		}
		b.Data = append(b.Data, s)
	}
	b.SortTables()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}
