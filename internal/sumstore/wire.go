package sumstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vrange"
)

// Wire format, version 2:
//
//	"DTSS" | u16be version | u8 kind | payload | u32be CRC32-C
//
// The CRC covers everything before it, so random corruption — bit
// flips, truncation, a torn disk write — fails the checksum (or the
// strict length/bounds checks below) and decodes to an error, which
// the store counts as a miss. Payload integers are varints (unsigned)
// or zigzag varints (signed); strings and slices are length-prefixed;
// maps are serialized in sorted key order so encoding is deterministic.
// Expressions are preorder trees rebuilt through the caller's
// expr.Table, whose constructors re-establish every canonical-form
// invariant (constant folding, add normalization, depth truncation);
// stored trees are already constructor-built fixed points, so
// decode(encode(x)) reproduces x key-for-key, and a decoded node is the
// table's node of that key. A summary's own Constraints are not carried:
// phase 1 records none, and the bottom-up pass drops them once the
// verdict is made. Pending sinks carry theirs.
const (
	// FormatVersion is the current wire version. Readers refuse any
	// other value, so bumping it invalidates every persisted entry.
	FormatVersion = 2

	kindSummary byte = 1
	kindEntry   byte = 2

	headerLen  = 4 + 2 + 1
	trailerLen = 4

	// maxExprDepth bounds decoded expression nesting. Legitimate trees
	// respect expr.MaxDepth; the slack tolerates future deepening while
	// still stopping corrupt input from recursing unboundedly.
	maxExprDepth = 4 * expr.MaxDepth
)

// Largest value of each enumeration the payload carries. The encoder
// writes only declared constants (and, for classes, the zero value), so
// a larger value — or operator 0 — is corruption that slipped past the
// CRC. It decodes to an error, not to an expression like (arg0 op? arg1).
const (
	maxOp    = uint64(expr.OpShr)
	maxCond  = uint64(isa.CondLE)
	maxClass = uint64(taint.ClassPathTraversal)
	maxType  = uint64(expr.TypeConflict)
)

var wireMagic = [4]byte{'D', 'T', 'S', 'S'}

// ErrWire reports an undecodable blob: wrong magic, unknown version,
// checksum mismatch, truncation, or malformed payload.
var ErrWire = errors.New("sumstore: bad wire data")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSummary serializes a phase-1 function summary.
func EncodeSummary(sum *symexec.Summary) []byte {
	e := newEnc(kindSummary)
	e.summary(sum)
	return e.finish()
}

// DecodeSummary deserializes a phase-1 function summary, building its
// expressions through tab.
func DecodeSummary(tab *expr.Table, blob []byte) (*symexec.Summary, error) {
	d, err := newDec(tab, blob, kindSummary)
	if err != nil {
		return nil, err
	}
	sum := d.summary()
	if err := d.close(); err != nil {
		return nil, err
	}
	return sum, nil
}

// EncodeEntry serializes a bottom-up component entry.
func EncodeEntry(ent *Entry) []byte {
	e := newEnc(kindEntry)
	e.uint(uint64(len(ent.Summaries)))
	for _, s := range ent.Summaries {
		e.summary(s)
	}
	names := make([]string, 0, len(ent.Pendings))
	for name := range ent.Pendings {
		names = append(names, name)
	}
	sort.Strings(names)
	e.uint(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		ps := ent.Pendings[name]
		e.uint(uint64(len(ps)))
		for i := range ps {
			e.pending(&ps[i])
		}
	}
	e.uint(uint64(len(ent.Findings)))
	for i := range ent.Findings {
		e.finding(&ent.Findings[i])
	}
	e.uint(uint64(ent.DefPairs))
	e.uint(uint64(ent.Truncated))
	return e.finish()
}

// DecodeEntry deserializes a bottom-up component entry, building its
// expressions through tab.
func DecodeEntry(tab *expr.Table, blob []byte) (*Entry, error) {
	d, err := newDec(tab, blob, kindEntry)
	if err != nil {
		return nil, err
	}
	ent := &Entry{}
	for i, n := 0, d.count(); i < n; i++ {
		ent.Summaries = append(ent.Summaries, d.summary())
	}
	if n := d.count(); n > 0 {
		ent.Pendings = make(map[string][]taint.PendingSink, n)
		for i := 0; i < n; i++ {
			name := d.str()
			m := d.count()
			ps := make([]taint.PendingSink, 0, m)
			for j := 0; j < m; j++ {
				ps = append(ps, d.pending())
			}
			if d.err == nil {
				ent.Pendings[name] = ps
			}
		}
	}
	for i, n := 0, d.count(); i < n; i++ {
		ent.Findings = append(ent.Findings, d.finding())
	}
	ent.DefPairs = int(d.uint())
	ent.Truncated = int(d.uint())
	if err := d.close(); err != nil {
		return nil, err
	}
	return ent, nil
}

// ---------------------------------------------------------------- encoder

type enc struct {
	buf []byte
}

func newEnc(kind byte) *enc {
	e := &enc{buf: make([]byte, 0, 512)}
	e.buf = append(e.buf, wireMagic[:]...)
	e.buf = binary.BigEndian.AppendUint16(e.buf, FormatVersion)
	e.buf = append(e.buf, kind)
	return e
}

func (e *enc) finish() []byte {
	return binary.BigEndian.AppendUint32(e.buf, crc32.Checksum(e.buf, crcTable))
}

func (e *enc) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) sint(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) bool(b bool)   { e.buf = append(e.buf, boolByte(b)) }
func (e *enc) str(s string)  { e.uint(uint64(len(s))); e.buf = append(e.buf, s...) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Expression tags (preorder).
const (
	exprNil   byte = 0
	exprConst byte = 1
	exprSym   byte = 2
	exprDeref byte = 3
	exprBin   byte = 4
)

func (e *enc) expr(x *expr.Expr) {
	if x == nil {
		e.buf = append(e.buf, exprNil)
		return
	}
	if v, ok := x.ConstVal(); ok {
		e.buf = append(e.buf, exprConst)
		e.sint(v)
		return
	}
	if name, ok := x.SymName(); ok {
		e.buf = append(e.buf, exprSym)
		e.str(name)
		return
	}
	if addr, ok := x.DerefAddr(); ok {
		e.buf = append(e.buf, exprDeref)
		e.expr(addr)
		return
	}
	op, a, b, _ := x.BinOperands()
	e.buf = append(e.buf, exprBin)
	e.uint(uint64(op))
	e.expr(a)
	e.expr(b)
}

func (e *enc) exprs(xs []*expr.Expr) {
	e.uint(uint64(len(xs)))
	for _, x := range xs {
		e.expr(x)
	}
}

func (e *enc) steps(path []taint.Step) {
	e.uint(uint64(len(path)))
	for _, s := range path {
		e.str(s.Func)
		e.uint(uint64(s.Addr))
		e.str(s.Note)
	}
}

func (e *enc) constraint(c *symexec.Constraint) {
	e.expr(c.L)
	e.expr(c.R)
	e.uint(uint64(c.Cond))
	e.uint(uint64(c.Addr))
	e.bool(c.InLoop)
}

func (e *enc) summary(s *symexec.Summary) {
	e.str(s.Func)
	e.uint(uint64(s.Addr))
	e.uint(uint64(len(s.DefPairs)))
	for i := range s.DefPairs {
		dp := &s.DefPairs[i]
		e.expr(dp.D)
		e.expr(dp.U)
		e.uint(uint64(dp.Addr))
		e.sint(int64(dp.Size))
	}
	e.exprs(s.Rets)
	e.uint(uint64(len(s.Dispatches)))
	for i := range s.Dispatches {
		e.uint(uint64(s.Dispatches[i].Addr))
		e.expr(s.Dispatches[i].FnPtr)
	}
	tkeys := make([]string, 0, len(s.Types))
	for k := range s.Types {
		tkeys = append(tkeys, k)
	}
	sort.Strings(tkeys)
	e.uint(uint64(len(tkeys)))
	for _, k := range tkeys {
		e.str(k)
		e.uint(uint64(s.Types[k]))
	}
	e.uint(uint64(len(s.Fields)))
	for i := range s.Fields {
		f := &s.Fields[i]
		e.expr(f.Base)
		e.sint(f.Off)
		e.uint(uint64(f.Ty))
		e.str(f.FnTarget)
	}
	e.uint(uint64(len(s.LoopStores)))
	for i := range s.LoopStores {
		e.uint(uint64(s.LoopStores[i].Addr))
		e.expr(s.LoopStores[i].Val)
	}
	rkeys := make([]string, 0, len(s.Ranges))
	for k := range s.Ranges {
		rkeys = append(rkeys, k)
	}
	sort.Strings(rkeys)
	e.uint(uint64(len(rkeys)))
	for _, k := range rkeys {
		e.str(k)
		iv := s.Ranges[k]
		e.sint(iv.Lo)
		e.sint(iv.Hi)
	}
	e.uint(uint64(s.BlocksAnalyzed))
	e.uint(uint64(s.StatesExplored))
	e.bool(s.Truncated)
}

func (e *enc) pending(p *taint.PendingSink) {
	e.uint(uint64(p.Class))
	e.str(p.Sink)
	e.str(p.SinkFunc)
	e.uint(uint64(p.SinkAddr))
	e.expr(p.TaintExpr)
	e.expr(p.GuardExpr)
	e.steps(p.Steps())
	e.uint(uint64(len(p.Constraints)))
	for i := range p.Constraints {
		e.constraint(&p.Constraints[i])
	}
	e.bool(p.Guarded)
	e.uint(uint64(p.Depth()))
	e.sint(p.DstCap)
	e.sint(p.BoundHint)
}

func (e *enc) finding(f *taint.Finding) {
	e.uint(uint64(f.Class))
	e.str(f.Sink)
	e.str(f.SinkFunc)
	e.uint(uint64(f.SinkAddr))
	e.str(f.Source)
	e.uint(f.SourceAddr)
	e.expr(f.TaintExpr)
	e.expr(f.GuardExpr)
	e.steps(f.Path)
	e.bool(f.Sanitized)
	e.uint(uint64(len(f.Evidence)))
	for _, ev := range f.Evidence {
		e.str(ev)
	}
}

// ---------------------------------------------------------------- decoder

type dec struct {
	tab *expr.Table
	b   []byte
	pos int
	err error
}

func newDec(tab *expr.Table, blob []byte, kind byte) (*dec, error) {
	if len(blob) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: short blob (%d bytes)", ErrWire, len(blob))
	}
	if [4]byte(blob[:4]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrWire)
	}
	if v := binary.BigEndian.Uint16(blob[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("%w: unknown version %d (want %d)", ErrWire, v, FormatVersion)
	}
	body := blob[:len(blob)-trailerLen]
	want := binary.BigEndian.Uint32(blob[len(blob)-trailerLen:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrWire)
	}
	if blob[6] != kind {
		return nil, fmt.Errorf("%w: entry kind %d, want %d", ErrWire, blob[6], kind)
	}
	return &dec{tab: tab, b: body, pos: headerLen}, nil
}

// close verifies the whole payload was consumed — trailing bytes mean a
// malformed or foreign blob.
func (d *dec) close() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(d.b)-d.pos)
	}
	return nil
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: malformed payload at offset %d", ErrWire, d.pos)
	}
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) sint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// count reads a collection length and sanity-checks it against the
// remaining payload (every element costs at least one byte), so corrupt
// lengths cannot trigger giant allocations.
func (d *dec) count() int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.pos) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.pos]
	d.pos++
	if v > 1 {
		d.fail()
		return false
	}
	return v == 1
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	return s
}

// expect reads a string and fails unless it is prefix+s.
func (d *dec) expect(prefix, s string) {
	n := d.count()
	if d.err != nil {
		return
	}
	b := d.b[d.pos : d.pos+n]
	if n != len(prefix)+len(s) || string(b[:len(prefix)]) != prefix || string(b[len(prefix):]) != s {
		d.fail()
		return
	}
	d.pos += n
}

// enum reads an enumeration value and fails unless lo <= v <= hi.
func (d *dec) enum(lo, hi uint64) uint64 {
	v := d.uint()
	if v < lo || v > hi {
		d.fail()
		return 0
	}
	return v
}

func (d *dec) u32() uint32 {
	v := d.uint()
	if v > 0xFFFFFFFF {
		d.fail()
		return 0
	}
	return uint32(v)
}

func (d *dec) expr() *expr.Expr { return d.exprAt(0) }

func (d *dec) exprAt(depth int) *expr.Expr {
	if depth > maxExprDepth {
		d.fail()
		return nil
	}
	switch tag := d.byte(); tag {
	case exprNil:
		return nil
	case exprConst:
		return d.tab.Const(d.sint())
	case exprSym:
		return d.tab.Sym(d.str())
	case exprDeref:
		addr := d.exprAt(depth + 1)
		if addr == nil {
			d.fail()
			return nil
		}
		return d.tab.Deref(addr)
	case exprBin:
		op := expr.Op(d.enum(uint64(expr.OpAdd), maxOp))
		a := d.exprAt(depth + 1)
		b := d.exprAt(depth + 1)
		if a == nil || b == nil {
			d.fail()
			return nil
		}
		return d.tab.Bin(op, a, b)
	default:
		d.fail()
		return nil
	}
}

func (d *dec) exprs() []*expr.Expr {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.expr())
	}
	return out
}

func (d *dec) steps() []taint.Step {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]taint.Step, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, taint.Step{Func: d.str(), Addr: d.u32(), Note: d.str()})
	}
	return out
}

func (d *dec) constraint() symexec.Constraint {
	return symexec.Constraint{
		L:      d.expr(),
		R:      d.expr(),
		Cond:   isa.Cond(d.enum(0, maxCond)),
		Addr:   d.u32(),
		InLoop: d.bool(),
	}
}

func (d *dec) summary() *symexec.Summary {
	s := &symexec.Summary{
		Func: d.str(),
		Addr: d.u32(),
	}
	for i, n := 0, d.count(); i < n; i++ {
		s.DefPairs = append(s.DefPairs, symexec.DefPair{
			D:    d.expr(),
			U:    d.expr(),
			Addr: d.u32(),
			Size: int(d.sint()),
		})
	}
	s.Rets = d.exprs()
	for i, n := 0, d.count(); i < n; i++ {
		s.Dispatches = append(s.Dispatches, symexec.Dispatch{Addr: d.u32(), FnPtr: d.expr()})
	}
	if n := d.count(); n > 0 {
		s.Types = make(map[string]expr.Type, n)
		for i := 0; i < n; i++ {
			k := d.str()
			ty := expr.Type(d.enum(0, maxType))
			if d.err == nil {
				s.Types[k] = ty
			}
		}
	}
	for i, n := 0, d.count(); i < n; i++ {
		s.Fields = append(s.Fields, symexec.FieldObs{
			Base:     d.expr(),
			Off:      d.sint(),
			Ty:       expr.Type(d.enum(0, maxType)),
			FnTarget: d.str(),
		})
	}
	for i, n := 0, d.count(); i < n; i++ {
		s.LoopStores = append(s.LoopStores, symexec.LoopStore{Addr: d.u32(), Val: d.expr()})
	}
	if n := d.count(); n > 0 {
		s.Ranges = make(map[string]vrange.Interval, n)
		for i := 0; i < n; i++ {
			k := d.str()
			iv := vrange.Interval{Lo: d.sint(), Hi: d.sint()}
			if d.err == nil {
				s.Ranges[k] = iv
			}
		}
	}
	s.BlocksAnalyzed = int(d.uint())
	s.StatesExplored = int(d.uint())
	s.Truncated = d.bool()
	return s
}

func (d *dec) pending() taint.PendingSink {
	p := taint.PendingSink{
		Class:     taint.Class(d.enum(0, maxClass)),
		Sink:      d.str(),
		SinkFunc:  d.str(),
		SinkAddr:  d.u32(),
		TaintExpr: d.expr(),
		GuardExpr: d.expr(),
	}
	p.Path = d.path(&p)
	for i, n := 0, d.count(); i < n; i++ {
		p.Constraints = append(p.Constraints, d.constraint())
	}
	p.Guarded = d.bool()
	if d.uint() != uint64(p.Depth()) {
		d.fail()
	}
	p.DstCap = d.sint()
	p.BoundHint = d.sint()
	return p
}

// path reads a pending sink's step list back into its hop chain. The
// list must be the one PendingSink.Steps spells: the sink step
// (SinkFunc, SinkAddr, Sink), then one "call <SinkFunc>" step per hop.
// Anything else is corruption.
func (d *dec) path(p *taint.PendingSink) *taint.Hop {
	n := d.count()
	if n == 0 {
		d.fail()
		return nil
	}
	d.expect("", p.SinkFunc)
	if d.u32() != p.SinkAddr {
		d.fail()
	}
	d.expect("", p.Sink)
	var h *taint.Hop
	for i := 1; i < n && d.err == nil; i++ {
		h = &taint.Hop{Func: d.str(), Addr: d.u32(), Depth: uint32(i), Prev: h}
		d.expect("call ", p.SinkFunc)
	}
	return h
}

func (d *dec) finding() taint.Finding {
	f := taint.Finding{
		Class:      taint.Class(d.enum(0, maxClass)),
		Sink:       d.str(),
		SinkFunc:   d.str(),
		SinkAddr:   d.u32(),
		Source:     d.str(),
		SourceAddr: d.uint(),
		TaintExpr:  d.expr(),
		GuardExpr:  d.expr(),
		Path:       d.steps(),
		Sanitized:  d.bool(),
	}
	for i, n := 0, d.count(); i < n; i++ {
		f.Evidence = append(f.Evidence, d.str())
	}
	return f
}
