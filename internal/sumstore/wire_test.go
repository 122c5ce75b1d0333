package sumstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vrange"
)

var regen = flag.Bool("regen", false, "regenerate golden wire-format files")

// richSummary exercises every summary field, including deep and
// normalized expression trees (the codec must reproduce constructor
// fixed points exactly).
func richSummary() *symexec.Summary {
	arg0 := expr.Sym("arg0")
	field := expr.Deref(expr.Add(arg0, 0x4C))
	deep := expr.Deref(expr.Bin(expr.OpAdd, field, expr.Sym("idx")))
	return &symexec.Summary{
		Func: "tls1_process_heartbeat",
		Addr: 0x1000_0040,
		DefPairs: []DefPairAlias{
			{D: expr.Deref(expr.Add(expr.Sym("SP0"), 8)), U: field, Addr: 0x1000_0060, Size: 4},
			{D: expr.Sym("R0"), U: deep, Addr: 0x1000_0064, Size: 1},
		},
		Rets: []*expr.Expr{expr.Const(0), field},
		Calls: []symexec.CallRecord{
			{
				Addr: 0x1000_0070, Kind: 1, Callee: "memcpy",
				Args:   []*expr.Expr{expr.Sym("dst"), field, expr.Const(0x200)},
				Ret:    expr.Sym("ret_memcpy_10000070"),
				FnPtr:  nil,
				InLoop: true,
			},
			{Addr: 0x1000_0080, Kind: 2, Callee: "", FnPtr: deep},
		},
		Constraints: []symexec.Constraint{
			{L: field, R: expr.Const(0x100), Cond: isa.CondLT, Addr: 0x1000_0068, InLoop: false},
			{L: expr.Sym("n"), R: nil, Cond: isa.CondGE, Addr: 0x1000_006C, InLoop: true},
		},
		Types: map[string]expr.Type{
			"arg0":              expr.TypeCharPtr,
			field.Key():         expr.TypeUnknown,
			expr.Sym("n").Key(): expr.TypeConflict,
		},
		Fields: []symexec.FieldObs{
			{Base: arg0, Off: 0x4C, Ty: expr.TypeFuncPtr, FnTarget: "handler"},
			{Base: field, Off: -8, Ty: expr.TypeUnknown, FnTarget: ""},
		},
		LoopStores: []symexec.LoopStore{
			{Addr: 0x1000_0090, AddrExpr: expr.Add(expr.Sym("p"), 1), Val: deep, Size: 1},
		},
		UndefUses: []*expr.Expr{expr.Sym("R11")},
		Ranges: map[string]vrange.Interval{
			"arg0":      {Lo: 0, Hi: 0xFFFF},
			field.Key(): vrange.Bottom(),
		},
		BlocksAnalyzed: 17,
		StatesExplored: 233,
		Truncated:      true,
	}
}

// DefPairAlias keeps the literal above readable.
type DefPairAlias = symexec.DefPair

func richEntry() *Entry {
	step := []taint.Step{
		{Func: "rtsp_parse", Addr: 0x1000_0100, Note: "call memcpy"},
		{Func: "rtsp_recv", Addr: 0x1000_0200, Note: ""},
	}
	return &Entry{
		Summaries: []*symexec.Summary{richSummary()},
		Pendings: map[string][]taint.PendingSink{
			"rtsp_parse": {
				{
					Class: taint.ClassBufferOverflow, Sink: "memcpy",
					SinkFunc: "rtsp_parse", SinkAddr: 0x1000_0100,
					TaintExpr: expr.Deref(expr.Add(expr.Sym("arg0"), 0x4C)),
					GuardExpr: expr.Sym("g"),
					Path:      step,
					Constraints: []symexec.Constraint{
						{L: expr.Sym("len"), R: expr.Const(64), Cond: isa.CondGE, Addr: 0x1000_00F0},
					},
					Guarded: true, Depth: 3, DstCap: 152, BoundHint: -1,
				},
			},
		},
		Findings: []taint.Finding{
			{
				Class: taint.ClassCommandInjection, Sink: "system",
				SinkFunc: "cgi_exec", SinkAddr: 0x1000_0300,
				Source: "getenv", SourceAddr: 0x1000_0280,
				TaintExpr: expr.Sym("env"),
				Path:      step[:1],
				Sanitized: false,
				Evidence:  []string{"no ';' scan on any path", "interval [0,65535]"},
			},
			{
				Class: taint.ClassBufferOverflow, Sink: "strcpy",
				SinkFunc: "save", SinkAddr: 0x1000_0310,
				Source: "recv", SourceAddr: 0x1000_0290,
				Sanitized: true,
			},
		},
		DefPairs:  42,
		Truncated: 1,
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	want := richSummary()
	blob := EncodeSummary(want)
	got, err := DecodeSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding the decoded value must reproduce the bytes: decoding
	// rebuilds expressions through the public constructors, and stored
	// trees are constructor fixed points.
	if !bytes.Equal(EncodeSummary(got), blob) {
		t.Fatal("re-encode of decoded summary differs")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	want := richEntry()
	blob := EncodeEntry(want)
	got, err := DecodeEntry(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(EncodeEntry(got), blob) {
		t.Fatal("re-encode of decoded entry differs")
	}
}

func TestEmptyValuesRoundTrip(t *testing.T) {
	sum := &symexec.Summary{Func: "empty"}
	got, err := DecodeSummary(EncodeSummary(sum))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sum) {
		t.Fatalf("empty summary mismatch: %+v", got)
	}
	ent := &Entry{}
	gotEnt, err := DecodeEntry(EncodeEntry(ent))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEnt, ent) {
		t.Fatalf("empty entry mismatch: %+v", gotEnt)
	}
}

// TestGoldenWireFormat pins the v1 encoding byte-for-byte. If this test
// fails because the format deliberately changed, bump FormatVersion and
// regenerate with: go test ./internal/sumstore -run Golden -regen
func TestGoldenWireFormat(t *testing.T) {
	for _, tc := range []struct {
		file string
		blob []byte
	}{
		{"summary_v1.golden", EncodeSummary(richSummary())},
		{"entry_v1.golden", EncodeEntry(richEntry())},
	} {
		path := filepath.Join("testdata", tc.file)
		if *regen {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", path, len(tc.blob))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -regen to create)", err)
		}
		if !bytes.Equal(tc.blob, want) {
			t.Errorf("%s: encoding changed (%d bytes vs golden %d); bump FormatVersion and regenerate",
				tc.file, len(tc.blob), len(want))
		}
	}
}

// TestTruncationIsError feeds every proper prefix of a valid blob to the
// decoder: all must fail cleanly (a truncated store file is a cache
// miss, never a panic or a silent partial decode).
func TestTruncationIsError(t *testing.T) {
	blob := EncodeSummary(richSummary())
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeSummary(blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(blob))
		}
	}
	ent := EncodeEntry(richEntry())
	for n := 0; n < len(ent); n++ {
		if _, err := DecodeEntry(ent[:n]); err == nil {
			t.Fatalf("entry prefix of %d/%d bytes decoded successfully", n, len(ent))
		}
	}
}

// TestCorruptionIsError flips every byte of a valid blob in turn; the
// CRC trailer must catch each one.
func TestCorruptionIsError(t *testing.T) {
	blob := EncodeSummary(richSummary())
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x41
		if _, err := DecodeSummary(bad); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(blob))
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	blob := append(EncodeSummary(richSummary()), 0)
	if _, err := DecodeSummary(blob); err == nil {
		t.Fatal("blob with trailing byte decoded successfully")
	}
}

// TestVersionBumpRejected patches the version field and fixes up the
// CRC so the version is the only inconsistency: the reader must refuse
// it, which is what makes a FormatVersion bump invalidate every stored
// blob at once.
func TestVersionBumpRejected(t *testing.T) {
	blob := append([]byte(nil), EncodeSummary(richSummary())...)
	binary.BigEndian.PutUint16(blob[4:6], FormatVersion+1)
	body := blob[:len(blob)-4]
	binary.BigEndian.PutUint32(blob[len(blob)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := DecodeSummary(blob); err == nil {
		t.Fatal("future-version blob decoded successfully")
	}
}

func TestWrongKindRejected(t *testing.T) {
	// A summary blob handed to the entry decoder (and vice versa) must
	// fail even though magic, version, and CRC all check out.
	if _, err := DecodeEntry(EncodeSummary(richSummary())); err == nil {
		t.Fatal("entry decoder accepted a summary blob")
	}
	if _, err := DecodeSummary(EncodeEntry(richEntry())); err == nil {
		t.Fatal("summary decoder accepted an entry blob")
	}
}

// TestUnknownEnumRejected encodes values outside their enumeration (the
// encoder writes whatever it is given, so the CRC is valid): the
// decoder must refuse each one rather than rebuild, say, the expression
// (arg0 op? arg1).
func TestUnknownEnumRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"op 99", EncodeSummary(&symexec.Summary{Rets: []*expr.Expr{expr.Bin(99, expr.Sym("arg0"), expr.Sym("arg1"))}})},
		{"op 0", EncodeSummary(&symexec.Summary{Rets: []*expr.Expr{expr.Bin(0, expr.Sym("arg0"), expr.Sym("arg1"))}})},
		{"cond 99", EncodeSummary(&symexec.Summary{Constraints: []symexec.Constraint{{Cond: 99}}})},
		{"call kind 99", EncodeSummary(&symexec.Summary{Calls: []symexec.CallRecord{{Kind: 99}}})},
		{"type 99", EncodeSummary(&symexec.Summary{Types: map[string]expr.Type{"arg0": 99}})},
		{"field type 99", EncodeSummary(&symexec.Summary{Fields: []symexec.FieldObs{{Ty: 99}}})},
		{"pending class 99", EncodeEntry(&Entry{Pendings: map[string][]taint.PendingSink{"f": {{Class: 99}}}})},
		{"finding class 99", EncodeEntry(&Entry{Findings: []taint.Finding{{Class: 99}}})},
	} {
		var err error
		if tc.blob[6] == kindSummary {
			_, err = DecodeSummary(tc.blob)
		} else {
			_, err = DecodeEntry(tc.blob)
		}
		if err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
	// The largest declared value of each enumeration still decodes.
	ok := &symexec.Summary{
		Rets:        []*expr.Expr{expr.Bin(expr.Op(maxOp), expr.Sym("arg0"), expr.Sym("arg1"))},
		Constraints: []symexec.Constraint{{Cond: isa.Cond(maxCond)}},
		Calls:       []symexec.CallRecord{{Kind: cfg.CallKind(maxCallKind)}},
		Types:       map[string]expr.Type{"arg0": expr.Type(maxType)},
	}
	if _, err := DecodeSummary(EncodeSummary(ok)); err != nil {
		t.Fatalf("largest enum values rejected: %v", err)
	}
	if _, err := DecodeEntry(EncodeEntry(&Entry{Findings: []taint.Finding{{Class: taint.Class(maxClass)}}})); err != nil {
		t.Fatalf("largest class rejected: %v", err)
	}
}

// TestEnumBoundsAreLastConstants pins each decoder bound to the last
// named constant of its enumeration, so adding a constant without
// raising the bound fails here instead of turning valid blobs into
// misses.
func TestEnumBoundsAreLastConstants(t *testing.T) {
	for _, tc := range []struct {
		name            string
		last, past, bad string
	}{
		{"op", expr.Op(maxOp).String(), expr.Op(maxOp + 1).String(), "op?"},
		{"cond", isa.Cond(maxCond).String(), isa.Cond(maxCond + 1).String(), "cond?"},
		{"type", expr.Type(maxType).String(), expr.Type(maxType + 1).String(), "type?"},
		{"class", taint.Class(maxClass).String(), taint.Class(maxClass + 1).String(), "class?"},
	} {
		if tc.last == tc.bad || tc.past != tc.bad {
			t.Errorf("%s: bound is not the last named constant (%q, next %q)", tc.name, tc.last, tc.past)
		}
	}
}

// FuzzDecode feeds arbitrary payloads to both decoders behind a valid
// header and checksum, so inputs reach the payload parser: no input may
// panic, and whatever decodes must re-encode to a blob that decodes and
// re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, blob := range [][]byte{EncodeSummary(richSummary()), EncodeEntry(richEntry())} {
		f.Add(blob[headerLen : len(blob)-trailerLen])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if sum, err := DecodeSummary(seal(kindSummary, payload)); err == nil {
			blob := EncodeSummary(sum)
			again, err := DecodeSummary(blob)
			if err != nil {
				t.Fatalf("re-encoded summary does not decode: %v", err)
			}
			if !bytes.Equal(EncodeSummary(again), blob) {
				t.Fatal("summary re-encoding is not stable")
			}
		}
		if ent, err := DecodeEntry(seal(kindEntry, payload)); err == nil {
			blob := EncodeEntry(ent)
			again, err := DecodeEntry(blob)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			if !bytes.Equal(EncodeEntry(again), blob) {
				t.Fatal("entry re-encoding is not stable")
			}
		}
	})
}

// seal wraps a payload in a valid header and CRC trailer.
func seal(kind byte, payload []byte) []byte {
	e := newEnc(kind)
	e.buf = append(e.buf, payload...)
	return e.finish()
}
