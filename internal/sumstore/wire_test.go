package sumstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dtaint/internal/expr"
	"dtaint/internal/isa"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vrange"
)

// tab builds the expressions of this package's tests.
var tab = new(expr.Table)

var regen = flag.Bool("regen", false, "regenerate golden wire-format files")

// richSummary exercises every encoded summary field, including deep and
// normalized expression trees (the codec must reproduce constructor
// fixed points exactly). Constraints stay empty: the codec does not
// carry a summary's own.
func richSummary() *symexec.Summary {
	arg0 := tab.Sym("arg0")
	field := tab.Deref(tab.Add(arg0, 0x4C))
	deep := tab.Deref(tab.Bin(expr.OpAdd, field, tab.Sym("idx")))
	return &symexec.Summary{
		Func: "tls1_process_heartbeat",
		Addr: 0x1000_0040,
		DefPairs: []DefPairAlias{
			{D: tab.Deref(tab.Add(tab.Sym("SP0"), 8)), U: field, Addr: 0x1000_0060, Size: 4},
			{D: tab.Sym("R0"), U: deep, Addr: 0x1000_0064, Size: 1},
		},
		Rets: []*expr.Expr{tab.Const(0), field},
		Dispatches: []symexec.Dispatch{
			{Addr: 0x1000_0070, FnPtr: field},
			{Addr: 0x1000_0080, FnPtr: deep},
			{Addr: 0x1000_0080, FnPtr: tab.Deref(tab.Add(tab.Sym("ops"), 8))},
		},
		Types: map[string]expr.Type{
			"arg0":             expr.TypeCharPtr,
			field.Key():        expr.TypeUnknown,
			tab.Sym("n").Key(): expr.TypeConflict,
		},
		Fields: []symexec.FieldObs{
			{Base: arg0, Off: 0x4C, Ty: expr.TypeFuncPtr, FnTarget: "handler"},
			{Base: field, Off: -8, Ty: expr.TypeUnknown, FnTarget: ""},
		},
		LoopStores: []symexec.LoopStore{
			{Addr: 0x1000_0090, Val: deep},
			{Addr: 0x1000_0094, Val: tab.Add(tab.Sym("p"), 1)},
		},
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

// richEntry exercises every encoded entry field. Its pending sinks have
// the two path shapes: one has climbed three callsites, the other none.
func richEntry() *Entry {
	return &Entry{
		Summaries: []*symexec.Summary{richSummary()},
		Pendings: map[string][]taint.PendingSink{
			"rtsp_main": {
				{
					Class: taint.ClassBufferOverflow, Sink: "memcpy",
					SinkFunc: "rtsp_parse", SinkAddr: 0x1000_0100,
					TaintExpr: tab.Deref(tab.Add(tab.Sym("arg0"), 0x4C)),
					GuardExpr: tab.Sym("g"),
					Path: &taint.Hop{Func: "rtsp_main", Addr: 0x1000_0280, Depth: 3,
						Prev: &taint.Hop{Func: "rtsp_recv", Addr: 0x1000_0200, Depth: 2,
							Prev: &taint.Hop{Func: "rtsp_session", Addr: 0x1000_0180, Depth: 1}}},
					Constraints: []symexec.Constraint{
						{L: tab.Sym("len"), R: tab.Const(64), Cond: isa.CondGE, Addr: 0x1000_00F0},
						{L: tab.Deref(tab.Add(tab.Sym("arg0"), 0x4C)), R: tab.Const(0x100), Cond: isa.CondLT, Addr: 0x1000_0068},
						{L: tab.Sym("n"), R: nil, Cond: isa.CondLE, Addr: 0x1000_006C, InLoop: true},
					},
					Guarded: true, DstCap: 152, BoundHint: -1,
				},
			},
			"rtsp_parse": {{
				Class: taint.ClassCommandInjection, Sink: "system",
				SinkFunc: "rtsp_parse", SinkAddr: 0x1000_0140,
				TaintExpr: tab.Sym("arg1"),
			}},
		},
		Findings: []taint.Finding{
			{
				Class: taint.ClassCommandInjection, Sink: "system",
				SinkFunc: "cgi_exec", SinkAddr: 0x1000_0300,
				Source: "getenv", SourceAddr: 0x1000_0280,
				TaintExpr: tab.Sym("env"),
				Path:      []taint.Step{{Func: "rtsp_parse", Addr: 0x1000_0100, Note: "call memcpy"}},
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
	got, err := DecodeSummary(tab, blob)
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
	got, err := DecodeEntry(tab, blob)
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

// Decoding through a table builds the table's nodes: one key is one
// pointer within a blob, across blobs decoded into the same table, and
// with the nodes the analysis built itself.
func TestDecodeInternsIntoTable(t *testing.T) {
	tab := new(expr.Table)
	blob := EncodeEntry(richEntry())
	a, err := DecodeEntry(tab, blob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeEntry(tab, blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := samePointers(t, reflect.ValueOf(a), reflect.ValueOf(b)); n < 20 {
		t.Fatalf("compared only %d expressions", n)
	}
	field := tab.Deref(tab.Add(tab.Sym("arg0"), 0x4C))
	sum := a.Summaries[0]
	if sum.DefPairs[0].U != field || sum.Rets[1] != field || a.Pendings["rtsp_main"][0].TaintExpr != field {
		t.Fatal("decoded deref(arg0+0x4c) is not the table's node")
	}
	if !bytes.Equal(EncodeEntry(a), blob) || !bytes.Equal(EncodeEntry(b), blob) {
		t.Fatal("re-encode of a table-decoded entry differs")
	}
}

// samePointers walks two decoded values of one shape and fails unless
// every expression of the first is the same pointer as its counterpart
// in the second. It returns the number of non-nil expressions compared.
func samePointers(t *testing.T, a, b reflect.Value) int {
	t.Helper()
	if a.Type() == reflect.TypeOf((*expr.Expr)(nil)) {
		if a.Pointer() != b.Pointer() {
			t.Fatalf("%v and %v decode to different nodes", a.Interface(), b.Interface())
		}
		if a.IsNil() {
			return 0
		}
		return 1
	}
	n := 0
	switch a.Kind() {
	case reflect.Pointer:
		if !a.IsNil() {
			n += samePointers(t, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			n += samePointers(t, a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			n += samePointers(t, a.Index(i), b.Index(i))
		}
	case reflect.Map:
		for _, k := range a.MapKeys() {
			n += samePointers(t, a.MapIndex(k), b.MapIndex(k))
		}
	}
	return n
}

func TestEmptyValuesRoundTrip(t *testing.T) {
	sum := &symexec.Summary{Func: "empty"}
	got, err := DecodeSummary(tab, EncodeSummary(sum))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sum) {
		t.Fatalf("empty summary mismatch: %+v", got)
	}
	ent := &Entry{}
	gotEnt, err := DecodeEntry(tab, EncodeEntry(ent))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEnt, ent) {
		t.Fatalf("empty entry mismatch: %+v", gotEnt)
	}
}

// TestGoldenWireFormat pins the v2 encoding byte-for-byte. If this test
// fails because the format deliberately changed, bump FormatVersion,
// keep the old golden files for TestOldVersionsRefused, and generate the
// new ones with: go test ./internal/sumstore -run Golden -regen
// (entry_v2.golden is no encoder's output: TestMalformedPathRefused
// decodes it.)
func TestGoldenWireFormat(t *testing.T) {
	for _, tc := range []struct {
		file string
		blob []byte
	}{
		{"summary_v2.golden", EncodeSummary(richSummary())},
		{"entry_chain_v2.golden", EncodeEntry(richEntry())},
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

// TestOldVersionsRefused decodes the blobs an older build wrote: each
// must fail with ErrWire on its version, so a store left on disk by that
// build replays as misses, never as summaries of the wrong shape.
func TestOldVersionsRefused(t *testing.T) {
	for _, tc := range []struct {
		file   string
		decode func(*expr.Table, []byte) error
	}{
		{"summary_v1.golden", func(tab *expr.Table, b []byte) error { _, err := DecodeSummary(tab, b); return err }},
		{"entry_v1.golden", func(tab *expr.Table, b []byte) error { _, err := DecodeEntry(tab, b); return err }},
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		err = tc.decode(new(expr.Table), blob)
		if !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "unknown version 1") {
			t.Errorf("%s: decode error %v, want ErrWire for unknown version 1", tc.file, err)
		}
	}
}

// TestMalformedPathRefused splices step lists into a valid entry in
// place of its three-hop pending sink's path. The decoder must refuse
// every list that is not the sink step followed by one "call <sink
// function>" step per hop, Depth of them. entry_v2.golden holds such a
// list too: it was written from a fixture whose path no analysis
// builds.
func TestMalformedPathRefused(t *testing.T) {
	ent := richEntry()
	ent.Pendings = map[string][]taint.PendingSink{"rtsp_main": ent.Pendings["rtsp_main"]}
	valid := ent.Pendings["rtsp_main"][0].Steps()
	blob := EncodeEntry(ent)
	if _, err := DecodeEntry(tab, blob); err != nil {
		t.Fatalf("valid path refused: %v", err)
	}
	splice := func(steps []taint.Step) []byte {
		var want, bad enc
		want.steps(valid)
		bad.steps(steps)
		payload := blob[headerLen : len(blob)-trailerLen]
		if bytes.Count(payload, want.buf) != 1 {
			t.Fatal("the pending path's encoding is not unique in the blob")
		}
		return seal(kindEntry, bytes.Replace(payload, want.buf, bad.buf, 1))
	}
	edit := func(i int, f func(*taint.Step)) []taint.Step {
		steps := slices.Clone(valid)
		f(&steps[i])
		return steps
	}
	hop := taint.Step{Func: "rtsp_httpd", Addr: 0x1000_0300, Note: "call rtsp_parse"}
	for _, tc := range []struct {
		name  string
		steps []taint.Step
	}{
		{"sink step in another function", edit(0, func(s *taint.Step) { s.Func = "rtsp_recv" })},
		{"sink step at another site", edit(0, func(s *taint.Step) { s.Addr++ })},
		{"sink step names another sink", edit(0, func(s *taint.Step) { s.Note = "strcpy" })},
		{"hop note names the sink", edit(2, func(s *taint.Step) { s.Note = "call memcpy" })},
		{"hop without a note", edit(3, func(s *taint.Step) { s.Note = "" })},
		{"one hop more than Depth", append(slices.Clone(valid), hop)},
		{"one hop less than Depth", valid[:3]},
		{"no sink step", nil},
	} {
		if _, err := DecodeEntry(tab, splice(tc.steps)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: decode error %v, want ErrWire", tc.name, err)
		}
	}
	old, err := os.ReadFile(filepath.Join("testdata", "entry_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(tab, old); !errors.Is(err, ErrWire) {
		t.Errorf("entry_v2.golden: decode error %v, want ErrWire", err)
	}
}

// TestTruncationIsError feeds every proper prefix of a valid blob to the
// decoder: all must fail cleanly (a truncated store file is a cache
// miss, never a panic or a silent partial decode).
func TestTruncationIsError(t *testing.T) {
	blob := EncodeSummary(richSummary())
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeSummary(tab, blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(blob))
		}
	}
	ent := EncodeEntry(richEntry())
	for n := 0; n < len(ent); n++ {
		if _, err := DecodeEntry(tab, ent[:n]); err == nil {
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
		if _, err := DecodeSummary(tab, bad); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(blob))
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	blob := append(EncodeSummary(richSummary()), 0)
	if _, err := DecodeSummary(tab, blob); err == nil {
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
	if _, err := DecodeSummary(tab, blob); err == nil {
		t.Fatal("future-version blob decoded successfully")
	}
}

func TestWrongKindRejected(t *testing.T) {
	// A summary blob handed to the entry decoder (and vice versa) must
	// fail even though magic, version, and CRC all check out.
	if _, err := DecodeEntry(tab, EncodeSummary(richSummary())); err == nil {
		t.Fatal("entry decoder accepted a summary blob")
	}
	if _, err := DecodeSummary(tab, EncodeEntry(richEntry())); err == nil {
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
		{"op 99", EncodeSummary(&symexec.Summary{Rets: []*expr.Expr{tab.Bin(99, tab.Sym("arg0"), tab.Sym("arg1"))}})},
		{"op 0", EncodeSummary(&symexec.Summary{Rets: []*expr.Expr{tab.Bin(0, tab.Sym("arg0"), tab.Sym("arg1"))}})},
		{"cond 99", EncodeEntry(&Entry{Pendings: map[string][]taint.PendingSink{"f": {{Constraints: []symexec.Constraint{{Cond: 99}}}}}})},
		{"type 99", EncodeSummary(&symexec.Summary{Types: map[string]expr.Type{"arg0": 99}})},
		{"field type 99", EncodeSummary(&symexec.Summary{Fields: []symexec.FieldObs{{Ty: 99}}})},
		{"pending class 99", EncodeEntry(&Entry{Pendings: map[string][]taint.PendingSink{"f": {{Class: 99}}}})},
		{"finding class 99", EncodeEntry(&Entry{Findings: []taint.Finding{{Class: 99}}})},
	} {
		var err error
		if tc.blob[6] == kindSummary {
			_, err = DecodeSummary(tab, tc.blob)
		} else {
			_, err = DecodeEntry(tab, tc.blob)
		}
		if err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
	// The largest declared value of each enumeration still decodes.
	ok := &symexec.Summary{
		Rets:  []*expr.Expr{tab.Bin(expr.Op(maxOp), tab.Sym("arg0"), tab.Sym("arg1"))},
		Types: map[string]expr.Type{"arg0": expr.Type(maxType)},
	}
	if _, err := DecodeSummary(tab, EncodeSummary(ok)); err != nil {
		t.Fatalf("largest enum values rejected: %v", err)
	}
	okEnt := &Entry{
		Pendings: map[string][]taint.PendingSink{"f": {{Constraints: []symexec.Constraint{{Cond: isa.Cond(maxCond)}}}}},
		Findings: []taint.Finding{{Class: taint.Class(maxClass)}},
	}
	if _, err := DecodeEntry(tab, EncodeEntry(okEnt)); err != nil {
		t.Fatalf("largest cond and class rejected: %v", err)
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
// re-encodes to the same bytes. Decoding through a fresh table must
// accept exactly the same payloads and build the same trees.
func FuzzDecode(f *testing.F) {
	for _, blob := range [][]byte{EncodeSummary(richSummary()), EncodeEntry(richEntry())} {
		f.Add(blob[headerLen : len(blob)-trailerLen])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sum, err := DecodeSummary(tab, seal(kindSummary, payload))
		viaTab, tabErr := DecodeSummary(new(expr.Table), seal(kindSummary, payload))
		if (err == nil) != (tabErr == nil) {
			t.Fatalf("summary decode error %v, through a table %v", err, tabErr)
		}
		if err == nil {
			blob := EncodeSummary(sum)
			again, err := DecodeSummary(tab, blob)
			if err != nil {
				t.Fatalf("re-encoded summary does not decode: %v", err)
			}
			if !bytes.Equal(EncodeSummary(again), blob) {
				t.Fatal("summary re-encoding is not stable")
			}
			if !bytes.Equal(EncodeSummary(viaTab), blob) {
				t.Fatal("summary decoded through a table re-encodes differently")
			}
		}
		ent, err := DecodeEntry(tab, seal(kindEntry, payload))
		entTab, tabErr := DecodeEntry(new(expr.Table), seal(kindEntry, payload))
		if (err == nil) != (tabErr == nil) {
			t.Fatalf("entry decode error %v, through a table %v", err, tabErr)
		}
		if err == nil {
			blob := EncodeEntry(ent)
			again, err := DecodeEntry(tab, blob)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			if !bytes.Equal(EncodeEntry(again), blob) {
				t.Fatal("entry re-encoding is not stable")
			}
			if !bytes.Equal(EncodeEntry(entTab), blob) {
				t.Fatal("entry decoded through a table re-encodes differently")
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
