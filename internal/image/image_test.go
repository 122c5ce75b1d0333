package image

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dtaint/internal/isa"
)

func sampleBinary() *Binary {
	b := &Binary{
		Name:       "cgibin",
		Arch:       isa.ArchARM,
		Entry:      0x10000,
		TextBase:   0x10000,
		Text:       make([]byte, 64),
		RodataBase: 0x8000000,
		Rodata:     []byte("hello\x00world\x00"),
		Funcs: []Symbol{
			{Name: "main", Addr: 0x10000, Size: 32},
			{Name: "helper", Addr: 0x10020, Size: 32},
		},
		Imports: []Import{
			{Name: "recv", Addr: ImportBase},
			{Name: "memcpy", Addr: ImportBase + 8},
		},
		Data: []DataSym{
			{Name: "greet", Addr: 0x8000000, Size: 6},
			{Name: "target", Addr: 0x8000006, Size: 6},
		},
	}
	b.SortTables()
	return b
}

func TestMarshalParseRoundTrip(t *testing.T) {
	b := sampleBinary()
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || got.Arch != b.Arch || got.Entry != b.Entry {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Funcs) != 2 || got.Funcs[0].Name != "main" {
		t.Fatalf("funcs mismatch: %+v", got.Funcs)
	}
	if len(got.Imports) != 2 || got.Imports[1].Name != "memcpy" {
		t.Fatalf("imports mismatch: %+v", got.Imports)
	}
	if len(got.Data) != 2 {
		t.Fatalf("data mismatch: %+v", got.Data)
	}
	if string(got.Rodata) != string(b.Rodata) {
		t.Fatal("rodata mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	b := sampleBinary()
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte("ELF")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := Parse(raw[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: got %v", err)
	}
	// Every truncation point must fail cleanly, never panic.
	for i := 0; i < len(raw); i += 7 {
		if _, err := Parse(raw[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestParseFuzzLike(t *testing.T) {
	// Random corruption must never panic and must either fail or produce a
	// binary that passes Validate.
	b := sampleBinary()
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mut := append([]byte(nil), raw...)
		for i := 0; i < 8; i++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		got, err := Parse(mut)
		if err != nil {
			return true
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLookups(t *testing.T) {
	b := sampleBinary()
	if s, ok := b.FuncByName("helper"); !ok || s.Addr != 0x10020 {
		t.Errorf("FuncByName: %+v %v", s, ok)
	}
	if _, ok := b.FuncByName("nope"); ok {
		t.Error("FuncByName found a ghost")
	}
	if s, ok := b.FuncAt(0x10020); !ok || s.Name != "helper" {
		t.Errorf("FuncAt: %+v %v", s, ok)
	}
	if _, ok := b.FuncAt(0x10021); ok {
		t.Error("FuncAt matched a mid-function address")
	}
	if s, ok := b.FuncContaining(0x10028); !ok || s.Name != "helper" {
		t.Errorf("FuncContaining: %+v %v", s, ok)
	}
	if _, ok := b.FuncContaining(0x20000); ok {
		t.Error("FuncContaining matched out of range")
	}
	if im, ok := b.ImportAt(ImportBase + 8); !ok || im.Name != "memcpy" {
		t.Errorf("ImportAt: %+v %v", im, ok)
	}
	if im, ok := b.ImportByName("recv"); !ok || im.Addr != ImportBase {
		t.Errorf("ImportByName: %+v %v", im, ok)
	}
	if d, ok := b.DataByName("target"); !ok || d.Addr != 0x8000006 {
		t.Errorf("DataByName: %+v %v", d, ok)
	}
}

func TestStringAt(t *testing.T) {
	b := sampleBinary()
	if s, ok := b.StringAt(0x8000000); !ok || s != "hello" {
		t.Errorf("StringAt(0) = %q, %v", s, ok)
	}
	if s, ok := b.StringAt(0x8000006); !ok || s != "world" {
		t.Errorf("StringAt(6) = %q, %v", s, ok)
	}
	if _, ok := b.StringAt(0x9000000); ok {
		t.Error("StringAt out of range succeeded")
	}
}

func TestFuncCode(t *testing.T) {
	b := sampleBinary()
	code, err := b.FuncCode(b.Funcs[0])
	if err != nil || len(code) != 32 {
		t.Fatalf("FuncCode: %d bytes, err=%v", len(code), err)
	}
	if _, err := b.FuncCode(Symbol{Name: "bad", Addr: 0x10000, Size: 1 << 20}); err == nil {
		t.Error("oversized function accepted")
	}
	if _, err := b.FuncCode(Symbol{Name: "low", Addr: 0x100, Size: 8}); err == nil {
		t.Error("below-base function accepted")
	}
}

func TestValidate(t *testing.T) {
	b := sampleBinary()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *b
	bad.Text = make([]byte, 13)
	if err := bad.Validate(); err == nil {
		t.Error("unaligned text accepted")
	}
	bad2 := *b
	bad2.Funcs = []Symbol{{Name: "x", Addr: 0, Size: 8}}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range function accepted")
	}
	bad3 := *b
	bad3.Arch = 0
	if err := bad3.Validate(); err == nil {
		t.Error("invalid arch accepted")
	}
	bad4 := *b
	bad4.Imports = []Import{{Name: "x", Addr: 4}}
	if err := bad4.Validate(); err == nil {
		t.Error("low import stub accepted")
	}
	bad5 := *b
	bad5.TextBase, bad5.Text, bad5.Funcs = 0xFFFF_FFF8, make([]byte, 8), nil
	if err := bad5.Validate(); err == nil {
		t.Error("text section ending at 2^32 accepted")
	}
}

func TestSizeAccounting(t *testing.T) {
	b := sampleBinary()
	if b.Size() <= len(b.Text) {
		t.Error("Size must include symbol overhead")
	}
}
