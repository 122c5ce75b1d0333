package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	tests := []struct {
		name string
		got  *Expr
		want int64
	}{
		{"add", Bin(OpAdd, Const(3), Const(4)), 7},
		{"sub", Bin(OpSub, Const(3), Const(4)), -1},
		{"mul", Bin(OpMul, Const(3), Const(4)), 12},
		{"and", Bin(OpAnd, Const(0xF0), Const(0x3C)), 0x30},
		{"or", Bin(OpOr, Const(0xF0), Const(0x0C)), 0xFC},
		{"xor", Bin(OpXor, Const(0xFF), Const(0x0F)), 0xF0},
		{"shl", Bin(OpShl, Const(1), Const(4)), 16},
		{"shr", Bin(OpShr, Const(16), Const(4)), 1},
		{"nested", Bin(OpAdd, Bin(OpMul, Const(2), Const(3)), Const(1)), 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, ok := tt.got.ConstVal()
			if !ok {
				t.Fatalf("expected constant, got %s", tt.got)
			}
			if v != tt.want {
				t.Fatalf("got %d, want %d", v, tt.want)
			}
		})
	}
}

func TestAddNormalization(t *testing.T) {
	a := Sym("arg0")
	b := Sym("arg1")
	left := Bin(OpAdd, a, b)
	right := Bin(OpAdd, b, a)
	if !left.Equal(right) {
		t.Fatalf("addition not commutative after normalization: %s vs %s", left, right)
	}

	// (arg0 + 4) + 8 == arg0 + 12
	e1 := Add(Add(a, 4), 8)
	e2 := Add(a, 12)
	if !e1.Equal(e2) {
		t.Fatalf("constants not folded across nesting: %s vs %s", e1, e2)
	}

	// arg0 - 4 == arg0 + (-4)
	e3 := Bin(OpSub, a, Const(4))
	e4 := Add(a, -4)
	if !e3.Equal(e4) {
		t.Fatalf("subtraction of constant not canonicalized: %s vs %s", e3, e4)
	}
}

func TestIdentities(t *testing.T) {
	a := Sym("x")
	if got := Bin(OpMul, a, Const(1)); !got.Equal(a) {
		t.Errorf("x*1 = %s, want x", got)
	}
	if got := Bin(OpMul, a, Const(0)); !got.Equal(Const(0)) {
		t.Errorf("x*0 = %s, want 0", got)
	}
	if got := Bin(OpOr, a, Const(0)); !got.Equal(a) {
		t.Errorf("x|0 = %s, want x", got)
	}
	if got := Bin(OpShl, a, Const(0)); !got.Equal(a) {
		t.Errorf("x<<0 = %s, want x", got)
	}
	if got := Bin(OpSub, a, a); !got.Equal(Const(0)) {
		t.Errorf("x-x = %s, want 0", got)
	}
}

func TestDerefString(t *testing.T) {
	// The paper's running example: R1 = deref(R5 + 0x4C).
	e := Deref(Add(Sym("arg1"), 0x4C))
	if e.String() != "deref((arg1+76))" {
		t.Fatalf("unexpected canonical form: %s", e)
	}
	addr, ok := e.DerefAddr()
	if !ok {
		t.Fatal("DerefAddr failed")
	}
	b, off, ok := addr.BasePlusOffset()
	if !ok || off != 0x4C {
		t.Fatalf("BasePlusOffset: base=%v off=%#x ok=%v", b, off, ok)
	}
	if name, _ := b.SymName(); name != "arg1" {
		t.Fatalf("base = %s, want arg1", b)
	}
}

func TestBasePointers(t *testing.T) {
	// deref(deref(arg0+0x58)+0xEC) has base pointers arg0 and
	// deref(arg0+0x58) — the paper's multi-base example.
	inner := Deref(Add(Sym("arg0"), 0x58))
	e := Deref(Add(inner, 0xEC))
	ptrs := e.BasePointers()
	if len(ptrs) != 2 {
		t.Fatalf("got %d base pointers (%v), want 2", len(ptrs), ptrs)
	}
	keys := map[string]bool{}
	for _, p := range ptrs {
		keys[p.Key()] = true
	}
	if !keys[inner.Key()] || !keys["arg0"] {
		t.Fatalf("base pointers = %v, want arg0 and %s", ptrs, inner)
	}
}

func TestRootPointer(t *testing.T) {
	inner := Deref(Add(Sym("arg0"), 0x58))
	e := Deref(Add(inner, 0xEC))
	root := e.RootPointer()
	if root == nil {
		t.Fatal("nil root")
	}
	if name, _ := root.SymName(); name != "arg0" {
		t.Fatalf("root = %s, want arg0", root)
	}
}

func TestSubst(t *testing.T) {
	// Substituting a formal argument with an actual at a callsite:
	// deref(arg0+0x4C) with arg0 -> deref(sp+(-0x100)) becomes nested.
	formal := Deref(Add(Sym("arg0"), 0x4C))
	actual := Deref(Add(Sym(StackSym), -0x100))
	got := formal.Subst(Sym("arg0"), actual)
	want := Deref(Add(actual, 0x4C))
	if !got.Equal(want) {
		t.Fatalf("got %s, want %s", got, want)
	}
	// No-op substitution returns the receiver unchanged.
	if formal.Subst(Sym("argX"), actual) != formal {
		t.Fatal("no-op substitution should return the same pointer")
	}
}

func TestMapSymsSinglePass(t *testing.T) {
	// a -> b and b -> c applied simultaneously must not chain a -> c.
	e := Bin(OpAdd, Sym("a"), Sym("b"))
	m := map[string]*Expr{
		"a": Sym("b"),
		"b": Sym("c"),
	}
	got := e.MapSyms(func(name string) *Expr { return m[name] })
	want := Bin(OpAdd, Sym("b"), Sym("c"))
	if !got.Equal(want) {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestAnySym(t *testing.T) {
	isArg := func(s string) bool { _, ok := ArgIndex(s); return ok }
	// Nested past MaxDepth, arg1 is cut into an opaque symbol.
	deep := Sym("arg1")
	for i := 0; i < 2*MaxDepth; i++ {
		deep = Deref(deep)
	}
	isOpaque := func(s string) bool { return strings.HasPrefix(s, "opaque_") }
	for _, tc := range []struct {
		name string
		e    *Expr
		pred func(string) bool
		want bool
	}{
		{"const", Const(7), func(string) bool { return true }, false},
		{"sym match", Sym("arg0"), isArg, true},
		{"sym miss", Sym("sp"), isArg, false},
		{"deref", Deref(Add(Sym("arg2"), 0x4C)), isArg, true},
		{"right operand", Bin(OpAdd, Sym("sp"), Sym("taint_recv_10")), IsTaintName, true},
		{"binop miss", Bin(OpMul, Sym("i"), Sym("j")), IsTaintName, false},
		{"nested", Deref(Deref(Add(Sym("arg1"), 8))), isArg, true},
		{"truncated arg", deep, isArg, false},
		{"truncated opaque", deep, isOpaque, true},
	} {
		if got := tc.e.AnySym(tc.pred); got != tc.want {
			t.Errorf("%s: AnySym(%s) = %v, want %v", tc.name, tc.e, got, tc.want)
		}
		// AnySym agrees with the allocating Syms-then-loop form.
		loop := false
		for _, s := range tc.e.Syms() {
			loop = loop || tc.pred(s)
		}
		if loop != tc.want {
			t.Errorf("%s: Syms loop = %v, want %v", tc.name, loop, tc.want)
		}
	}
	e := Deref(Bin(OpSub, Sym("a"), Bin(OpMul, Sym("b"), Sym("c"))))
	var seen []string
	e.AnySym(func(s string) bool { seen = append(seen, s); return s == "b" })
	if strings.Join(seen, ",") != "a,b" {
		t.Errorf("AnySym visited %v, want it to stop at the first match", seen)
	}
	if n := testing.AllocsPerRun(100, func() { e.AnySym(IsTaintName) }); n != 0 {
		t.Errorf("AnySym allocated %v times per call, want 0", n)
	}
}

func TestContainsAndSyms(t *testing.T) {
	e := Deref(Bin(OpAdd, Sym("arg2"), Bin(OpMul, Sym("i"), Const(4))))
	if !e.ContainsSym("arg2") || !e.ContainsSym("i") || e.ContainsSym("j") {
		t.Fatalf("ContainsSym wrong for %s", e)
	}
	syms := e.Syms()
	if len(syms) != 2 {
		t.Fatalf("Syms = %v, want 2 entries", syms)
	}
	if Deref(Sym(TaintSym)).ContainsTaint() != true {
		t.Fatal("taint not detected")
	}
}

func TestArgHelpers(t *testing.T) {
	if ArgName(3) != "arg3" {
		t.Fatalf("ArgName(3) = %s", ArgName(3))
	}
	if i, ok := ArgIndex("arg7"); !ok || i != 7 {
		t.Fatalf("ArgIndex(arg7) = %d,%v", i, ok)
	}
	if _, ok := ArgIndex("argle"); ok {
		t.Fatal("argle should not parse as an argument")
	}
	if _, ok := ArgIndex("ret_foo_1c"); ok {
		t.Fatal("ret symbol is not an argument")
	}
	if !IsRetSym(RetName("memcpy", 0x6fc44)) {
		t.Fatal("RetName not recognized by IsRetSym")
	}
}

func TestDepthTruncation(t *testing.T) {
	e := Sym("p")
	for i := 0; i < MaxDepth*3; i++ {
		e = Deref(e)
	}
	if e.Depth() > MaxDepth+2 {
		t.Fatalf("depth %d exceeds bound", e.Depth())
	}
	// Truncation must be deterministic: building it again gives an equal key.
	f := Sym("p")
	for i := 0; i < MaxDepth*3; i++ {
		f = Deref(f)
	}
	if !e.Equal(f) {
		t.Fatal("truncation is not deterministic")
	}
}

// randomExpr builds a random expression of bounded size for property tests.
func randomExpr(r *rand.Rand, depth int) *Expr {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return Const(int64(r.Intn(256) - 128))
		}
		return Sym(ArgName(r.Intn(4)))
	}
	switch r.Intn(4) {
	case 0:
		return Const(int64(r.Intn(256) - 128))
	case 1:
		return Sym(ArgName(r.Intn(4)))
	case 2:
		return Deref(randomExpr(r, depth-1))
	default:
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
		return Bin(ops[r.Intn(len(ops))], randomExpr(r, depth-1), randomExpr(r, depth-1))
	}
}

func TestPropertyKeyDeterminism(t *testing.T) {
	// Rebuilding an expression from the same random stream yields the same key.
	f := func(seed int64) bool {
		a := randomExpr(rand.New(rand.NewSource(seed)), 5)
		b := randomExpr(rand.New(rand.NewSource(seed)), 5)
		return a.Equal(b) && a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomExpr(rand.New(rand.NewSource(s1)), 4)
		b := randomExpr(rand.New(rand.NewSource(s2)), 4)
		return Bin(OpAdd, a, b).Equal(Bin(OpAdd, b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddAssociativeWithConstants(t *testing.T) {
	f := func(seed int64, c1, c2 int32) bool {
		a := randomExpr(rand.New(rand.NewSource(seed)), 3)
		l := Add(Add(a, int64(c1)), int64(c2))
		r := Add(a, int64(c1)+int64(c2))
		return l.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubstIdentity(t *testing.T) {
	// Substituting a symbol that does not occur is the identity.
	f := func(seed int64) bool {
		a := randomExpr(rand.New(rand.NewSource(seed)), 4)
		return a.Subst(Sym("never_occurs"), Const(42)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubstRemovesSymbol(t *testing.T) {
	// After substituting argN -> const, argN no longer occurs (depth-bounded
	// expressions only; truncation can hide symbols inside opaque names).
	f := func(seed int64) bool {
		a := randomExpr(rand.New(rand.NewSource(seed)), 4)
		if a.Depth() >= MaxDepth {
			return true
		}
		got := a.Subst(Sym("arg0"), Const(7))
		return !got.ContainsSym("arg0")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDepthBounded(t *testing.T) {
	f := func(seed int64) bool {
		a := randomExpr(rand.New(rand.NewSource(seed)), 40)
		return a.Depth() <= MaxDepth+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeJoin(t *testing.T) {
	tests := []struct {
		a, b, want Type
	}{
		{TypeUnknown, TypeInt, TypeInt},
		{TypeInt, TypeUnknown, TypeInt},
		{TypeInt, TypeInt, TypeInt},
		{TypePtr, TypeCharPtr, TypeCharPtr},
		{TypeCharPtr, TypePtr, TypeCharPtr},
		{TypeInt, TypeCharPtr, TypeConflict},
		{TypeFuncPtr, TypePtr, TypeFuncPtr},
	}
	for _, tt := range tests {
		if got := tt.a.Join(tt.b); got != tt.want {
			t.Errorf("%s.Join(%s) = %s, want %s", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestTypeCompatible(t *testing.T) {
	if !TypeUnknown.Compatible(TypeCharPtr) {
		t.Error("unknown should be compatible with anything")
	}
	if !TypePtr.Compatible(TypeFuncPtr) {
		t.Error("generic pointer should match func pointer")
	}
	if TypeInt.Compatible(TypeCharPtr) {
		t.Error("int must not match char*")
	}
}

func TestPropertyJoinCommutative(t *testing.T) {
	all := []Type{TypeUnknown, TypeInt, TypeChar, TypeIntPtr, TypeCharPtr, TypePtr, TypeFuncPtr, TypeConflict}
	for _, a := range all {
		for _, b := range all {
			if a.Join(b) != b.Join(a) {
				t.Fatalf("Join not commutative for %s, %s", a, b)
			}
			if a.Compatible(b) != b.Compatible(a) {
				t.Fatalf("Compatible not symmetric for %s, %s", a, b)
			}
		}
	}
}
