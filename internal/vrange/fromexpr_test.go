package vrange

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtaint/internal/expr"
)

// TestMaxValue is the compatibility suite for the structural bound
// formerly implemented as expr.MaxValue and now a thin wrapper over
// OfExpr.
func TestMaxValue(t *testing.T) {
	taintE := tab.Sym(expr.TaintName("recv", 1))
	tests := []struct {
		name  string
		e     *expr.Expr
		bound int64
		ok    bool
	}{
		{"const", tab.Const(42), 42, true},
		{"negative const", tab.Const(-1), 0, false},
		{"symbol", tab.Sym("n"), 0, false},
		{"mask", tab.Bin(expr.OpAnd, taintE, tab.Const(7)), 7, true},
		{"mask reversed", tab.Bin(expr.OpAnd, tab.Const(0xFF), taintE), 255, true},
		{"mask of bounded", tab.Bin(expr.OpAnd, tab.Const(3), tab.Const(0xFF)), 3, true},
		{"shr", tab.Bin(expr.OpShr, tab.Bin(expr.OpAnd, taintE, tab.Const(0xFF)), tab.Const(4)), 15, true},
		{"shl", tab.Bin(expr.OpShl, tab.Bin(expr.OpAnd, taintE, tab.Const(3)), tab.Const(2)), 12, true},
		{"sum", tab.Bin(expr.OpAdd, tab.Bin(expr.OpAnd, taintE, tab.Const(7)), tab.Bin(expr.OpAnd, tab.Sym("x"), tab.Const(8))), 15, true},
		{"sum unbounded", tab.Bin(expr.OpAdd, tab.Sym("x"), tab.Const(7)), 0, false},
		{"mul", tab.Bin(expr.OpMul, tab.Bin(expr.OpAnd, taintE, tab.Const(3)), tab.Const(4)), 12, true},
		{"or", tab.Bin(expr.OpOr, tab.Bin(expr.OpAnd, taintE, tab.Const(7)), tab.Bin(expr.OpAnd, tab.Sym("x"), tab.Const(8))), 15, true},
		{"or unbounded", tab.Bin(expr.OpOr, taintE, tab.Const(7)), 0, false},
		{"deref", tab.Deref(tab.Sym("p")), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, ok := MaxValue(tt.e)
			if ok != tt.ok || (ok && b != tt.bound) {
				t.Fatalf("MaxValue(%s) = %d,%v want %d,%v", tt.e, b, ok, tt.bound, tt.ok)
			}
		})
	}
}

func TestOfExprEnv(t *testing.T) {
	n := tab.Sym("len_abc")
	env := Env{"len_abc": AtMost(151)}
	if iv := OfExpr(n, env); !iv.Eq(AtMost(151)) {
		t.Fatalf("env lookup: got %v", iv)
	}
	// (len+1) under len <= 151 is <= 152.
	if iv := OfExpr(tab.Add(n, 1), env); iv.Hi != 152 || !iv.Bounded() {
		t.Fatalf("shifted bound: got %v", iv)
	}
	// A symbol without a proven range stays Top and poisons the sum.
	if iv := OfExpr(tab.Bin(expr.OpAdd, n, tab.Sym("other")), env); iv.Bounded() {
		t.Fatalf("unbounded term must poison the sum: got %v", iv)
	}
	// Deref keys resolve through the env too.
	d := tab.Deref(tab.Add(tab.Sym("sp"), -64))
	env[d.Key()] = Range(0, 31)
	if iv := OfExpr(d, env); !iv.Eq(Range(0, 31)) {
		t.Fatalf("deref env lookup: got %v", iv)
	}
}

func TestOfExprSubtraction(t *testing.T) {
	// The domain is non-relational: n-m subtracts interval endpoints.
	env := Env{"n": Range(10, 20), "m": Range(1, 2)}
	iv := OfExpr(tab.Bin(expr.OpSub, tab.Sym("n"), tab.Sym("m")), env)
	if !iv.Eq(Range(8, 19)) {
		t.Fatalf("sub: got %v", iv)
	}
}

// Property: whenever MaxValue returns a bound for a randomly built
// expression over masked leaves, evaluating the expression with any
// concrete leaf assignment stays <= the bound (soundness of the
// abstract domain with respect to the concrete semantics).
func TestMaxValueSoundness(t *testing.T) {
	type leaf struct {
		sym  *expr.Expr
		mask int64
	}
	build := func(r *rand.Rand) (*expr.Expr, []leaf) {
		leaves := []leaf{
			{tab.Sym("a"), int64(r.Intn(255) + 1)},
			{tab.Sym("b"), int64(r.Intn(255) + 1)},
		}
		e1 := tab.Bin(expr.OpAnd, leaves[0].sym, tab.Const(leaves[0].mask))
		e2 := tab.Bin(expr.OpAnd, leaves[1].sym, tab.Const(leaves[1].mask))
		ops := []expr.Op{expr.OpAdd, expr.OpMul, expr.OpOr}
		return tab.Bin(ops[r.Intn(len(ops))], e1, e2), leaves
	}
	eval := func(e *expr.Expr, env map[string]int64) int64 {
		var ev func(x *expr.Expr) int64
		ev = func(x *expr.Expr) int64 {
			if v, ok := x.ConstVal(); ok {
				return v
			}
			if n, ok := x.SymName(); ok {
				return env[n]
			}
			op, l, rr, _ := x.BinOperands()
			a, b := ev(l), ev(rr)
			switch op {
			case expr.OpAdd:
				return a + b
			case expr.OpMul:
				return a * b
			case expr.OpAnd:
				return a & b
			case expr.OpOr:
				return a | b
			}
			return 0
		}
		return ev(e)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e, leaves := build(r)
		bound, ok := MaxValue(e)
		if !ok {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			env := map[string]int64{}
			for _, l := range leaves {
				name, _ := l.sym.SymName()
				env[name] = r.Int63n(1 << 20)
			}
			if eval(e, env) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
