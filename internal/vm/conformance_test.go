// Package vm_test is the conformance suite of the IR machine, the
// interpreter in internal/interp that executes every program this
// repository measures. The directory holds tests only.
//
// For every ir.Op the suite builds a minimal program exercising that op and
// checks the value or trap it produces. Each value case runs twice: once
// with operands loaded from globals, and once with constant operands. Every
// run also goes through run, which checks that the trace recorder saw every
// executed branch, that the prediction counters are consistent, and that a
// second run on a fresh machine reproduces the return value, counters and
// trace bytes exactly. A coverage check at the bottom fails if an ir.Op is
// added without a conformance case.
package vm_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

func fb(f float64) int64 { return int64(math.Float64bits(f)) }

// result is one interpreter run: the return value, the error, the machine
// with its counters, and the recorded trace bytes.
type result struct {
	ret   int64
	err   error
	m     *interp.Machine
	trace []byte
}

func runOnce(t *testing.T, prog *ir.Program) result {
	t.Helper()
	m := interp.New(prog)
	m.EnableBlockCounts()
	rec := trace.NewSlab(0)
	m.Rec = rec
	ret, err := m.Run()
	rec.Seal()
	if rec.Len() != m.Branches {
		t.Errorf("trace recorded %d events for %d branches", rec.Len(), m.Branches)
	}
	if m.Predicted > m.Branches || m.Mispredicted > m.Predicted {
		t.Errorf("counters: branches=%d predicted=%d mispredicted=%d",
			m.Branches, m.Predicted, m.Mispredicted)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("trace slab: %v", err)
	}
	return result{ret: ret, err: err, m: m, trace: buf.Bytes()}
}

// run executes prog twice on fresh machines and fails unless both runs
// agree on return value, error text, every counter, the trace bytes and
// the block counts. It returns the first run.
func run(t *testing.T, prog *ir.Program) result {
	t.Helper()
	a, b := runOnce(t, prog), runOnce(t, prog)
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		t.Fatalf("error differs between runs: %v vs %v", a.err, b.err)
	}
	if a.ret != b.ret {
		t.Fatalf("return differs between runs: %d vs %d", a.ret, b.ret)
	}
	am, bm := a.m, b.m
	if am.Steps != bm.Steps || am.Branches != bm.Branches ||
		am.Predicted != bm.Predicted || am.Mispredicted != bm.Mispredicted ||
		am.Checksum != bm.Checksum || am.Prints != bm.Prints {
		t.Errorf("counters differ between runs")
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("trace bytes differ between runs: %d vs %d bytes", len(a.trace), len(b.trace))
	}
	ab, bb := am.BlockCounts(), bm.BlockCounts()
	for fi := range ab {
		for bi := range ab[fi] {
			if ab[fi][bi] != bb[fi][bi] {
				t.Errorf("func %d block %d count differs between runs", fi, bi)
			}
		}
	}
	return a
}

// mustTrap fails unless r ended in a *interp.RuntimeError.
func mustTrap(t *testing.T, r result) {
	t.Helper()
	var re *interp.RuntimeError
	if !errors.As(r.err, &re) {
		t.Fatalf("want *interp.RuntimeError, got %v (ret %d)", r.err, r.ret)
	}
}

// opProg builds "main: return op(a, b)". With viaGlobals the operands load
// from globals (Init-seeded); otherwise they are constants.
func opProg(t *testing.T, op ir.Op, a, b int64, viaGlobals bool) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	var ra, rb ir.Reg
	if viaGlobals {
		for _, g := range []*ir.Global{
			{Name: "ga", Type: ir.TInt, Len: 1, Init: []int64{a}},
			{Name: "gb", Type: ir.TInt, Len: 1, Init: []int64{b}},
		} {
			if err := p.AddGlobal(g); err != nil {
				t.Fatal(err)
			}
		}
		ra, rb = bd.LoadG(p.Global("ga")), bd.LoadG(p.Global("gb"))
	} else {
		ra, rb = bd.ConstI(a), bd.ConstI(b)
	}
	var res ir.Reg
	if op.NumSrc() == 2 {
		res = bd.Binary(op, ra, rb)
	} else {
		res = bd.Unary(op, ra)
	}
	bd.RetVal(res)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	return p
}

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("lang.Compile: %v", err)
	}
	prog.NumberBranches(true)
	return prog
}

type opCase struct {
	name string
	op   ir.Op
	a, b int64
	want int64
}

// opCases is the per-opcode value matrix. Every value-producing ir.Op
// appears at least once, with the edges where an implementation drifts
// (wrapping division, NaN comparisons, shift masking).
var opCases = []opCase{
	{"mov", ir.OpMov, 42, 0, 42},
	{"addI", ir.OpAddI, 40, 2, 42},
	{"addIWrap", ir.OpAddI, math.MaxInt64, 1, math.MinInt64},
	{"subI", ir.OpSubI, 40, 2, 38},
	{"mulI", ir.OpMulI, -6, 7, -42},
	{"divI", ir.OpDivI, 42, 5, 8},
	{"divITrunc", ir.OpDivI, -7, 2, -3},
	{"divIWrap", ir.OpDivI, math.MinInt64, -1, math.MinInt64},
	{"modI", ir.OpModI, -7, 3, -1},
	{"modINegOne", ir.OpModI, math.MinInt64, -1, 0},
	{"andI", ir.OpAndI, 0b1100, 0b1010, 0b1000},
	{"orI", ir.OpOrI, 0b1100, 0b1010, 0b1110},
	{"xorI", ir.OpXorI, 0b1100, 0b1010, 0b0110},
	{"shlI", ir.OpShlI, 1, 4, 16},
	{"shlIMask", ir.OpShlI, 1, 64, 1},
	{"shrI", ir.OpShrI, -16, 2, -4},
	{"shrIMask", ir.OpShrI, -16, 66, -4},
	{"negI", ir.OpNegI, 7, 0, -7},
	{"notI0", ir.OpNotI, 0, 0, 1},
	{"notI1", ir.OpNotI, 5, 0, 0},
	{"addF", ir.OpAddF, fb(1.5), fb(2.25), fb(3.75)},
	{"subF", ir.OpSubF, fb(5), fb(1.5), fb(3.5)},
	{"mulF", ir.OpMulF, fb(3), fb(0.5), fb(1.5)},
	{"divF", ir.OpDivF, fb(1), fb(4), fb(0.25)},
	{"divFZero", ir.OpDivF, fb(1), fb(0), fb(math.Inf(1))},
	{"negF", ir.OpNegF, fb(2.5), 0, fb(-2.5)},
	{"eqI", ir.OpEqI, 3, 3, 1},
	{"neI", ir.OpNeI, 3, 3, 0},
	{"ltI", ir.OpLtI, -1, 0, 1},
	{"leI", ir.OpLeI, 0, 0, 1},
	{"gtI", ir.OpGtI, 1, 2, 0},
	{"geI", ir.OpGeI, 2, 2, 1},
	{"eqF", ir.OpEqF, fb(1.5), fb(1.5), 1},
	{"neF", ir.OpNeF, fb(1.5), fb(2.5), 1},
	{"ltF", ir.OpLtF, fb(-3), fb(1), 1},
	{"leF", ir.OpLeF, fb(1), fb(1), 1},
	{"gtF", ir.OpGtF, fb(2), fb(1), 1},
	{"geF", ir.OpGeF, fb(0.5), fb(1), 0},
	{"nanEq", ir.OpEqF, fb(math.NaN()), fb(math.NaN()), 0},
	{"nanNe", ir.OpNeF, fb(math.NaN()), fb(math.NaN()), 1},
	{"nanLt", ir.OpLtF, fb(math.NaN()), fb(1), 0},
	{"itof", ir.OpItoF, -9, 0, fb(-9)},
	{"ftoi", ir.OpFtoI, fb(3.99), 0, 3},
	{"ftoiNeg", ir.OpFtoI, fb(-3.99), 0, -3},
	{"sqrtF", ir.OpSqrtF, fb(9), 0, fb(3)},
	{"sqrtFNeg", ir.OpSqrtF, fb(-1), 0, fb(math.Sqrt(-1))},
	{"absI", ir.OpAbsI, -5, 0, 5},
	{"absIPos", ir.OpAbsI, 5, 0, 5},
	{"absF", ir.OpAbsF, fb(-1.25), 0, fb(1.25)},
	{"minI", ir.OpMinI, 3, -2, -2},
	{"maxI", ir.OpMaxI, 3, -2, 3},
	{"minF", ir.OpMinF, fb(1), fb(2), fb(1)},
	{"maxF", ir.OpMaxF, fb(1), fb(2), fb(2)},
}

// TestOpConformance checks every opcode case on both the global-operand
// and the constant-operand path.
func TestOpConformance(t *testing.T) {
	for _, c := range opCases {
		t.Run(c.name, func(t *testing.T) {
			for _, viaGlobals := range []bool{true, false} {
				r := run(t, opProg(t, c.op, c.a, c.b, viaGlobals))
				if r.err != nil {
					t.Fatalf("%v(%d,%d) (globals=%v): %v", c.op, c.a, c.b, viaGlobals, r.err)
				}
				if r.ret != c.want {
					t.Fatalf("%v(%d,%d) = %d, want %d (globals=%v)",
						c.op, c.a, c.b, r.ret, c.want, viaGlobals)
				}
			}
		})
	}
}

// trapCases are the opcode executions that must end in a
// *interp.RuntimeError.
var trapCases = []struct {
	name string
	op   ir.Op
	a, b int64
}{
	{"divZero", ir.OpDivI, 42, 0},
	{"modZero", ir.OpModI, 42, 0},
	{"ftoiNaN", ir.OpFtoI, fb(math.NaN()), 0},
	{"ftoiBig", ir.OpFtoI, fb(1e300), 0},
	{"ftoiNegBig", ir.OpFtoI, fb(-1e300), 0},
}

func TestTrapConformance(t *testing.T) {
	for _, c := range trapCases {
		t.Run(c.name, func(t *testing.T) {
			for _, viaGlobals := range []bool{true, false} {
				mustTrap(t, run(t, opProg(t, c.op, c.a, c.b, viaGlobals)))
			}
		})
	}
}

// TestNopConstConformance covers OpNop, OpConstI, and OpConstF.
func TestNopConstConformance(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	f.Entry.Instrs = append(f.Entry.Instrs, ir.Instr{Op: ir.OpNop})
	ci := bd.ConstI(41)
	cf := bd.ConstF(1.0)
	bd.RetVal(bd.Binary(ir.OpAddI, ci, bd.Unary(ir.OpFtoI, cf)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	if r := run(t, p); r.err != nil || r.ret != 42 {
		t.Fatalf("got %d, %v; want 42", r.ret, r.err)
	}
}

// TestGlobalConformance covers OpLoadG/OpStoreG plus the SetGlobal and
// GlobalValue accessors, which the bench and service layers use to seed
// inputs and read results.
func TestGlobalConformance(t *testing.T) {
	p := ir.NewProgram()
	for _, g := range []*ir.Global{
		{Name: "x", Type: ir.TInt, Len: 1, Init: []int64{5}},
		{Name: "y", Type: ir.TInt, Len: 1},
	} {
		if err := p.AddGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	x := bd.LoadG(p.Global("x"))
	bd.StoreG(p.Global("y"), bd.Binary(ir.OpMulI, x, x))
	bd.RetVal(bd.LoadG(p.Global("y")))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	if r := run(t, p); r.err != nil || r.ret != 25 {
		t.Fatalf("Init-seeded run: got %d, %v; want 25", r.ret, r.err)
	}

	m := interp.New(p)
	if err := m.SetGlobal("x", 7); err != nil {
		t.Fatal(err)
	}
	ret, err := m.Run()
	if err != nil || ret != 49 {
		t.Fatalf("SetGlobal run: got %d, %v; want 49", ret, err)
	}
	if y, err := m.GlobalValue("y"); err != nil || y != 49 {
		t.Fatalf("GlobalValue(y) = %d, %v; want 49", y, err)
	}
}

// TestElemConformance covers OpLoadElem/OpStoreElem with runtime indices
// and the out-of-bounds traps on both sides of the range.
func TestElemConformance(t *testing.T) {
	r := run(t, compileSrc(t, `
var a [8]int;

func main() int {
    for var i int = 0; i < 8; i = i + 1 {
        a[i] = i * 3;
    }
    var s int = 0;
    for var i int = 0; i < 8; i = i + 1 {
        s = s + a[i];
    }
    return s;
}`))
	if r.err != nil || r.ret != 84 {
		t.Fatalf("got %d, %v; want 84", r.ret, r.err)
	}

	for name, idx := range map[string]int64{"neg": -1, "past": 8} {
		t.Run("load-"+name, func(t *testing.T) {
			mustTrap(t, run(t, elemTrapProg(t, ir.OpLoadElem, idx)))
		})
		t.Run("store-"+name, func(t *testing.T) {
			mustTrap(t, run(t, elemTrapProg(t, ir.OpStoreElem, idx)))
		})
	}
}

// elemTrapProg builds an element access whose index comes from a global so
// the bounds check happens at run time.
func elemTrapProg(t *testing.T, op ir.Op, idx int64) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []*ir.Global{
		{Name: "a", Type: ir.TInt, Len: 8, Array: true},
		{Name: "gi", Type: ir.TInt, Len: 1, Init: []int64{idx}},
	} {
		if err := p.AddGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	ri := bd.LoadG(p.Global("gi"))
	if op == ir.OpLoadElem {
		bd.RetVal(bd.LoadElem(p.Global("a"), ri))
	} else {
		bd.StoreElem(p.Global("a"), ri, ri)
		bd.RetVal(ri)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	return p
}

// TestCallPrintConformance covers OpCall (value result, dropped result,
// argument passing) and OpPrint (print counter), plus the depth limit:
// unbounded recursion must end in ErrLimit.
func TestCallPrintConformance(t *testing.T) {
	r := run(t, compileSrc(t, `
func emit(x int) {
    print(x);
}

func add3(a int, b int, c int) int {
    return a + b + c;
}

func main() int {
    emit(7);
    emit(add3(1, 2, 3));
    var s int = 0;
    for var i int = 0; i < 10; i = i + 1 {
        s = s + add3(i, i * 2, 1);
    }
    print(s);
    return s;
}`))
	if r.err != nil || r.ret != 145 {
		t.Fatalf("got %d, %v; want 145", r.ret, r.err)
	}
	if r.m.Prints != 3 {
		t.Fatalf("prints = %d, want 3", r.m.Prints)
	}

	t.Run("depth-limit", func(t *testing.T) {
		r := run(t, compileSrc(t, `
func down(n int) int {
    return down(n + 1);
}

func main() int {
    return down(0);
}`))
		if !errors.Is(r.err, interp.ErrLimit) {
			t.Fatalf("want ErrLimit, got %v", r.err)
		}
	})
}

// TestBranchConformance covers a branch on a value that is not a fused
// comparison, and prediction scoring in both directions: a taken and a
// not-taken annotation on the same branches mispredict complementary sets.
func TestBranchConformance(t *testing.T) {
	prog := compileSrc(t, `
var bits int = 6;

func main() int {
    var n int = 0;
    for var i int = 0; i < 16; i = i + 1 {
        if (bits / (i + 1)) % 2 != 0 {
            n = n + 1;
        }
    }
    return n;
}`)
	miss := map[ir.Prediction]uint64{}
	var branches uint64
	for _, pred := range []ir.Prediction{ir.PredNone, ir.PredTaken, ir.PredNotTaken} {
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op == ir.TermBr {
					b.Term.Pred = pred
				}
			}
		}
		r := run(t, prog)
		if r.err != nil || r.ret != 4 {
			t.Fatalf("pred %v: got %d, %v; want 4", pred, r.ret, r.err)
		}
		want := r.m.Branches
		if pred == ir.PredNone {
			want = 0
		}
		if r.m.Predicted != want {
			t.Fatalf("pred %v: predicted = %d, want %d", pred, r.m.Predicted, want)
		}
		miss[pred] = r.m.Mispredicted
		branches = r.m.Branches
	}
	if miss[ir.PredTaken]+miss[ir.PredNotTaken] != branches {
		t.Fatalf("mispredicted taken=%d + not-taken=%d, want %d branches",
			miss[ir.PredTaken], miss[ir.PredNotTaken], branches)
	}
}

// TestConformanceCoversEveryOp fails when an ir.Op has no conformance
// coverage, so the suite cannot silently fall behind the instruction set.
func TestConformanceCoversEveryOp(t *testing.T) {
	covered := map[ir.Op]bool{
		// Exercised by the dedicated structural tests above.
		ir.OpNop: true, ir.OpConstI: true, ir.OpConstF: true,
		ir.OpLoadG: true, ir.OpStoreG: true,
		ir.OpLoadElem: true, ir.OpStoreElem: true,
		ir.OpCall: true, ir.OpPrint: true,
	}
	for _, c := range opCases {
		covered[c.op] = true
	}
	for _, c := range trapCases {
		covered[c.op] = true
	}
	for op := ir.Op(1); op.Valid(); op++ {
		if !covered[op] {
			t.Errorf("ir.Op %v has no conformance case", op)
		}
	}
}
