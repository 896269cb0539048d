package minicc

import (
	"strings"
	"testing"
	"testing/quick"
)

// mapMemory is a plain word-addressed memory for tests.
type mapMemory struct {
	words  map[int64]uint64
	reads  int
	writes int
}

func newMapMemory() *mapMemory { return &mapMemory{words: map[int64]uint64{}} }

func (m *mapMemory) ReadWord(addr int64) uint64 { m.reads++; return m.words[addr] }
func (m *mapMemory) WriteWord(addr int64, v uint64) {
	m.writes++
	m.words[addr] = v
}

func run(t *testing.T, globals, locals, body string) (*Machine, *mapMemory) {
	t.Helper()
	m, mem, err := tryRun(globals, locals, body, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m, mem
}

func tryRun(globals, locals, body string, budget uint64) (*Machine, *mapMemory, error) {
	mem := newMapMemory()
	mach, err := NewMachineWithHeap(mem, Region{Base: 0, Size: 1 << 20}, 0, budget)
	if err != nil {
		return nil, nil, err
	}
	g, err := ParseStmts(globals)
	if err != nil {
		return nil, nil, err
	}
	l, err := ParseStmts(locals)
	if err != nil {
		return nil, nil, err
	}
	b, err := ParseStmts(body)
	if err != nil {
		return nil, nil, err
	}
	if err := mach.Run(g, l, b); err != nil {
		return nil, nil, err
	}
	return mach, mem, nil
}

func lookupU(t *testing.T, m *Machine, name string) uint64 {
	t.Helper()
	v, ok := m.Lookup(name)
	if !ok {
		t.Fatalf("variable %q not found", name)
	}
	return v.U
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("for (i = 0x10; i <= 20ULL; i++) /* hi */ { a[i] <<= 2; } // end")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	joined := strings.Join(texts, " ")
	want := "for ( i = 0x10 ; i <= 20ULL ; i ++ ) { a [ i ] <<= 2 ; }"
	if joined != want {
		t.Fatalf("tokens:\n got %s\nwant %s", joined, want)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("a = $;"); err == nil {
		t.Fatal("bad character accepted")
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Fatal("unterminated comment accepted")
	}
}

func TestArithmetic(t *testing.T) {
	m, _ := run(t, "", "int x; int y;", `
		x = (2 + 3) * 4 - 10 / 2;
		y = 17 % 5;
	`)
	if got := lookupU(t, m, "x"); got != 15 {
		t.Fatalf("x = %d", got)
	}
	if got := lookupU(t, m, "y"); got != 2 {
		t.Fatalf("y = %d", got)
	}
}

func TestSignedVsUnsignedShift(t *testing.T) {
	m, _ := run(t, "", `
		unsigned long long u = 0xCCCCCCCCCCCCCCCC;
		long long s;
		unsigned long long ur;
		long long sr;`, `
		ur = u >> 4;
		s = (long long)u;
		sr = s >> 4;
	`)
	if got := lookupU(t, m, "ur"); got != 0x0CCCCCCCCCCCCCCC {
		t.Fatalf("logical shift wrong: %x", got)
	}
	if got := lookupU(t, m, "sr"); got != 0xFCCCCCCCCCCCCCCC {
		t.Fatalf("arithmetic shift wrong: %x", got)
	}
}

func TestSignedComparison(t *testing.T) {
	m, _ := run(t, "", "int i; int hits;", `
		hits = 0;
		for (i = 3; i >= 0; i--) { hits++; }
	`)
	if got := lookupU(t, m, "hits"); got != 4 {
		t.Fatalf("countdown loop ran %d times", got)
	}
}

func TestUnsignedDivision(t *testing.T) {
	m, _ := run(t, "", "unsigned long long a; long long b;", `
		a = (0 - 8);
		a = a / 2;       /* unsigned: huge */
		b = (0 - 8);
		b = b / 2;       /* signed: -4 */
	`)
	wantA := (^uint64(8) + 1) / 2 // unsigned (0-8)/2
	if got := lookupU(t, m, "a"); got != wantA {
		t.Fatalf("unsigned division %x", got)
	}
	if got := int64(lookupU(t, m, "b")); got != -4 {
		t.Fatalf("signed division %d", got)
	}
}

func TestGlobalArrayInitAndAccess(t *testing.T) {
	m, mem := run(t,
		"volatile unsigned long long var1[] = {1, 2, 3, 4};",
		"unsigned long long acc; int i;", `
		acc = 0;
		for (i = 0; i < 4; i++) { acc += var1[i]; }
	`)
	if got := lookupU(t, m, "acc"); got != 10 {
		t.Fatalf("acc = %d", got)
	}
	if mem.reads == 0 || mem.writes < 4 {
		t.Fatalf("array traffic missing: %d reads %d writes", mem.reads, mem.writes)
	}
}

func TestSizedArrayZeroFill(t *testing.T) {
	m, _ := run(t, "unsigned long long a[8] = {5};", "unsigned long long x;",
		"x = a[0] + a[7];")
	if got := lookupU(t, m, "x"); got != 5 {
		t.Fatalf("zero fill wrong: %d", got)
	}
}

func TestMallocAndPointerArithmetic(t *testing.T) {
	m, _ := run(t, "",
		"volatile unsigned long long* p; unsigned long long v; int i;", `
		p = (unsigned long long*)(malloc(16 * sizeof(unsigned long long)));
		for (i = 0; i < 16; i++) { p[i] = i * i; }
		v = *(p + 5);
	`)
	if got := lookupU(t, m, "v"); got != 25 {
		t.Fatalf("*(p+5) = %d", got)
	}
}

func TestCalloc(t *testing.T) {
	m, _ := run(t, "", "unsigned long long* p; unsigned long long s; int i;", `
		p = (unsigned long long*)(calloc(8, sizeof(unsigned long long)));
		s = 0;
		for (i = 0; i < 8; i++) { s += p[i]; }
	`)
	if got := lookupU(t, m, "s"); got != 0 {
		t.Fatalf("calloc memory not zeroed: %d", got)
	}
}

func TestTemplateShapedProgram(t *testing.T) {
	// The Fig. 3 template shape: copy a data-pattern array into a malloc'd
	// region, then walk it with an index array.
	m, mem := run(t, `
		volatile unsigned long long var1[] = {0x3333333333333333, 0xCCCCCCCCCCCCCCCC};
		volatile unsigned long long var2[] = {1, 0, 1, 1};`,
		`unsigned long long var3 = 0;
		volatile unsigned long long* temp_array;
		int i, j;`, `
		temp_array = (unsigned long long*)(malloc(64 * sizeof(unsigned long long)));
		/* data pattern */
		for (i = 0; i < 64; i++) {
			temp_array[i] = var1[i % 2];
		}
		/* access pattern */
		for (j = 0; j < 100; j++) {
			for (i = 0; i < 4; i++) {
				if (var2[i]) {
					var3 += temp_array[(i * 16) % 64];
				}
			}
		}
	`)
	if got := lookupU(t, m, "var3"); got == 0 {
		t.Fatal("access loop accumulated nothing")
	}
	if mem.writes < 64 {
		t.Fatalf("fill wrote only %d words", mem.writes)
	}
}

func TestStepBudgetStopsInfiniteLoop(t *testing.T) {
	mach, _, err := tryRun("", "int i;", "i = 0; while (1) { i++; }", 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !mach.Stopped() {
		t.Fatal("infinite loop not stopped by budget")
	}
	if mach.Steps() < 10000 {
		t.Fatalf("stopped after only %d steps", mach.Steps())
	}
}

func TestBreakContinue(t *testing.T) {
	m, _ := run(t, "", "int i; int sum;", `
		sum = 0;
		for (i = 0; i < 100; i++) {
			if (i % 2 == 0) { continue; }
			if (i > 10) { break; }
			sum += i;
		}
	`)
	// 1+3+5+7+9 = 25
	if got := lookupU(t, m, "sum"); got != 25 {
		t.Fatalf("sum = %d", got)
	}
}

func TestWhileAndDoWhile(t *testing.T) {
	m, _ := run(t, "", "int a; int b;", `
		a = 0;
		while (a < 5) { a++; }
		b = 0;
		do { b++; } while (b < 3);
	`)
	if lookupU(t, m, "a") != 5 || lookupU(t, m, "b") != 3 {
		t.Fatal("loop results wrong")
	}
}

func TestTernaryAndLogical(t *testing.T) {
	m, _ := run(t, "", "int x; int y; int z;", `
		x = (3 > 2) ? 10 : 20;
		y = (0 && (1/0)) ? 1 : 2;   /* short-circuit avoids division */
		z = (1 || (1/0)) ? 7 : 8;
	`)
	if lookupU(t, m, "x") != 10 || lookupU(t, m, "y") != 2 || lookupU(t, m, "z") != 7 {
		t.Fatal("ternary/logical wrong")
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	m, _ := run(t, "", "int x; int post; int pre;", `
		x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x <<= 3; x |= 1; x ^= 2; x &= 0xFB;
		post = x++;
		pre = --x;
	`)
	// x: 10+5=15-3=12*2=24/4=6%4=2<<3=16|1=17^2=19&0xFB=19 -> post=19, x=20, pre=19
	if lookupU(t, m, "post") != 19 || lookupU(t, m, "pre") != 19 {
		t.Fatalf("post=%d pre=%d", lookupU(t, m, "post"), lookupU(t, m, "pre"))
	}
}

func TestPointerDifference(t *testing.T) {
	m, _ := run(t, "", "unsigned long long* p; unsigned long long* q; long long d;", `
		p = (unsigned long long*)(malloc(80));
		q = p + 7;
		d = q - p;
	`)
	if got := lookupU(t, m, "d"); got != 7 {
		t.Fatalf("pointer difference %d", got)
	}
}

func TestErrorCases(t *testing.T) {
	cases := []struct {
		name                  string
		globals, locals, body string
	}{
		{"undefined", "", "", "x = 1;"},
		{"divzero", "", "int x;", "x = 1 / 0;"},
		{"modzero", "", "int x;", "x = 1 % 0;"},
		{"nonptr-index", "", "int x; int y;", "y = x[0];"},
		{"nonptr-deref", "", "int x; int y;", "y = *x;"},
		{"oob", "", "unsigned long long* p; int x;",
			"p = (unsigned long long*)(malloc(8)); x = p[1 << 30];"},
		{"unknown-call", "", "int x;", "x = launch_missiles();"},
		{"redeclare", "", "int x; int x;", ""},
		{"bad-array-size", "unsigned long long a[0];", "", ""},
		{"ptr-plus-ptr", "", "unsigned long long* p; unsigned long long* q; unsigned long long* r;",
			"p = (unsigned long long*)(malloc(8)); q = p; r = p + q;"},
		{"break-outside", "", "", "break;"},
	}
	for _, c := range cases {
		if _, _, err := tryRun(c.globals, c.locals, c.body, 1<<16); err == nil {
			t.Errorf("%s: error not reported", c.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"for (;;",
		"if (x {",
		"x = ;",
		"int ;",
		"x = (1 + ;",
		"do { } while (1)",
		"{ x = 1;",
	}
	for _, src := range bad {
		if _, err := ParseStmts(src); err == nil {
			t.Errorf("parse accepted %q", src)
		}
	}
}

// TestParseExprStandalone runs the parser's expression rule on lone
// expressions: a whole one is read to the end of its input, a truncated one
// is an error, and the rule stops at the end of the first expression.
func TestParseExprStandalone(t *testing.T) {
	expr := func(src string) (*parser, error) {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{toks: toks}
		_, err = p.expr()
		return p, err
	}
	if p, err := expr("(a + b) * 3"); err != nil || !p.at(TokEOF, "") {
		t.Fatalf("whole expression: err %v, stopped before the end: %v", err, err == nil)
	}
	if _, err := expr("a +"); err == nil {
		t.Fatal("bad expression accepted")
	}
	if p, err := expr("a; b"); err != nil || p.at(TokEOF, "") {
		t.Fatalf("first of two: err %v, read past the first: %v", err, err == nil)
	}
}

func TestReturnStopsBody(t *testing.T) {
	m, _ := run(t, "", "int x;", "x = 1; return; x = 2;")
	if got := lookupU(t, m, "x"); got != 1 {
		t.Fatalf("return did not stop body: x = %d", got)
	}
}

func TestScoping(t *testing.T) {
	m, _ := run(t, "", "int x;", `
		x = 1;
		{ int x; x = 99; }
		x += 1;
	`)
	if got := lookupU(t, m, "x"); got != 2 {
		t.Fatalf("shadowing broken: x = %d", got)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachineWithHeap(nil, Region{Size: 8}, 0, 1); err == nil {
		t.Fatal("nil memory accepted")
	}
	if _, err := NewMachineWithHeap(newMapMemory(), Region{Size: 0}, 0, 1); err == nil {
		t.Fatal("empty region accepted")
	}
	if _, err := NewMachineWithHeap(newMapMemory(), Region{Base: 4, Size: 64}, 4, 1); err == nil {
		t.Fatal("unaligned region accepted")
	}
	if _, err := NewMachineWithHeap(newMapMemory(), Region{Size: 64}, 0, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestOutOfVirusMemory(t *testing.T) {
	mem := newMapMemory()
	mach, err := NewMachineWithHeap(mem, Region{Base: 0, Size: 64}, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseStmts("p = (unsigned long long*)(malloc(1024));")
	if err != nil {
		t.Fatal(err)
	}
	l, err := ParseStmts("unsigned long long* p;")
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(nil, l, b); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

// TestExpressionSemanticsMatchGo cross-checks minicc's integer expression
// evaluation against native Go evaluation on random operands.
func TestExpressionSemanticsMatchGo(t *testing.T) {
	type binCase struct {
		op string
		g  func(a, b uint64) uint64
	}
	cases := []binCase{
		{"+", func(a, b uint64) uint64 { return a + b }},
		{"-", func(a, b uint64) uint64 { return a - b }},
		{"*", func(a, b uint64) uint64 { return a * b }},
		{"&", func(a, b uint64) uint64 { return a & b }},
		{"|", func(a, b uint64) uint64 { return a | b }},
		{"^", func(a, b uint64) uint64 { return a ^ b }},
		{">>", func(a, b uint64) uint64 { return a >> (b & 63) }},
		{"<<", func(a, b uint64) uint64 { return a << (b & 63) }},
	}
	f := func(a, b uint64) bool {
		for _, c := range cases {
			mem := newMapMemory()
			mach, err := NewMachineWithHeap(mem, Region{Size: 1 << 12}, 0, 1<<12)
			if err != nil {
				return false
			}
			locals, err := ParseStmts(
				"unsigned long long x; unsigned long long y; unsigned long long r;")
			if err != nil {
				return false
			}
			body, err := ParseStmts("r = x " + c.op + " y;")
			if err != nil {
				return false
			}
			// Pre-set x and y by injecting decl initializers.
			pre, err := ParseStmts("x = " + uitoa(a) + "; y = " + uitoa(b) + ";")
			if err != nil {
				return false
			}
			if err := mach.Run(nil, locals, append(pre, body...)); err != nil {
				return false
			}
			v, ok := mach.Lookup("r")
			if !ok || v.U != c.g(a, b) {
				t.Logf("op %s a=%d b=%d got %d want %d", c.op, a, b, v.U, c.g(a, b))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkInterpretLoop(b *testing.B) {
	mem := newMapMemory()
	mach, err := NewMachineWithHeap(mem, Region{Size: 1 << 16}, 0, 1<<62)
	if err != nil {
		b.Fatal(err)
	}
	locals, _ := ParseStmts("unsigned long long* p; int i;")
	setup, _ := ParseStmts("p = (unsigned long long*)(malloc(8192));")
	if err := mach.Run(nil, locals, setup); err != nil {
		b.Fatal(err)
	}
	body, _ := ParseStmts("for (i = 0; i < 1024; i++) { p[i] = i; }")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mach.Run(nil, nil, body); err != nil {
			b.Fatal(err)
		}
	}
}
