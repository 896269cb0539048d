package minicc

import (
	"strings"
	"testing"
)

// FuzzParseStmts checks that the lexer and parser never panic on arbitrary
// input — they must either parse or return an error. Run with
// `go test -fuzz=FuzzParseStmts ./internal/minicc` to explore; the seed
// corpus runs as a normal test.
func FuzzParseStmts(f *testing.F) {
	seeds := []string{
		"",
		"int x;",
		"x = 1 + 2 * 3;",
		"for (i = 0; i < 10; i++) { a[i] = i; }",
		"while (1) { break; }",
		"do { x--; } while (x > 0);",
		"volatile unsigned long long v[] = {1, 2, 3};",
		"p = (unsigned long long*)(malloc(8));",
		"x = y ? 1 : 0;",
		"x <<= 3; y >>= 1;",
		"if (a && b || !c) { return; }",
		"{{{}}}",
		"for (;;) ;",
		"x = 0xFFFFFFFFFFFFFFFFULL;",
		"/* unterminated",
		"x = $;",
		"int 5x;",
		"x = (((1);",
		"sizeof(unsigned long long**)",
		"x = a[b[c[d]]];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound pathological inputs: deep nesting recursion is legitimate
		// but slow; cap the input size.
		if len(src) > 4096 {
			return
		}
		stmts, err := ParseStmts(src)
		if err == nil && stmts == nil && strings.TrimSpace(src) != "" {
			// Non-empty source must yield statements or an error... unless
			// it is only comments/whitespace.
			trimmed := strings.TrimSpace(src)
			if !strings.HasPrefix(trimmed, "//") && !strings.HasPrefix(trimmed, "/*") {
				t.Fatalf("no statements and no error for %q", src)
			}
		}
	})
}

// FuzzInterpreter parses and executes arbitrary bodies with a tight step
// budget; the machine must never panic, only stop or error.
func FuzzInterpreter(f *testing.F) {
	seeds := []string{
		"x = 1;",
		"for (i = 0; i < 100; i++) { x += i; }",
		"p = (unsigned long long*)(malloc(64)); p[0] = 1; x = *p;",
		"x = 1 / 1; y = 2 % 2;",
		"while (1) { }",
		"x = x;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		body, err := ParseStmts(src)
		if err != nil {
			return
		}
		locals, err := ParseStmts(
			"unsigned long long x; unsigned long long y; int i; unsigned long long* p;")
		if err != nil {
			t.Fatal(err)
		}
		mem := newMapMemory()
		m, err := NewMachineWithHeap(mem, Region{Base: 0, Size: 1 << 16}, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Run(nil, locals, body) // must not panic
	})
}
