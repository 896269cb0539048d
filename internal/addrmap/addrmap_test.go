package addrmap

import (
	"testing"
	"testing/quick"

	"dstress/internal/xrand"
)

func testGeom() Geometry { return Default(64) }

func TestValidate(t *testing.T) {
	if err := testGeom().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Geometry{
		{Ranks: 0, Banks: 8, Rows: 4, RowBytes: 8192},
		{Ranks: 1, Banks: 0, Rows: 4, RowBytes: 8192},
		{Ranks: 1, Banks: 8, Rows: 0, RowBytes: 8192},
		{Ranks: 1, Banks: 8, Rows: 4, RowBytes: 0},
		{Ranks: 1, Banks: 8, Rows: 4, RowBytes: 12}, // not 8-aligned
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("bad geometry %d validated", i)
		}
	}
}

func TestPaperLayoutProperties(t *testing.T) {
	g := testGeom()
	// Each 8-KByte chunk maps to exactly one row.
	l0 := g.Map(0)
	lEnd := g.Map(8192 - 8)
	if l0.Bank != lEnd.Bank || l0.Row != lEnd.Row || l0.Rank != lEnd.Rank {
		t.Fatal("first chunk spans multiple rows")
	}
	if l0.Col != 0 || lEnd.Col != g.WordsPerRow()-1 {
		t.Fatalf("column mapping wrong: %d..%d", l0.Col, lEnd.Col)
	}
	// Consecutive chunks land in different banks.
	l1 := g.Map(8192)
	if l1.Bank == l0.Bank {
		t.Fatal("consecutive chunks share a bank")
	}
	if l1.Bank != 1 || l1.Row != 0 {
		t.Fatalf("second chunk at %+v, want bank1 row0", l1)
	}
	// Chunk k and chunk k+Banks are adjacent rows of the same bank: the
	// 1st, 9th and 17th chunks are the first three rows of bank 0.
	l8 := g.Map(8 * 8192)
	l16 := g.Map(16 * 8192)
	if l8.Bank != 0 || l8.Row != 1 || l16.Bank != 0 || l16.Row != 2 {
		t.Fatalf("bank-stride chunks wrong: %+v %+v", l8, l16)
	}
}

func TestRankBoundary(t *testing.T) {
	g := testGeom()
	last := g.Map(g.RankBytes() - 8)
	if last.Rank != 0 {
		t.Fatalf("last word of rank 0 mapped to rank %d", last.Rank)
	}
	first := g.Map(g.RankBytes())
	if first.Rank != 1 || first.Bank != 0 || first.Row != 0 || first.Col != 0 {
		t.Fatalf("first word of rank 1 mapped to %+v", first)
	}
}

func TestMapUnmapBijective(t *testing.T) {
	g := testGeom()
	rng := xrand.New(1)
	f := func(raw uint32) bool {
		addr := (int64(raw) * 8) % g.TotalBytes()
		_ = rng
		return g.Unmap(g.Map(addr)) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapMapBijective(t *testing.T) {
	g := Default(8)
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				l := Loc{Rank: rank, Bank: bank, Row: row, Col: 17}
				if got := g.Map(g.Unmap(l)); got != l {
					t.Fatalf("round trip %+v -> %+v", l, got)
				}
			}
		}
	}
}

func TestMapPanics(t *testing.T) {
	g := testGeom()
	cases := map[string]func(){
		"unaligned": func() { g.Map(4) },
		"negative":  func() { g.Map(-8) },
		"oob":       func() { g.Map(g.TotalBytes()) },
		"unmapBad":  func() { g.Unmap(Loc{Bank: g.Banks}) },
		"chunkOOB":  func() { g.ChunkLoc(0, g.Banks*g.Rows) },
		"chunkNeg":  func() { g.ChunkLoc(0, -1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestChunkIndexing(t *testing.T) {
	g := testGeom()
	for i := 0; i < 100; i++ {
		l := g.ChunkLoc(0, i)
		if g.ChunkIndex(l) != i {
			t.Fatalf("chunk %d round-trip gave %d", i, g.ChunkIndex(l))
		}
		if g.ChunkAddr(0, i) != int64(i)*8192 {
			t.Fatalf("chunk %d addr %d", i, g.ChunkAddr(0, i))
		}
	}
	// Chunk index increments walk the paper's predecessor/successor order:
	// one bank step at a time, wrapping to the next row.
	l := g.ChunkLoc(0, g.Banks-1)
	next := g.ChunkLoc(0, g.Banks)
	if l.Row != 0 || next.Row != 1 || next.Bank != 0 {
		t.Fatalf("chunk wrap wrong: %+v then %+v", l, next)
	}
}

func TestWordsPerRow(t *testing.T) {
	if got := testGeom().WordsPerRow(); got != 1024 {
		t.Fatalf("WordsPerRow = %d, want 1024", got)
	}
}

func TestTotalBytes(t *testing.T) {
	g := Default(64)
	want := int64(2) * 8 * 64 * 8192
	if g.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", g.TotalBytes(), want)
	}
}
