// Package addrmap implements the function that maps 64-bit-aligned physical
// addresses to the DRAM physical layout — the Fig. 2 mapping of the paper
// for the 8 GB DDR3 DIMMs of the X-Gene 2 server.
//
// The observed layout properties the paper relies on (Section II):
//
//   - each 8-KByte chunk of the address space maps to exactly one DRAM row;
//   - consecutive 8-KByte chunks map to rows in *different* banks, so chunk
//     k and chunk k+Banks land in adjacent rows of the same bank;
//   - the 64-bit words within a chunk map to consecutive columns of the row.
//
// DStress exploits exactly these properties: the 24-KByte data-pattern
// template targets chunk triples {k-Banks, k, k+Banks} (three adjacent rows
// of one bank), and the access templates hammer the chunks surrounding an
// error-prone chunk. Column scrambling and faulty-column remapping are
// *device internal* and deliberately not part of this decoder — they live in
// the dram package, which is what makes third-party testing hard and the GA
// search valuable.
package addrmap

import "fmt"

// Geometry describes one DIMM rank's address space as seen by the decoder.
type Geometry struct {
	Ranks    int // ranks per DIMM (paper DIMMs: 2)
	Banks    int // banks per rank (DDR3: 8)
	Rows     int // rows per bank
	RowBytes int // bytes per row (paper: 8192 — one 8-KByte chunk)
}

// Default returns the geometry of the paper's DIMMs, except that Rows is
// configurable by the caller; the full 8 GB part has 2^17 rows per bank,
// far more than simulation needs.
func Default(rows int) Geometry {
	return Geometry{Ranks: 2, Banks: 8, Rows: rows, RowBytes: 8192}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Ranks <= 0:
		return fmt.Errorf("addrmap: Ranks = %d", g.Ranks)
	case g.Banks <= 0:
		return fmt.Errorf("addrmap: Banks = %d", g.Banks)
	case g.Rows <= 0:
		return fmt.Errorf("addrmap: Rows = %d", g.Rows)
	case g.RowBytes <= 0 || g.RowBytes%8 != 0:
		return fmt.Errorf("addrmap: RowBytes = %d", g.RowBytes)
	}
	return nil
}

// WordsPerRow returns the number of 64-bit words in one row.
func (g Geometry) WordsPerRow() int { return g.RowBytes / 8 }

// RankBytes returns the size of one rank's address space.
func (g Geometry) RankBytes() int64 {
	return int64(g.Banks) * int64(g.Rows) * int64(g.RowBytes)
}

// TotalBytes returns the size of the whole mapped address space.
func (g Geometry) TotalBytes() int64 { return int64(g.Ranks) * g.RankBytes() }

// Loc identifies a 64-bit word in the physical memory layout.
type Loc struct {
	Rank int
	Bank int
	Row  int
	Col  int // 64-bit word index within the row
}

// Map translates a 64-bit-aligned byte address to its physical location.
// It panics if addr is unaligned or outside the address space, which in the
// simulator always indicates a harness bug rather than a recoverable input.
func (g Geometry) Map(addr int64) Loc {
	if addr%8 != 0 {
		panic(fmt.Sprintf("addrmap: unaligned address %#x", addr))
	}
	if addr < 0 || addr >= g.TotalBytes() {
		panic(fmt.Sprintf("addrmap: address %#x outside %d-byte space",
			addr, g.TotalBytes()))
	}
	rank := int(addr / g.RankBytes())
	off := addr % g.RankBytes()
	chunk := int(off / int64(g.RowBytes))
	return Loc{
		Rank: rank,
		Bank: chunk % g.Banks,
		Row:  chunk / g.Banks,
		Col:  int(off%int64(g.RowBytes)) / 8,
	}
}

// Unmap is the inverse of Map.
func (g Geometry) Unmap(l Loc) int64 {
	if l.Rank < 0 || l.Rank >= g.Ranks || l.Bank < 0 || l.Bank >= g.Banks ||
		l.Row < 0 || l.Row >= g.Rows || l.Col < 0 || l.Col >= g.WordsPerRow() {
		panic(fmt.Sprintf("addrmap: invalid location %+v", l))
	}
	chunk := int64(l.Row)*int64(g.Banks) + int64(l.Bank)
	return int64(l.Rank)*g.RankBytes() +
		chunk*int64(g.RowBytes) + int64(l.Col)*8
}

// ChunkIndex returns the index of the 8-KByte chunk containing l, counted
// from the start of l's rank. Chunks adjacent in this index are the
// "predecessor/successor rows" of the paper's first access template: the
// predecessors of Row2.Bank2 are Row2.Bank1, Row1.Bank8, Row1.Bank7, ...
func (g Geometry) ChunkIndex(l Loc) int { return l.Row*g.Banks + l.Bank }

// ChunkLoc returns the row location of chunk index i within a rank
// (column 0).
func (g Geometry) ChunkLoc(rank, i int) Loc {
	if i < 0 || i >= g.Banks*g.Rows {
		panic(fmt.Sprintf("addrmap: chunk index %d out of range", i))
	}
	return Loc{Rank: rank, Bank: i % g.Banks, Row: i / g.Banks}
}

// ChunkAddr returns the byte address of the start of chunk i in a rank.
func (g Geometry) ChunkAddr(rank, i int) int64 {
	return g.Unmap(g.ChunkLoc(rank, i))
}
