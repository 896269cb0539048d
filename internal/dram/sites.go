package dram

import (
	"slices"
	"sort"

	"dstress/internal/ecc"
)

// The defect map's geometry, resolved once at NewDevice. A plan compile
// (plan.go) runs for every written state, but much of what it needs is
// decided by the defect map alone: which defects sit in a row, the row's
// candidate word columns, and each weak cell's physical position, cell type
// and neighbours after column remap, scrambling and phase flip. Resolving
// that here leaves the compile reading only data bits. None of it depends
// on retention times, so Age leaves it valid. runReference keeps resolving
// positions per run through physBit and neighbourCoupling, which makes it an
// independent check on these tables.

// defectRow holds the defects of one row of weakRows.
type defectRow struct {
	weak     []int32 // weak-cell indices, defect-map order
	clusters []int32 // cluster indices, defect-map order
	clSlots  []int32 // clSlots[i]: slot of clusters[i]'s word column in cols
	cols     []int   // candidate word columns, ascending, de-duplicated
}

// Neighbour order within cellSite.nb: the two lateral neighbours (same
// row, physical positions pos±1), then the two vertical ones (same
// position, rows ±1).
const (
	nbLeft = iota
	nbRight
	nbAbove
	nbBelow
)

// siteNeighbour is one physical neighbour of a weak cell, resolved to the
// stored bit that holds its data.
type siteNeighbour struct {
	col      int32 // logical word column; -1 when there is no neighbour
	bit      uint8 // stored bit: 0..63 data, 64..71 check
	trueCell bool  // cell type at the neighbour's physical position
}

// chargedIn reports whether the neighbour is charged in its row's image.
func (n *siteNeighbour) chargedIn(img []uint64) bool {
	v := img[n.col]
	var stored bool
	if n.bit < 64 {
		stored = v>>n.bit&1 != 0
	} else {
		stored = ecc.Checksum(v)>>(n.bit-64)&1 != 0
	}
	return stored == n.trueCell
}

// cellSite is a weak cell's position, resolved against the defect map.
type cellSite struct {
	slot     int32 // slot of the cell's word column in its row's cols
	trueCell bool  // cell type at the cell's physical position
	nb       [4]siteNeighbour
}

// neighbourImages sets imgs to the row images the cells of row key read
// their neighbours from, in cellSite.nb order. A nil image, an unwritten
// row or none past the bank edge, couples nothing, as in chargedAtPhys.
// It fills imgs in place: the compile calls it once per row, and returning
// the array by value costs a copy each time.
func (d *Device) neighbourImages(key RowKey, imgs *[4][]uint64) {
	imgs[nbLeft] = d.image(key)
	imgs[nbRight] = imgs[nbLeft]
	imgs[nbAbove], imgs[nbBelow] = nil, nil
	if key.Row > 0 {
		imgs[nbAbove] = d.image(RowKey{key.Rank, key.Bank, key.Row - 1})
	}
	if int(key.Row) < d.geom.Rows-1 {
		imgs[nbBelow] = d.image(RowKey{key.Rank, key.Bank, key.Row + 1})
	}
}

// coupling returns the cell's two coupling terms, as neighbourCoupling
// does: its charged lateral and its discharged vertical neighbours, read
// from the images neighbourImages set for its row.
func (s *cellSite) coupling(imgs *[4][]uint64) (lateral, vertical int) {
	for i := range s.nb {
		n := &s.nb[i]
		if n.col < 0 || imgs[i] == nil {
			continue
		}
		charged := n.chargedIn(imgs[i])
		switch {
		case i < nbAbove && charged:
			lateral++
		case i >= nbAbove && !charged:
			vertical++
		}
	}
	return lateral, vertical
}

// defectSlot returns key's index in weakRows and whether the row holds
// defects.
func (d *Device) defectSlot(key RowKey) (int, bool) {
	i := sort.Search(len(d.weakRows), func(i int) bool {
		return !rowKeyLess(d.weakRows[i], key)
	})
	return i, i < len(d.weakRows) && d.weakRows[i] == key
}

// resolveDefects builds defectRows and sites from the sampled defect map;
// weakRows must be set.
func (d *Device) resolveDefects() {
	d.defectRows = make([]defectRow, len(d.weakRows))
	for i := range d.weak {
		ri, _ := d.defectSlot(d.weak[i].Key)
		dr := &d.defectRows[ri]
		dr.weak = append(dr.weak, int32(i))
		dr.cols = append(dr.cols, d.weak[i].WordCol)
	}
	for i := range d.clusters {
		ri, _ := d.defectSlot(d.clusters[i].Key)
		dr := &d.defectRows[ri]
		dr.clusters = append(dr.clusters, int32(i))
		dr.cols = append(dr.cols, d.clusters[i].WordCol)
	}
	d.sites = make([]cellSite, len(d.weak))
	for ri, key := range d.weakRows {
		dr := &d.defectRows[ri]
		sort.Ints(dr.cols)
		dr.cols = slices.Clip(slices.Compact(dr.cols))
		for _, ci := range dr.clusters {
			dr.clSlots = append(dr.clSlots,
				int32(sort.SearchInts(dr.cols, d.clusters[ci].WordCol)))
		}
		for _, wi := range dr.weak {
			w := &d.weak[wi]
			pos := d.physBit(key, w.WordCol, w.Bit)
			s := &d.sites[wi]
			s.slot = int32(sort.SearchInts(dr.cols, w.WordCol))
			s.trueCell = d.CellTypeAt(key, pos) == TrueCell
			s.nb[nbLeft] = d.resolveNeighbour(key, pos-1)
			s.nb[nbRight] = d.resolveNeighbour(key, pos+1)
			s.nb[nbAbove] = siteNeighbour{col: -1}
			if key.Row > 0 {
				s.nb[nbAbove] = d.resolveNeighbour(
					RowKey{key.Rank, key.Bank, key.Row - 1}, pos)
			}
			s.nb[nbBelow] = siteNeighbour{col: -1}
			if int(key.Row) < d.geom.Rows-1 {
				s.nb[nbBelow] = d.resolveNeighbour(
					RowKey{key.Rank, key.Bank, key.Row + 1}, pos)
			}
		}
	}
}

// resolveNeighbour resolves physical bit position pos of row key to its
// stored bit, as chargedAtPhys does before reading the data.
func (d *Device) resolveNeighbour(key RowKey, pos int) siteNeighbour {
	if pos < 0 || pos >= d.geom.WordsPerRow()*bitsPerWord {
		return siteNeighbour{col: -1}
	}
	q := pos % bitsPerWord
	logBit := q
	if q < 64 {
		logBit = q ^ d.ScrambleMask(key)
	}
	return siteNeighbour{
		col:      int32(d.physWordCol(key.Bank, pos/bitsPerWord)), // remap is an involution
		bit:      uint8(logBit),
		trueCell: d.CellTypeAt(key, pos) == TrueCell,
	}
}
