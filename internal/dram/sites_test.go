package dram

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"dstress/internal/xrand"
)

// fillSparse writes random words to about two thirds of the device's rows
// and leaves the rest unwritten, so some weak cells have an unwritten row
// above or below them.
func fillSparse(d *Device, rng *xrand.Rand) {
	g := d.Geometry()
	words := make([]uint64, g.WordsPerRow())
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				if rng.Intn(3) == 0 {
					continue
				}
				for i := range words {
					words[i] = rng.Uint64()
				}
				d.FillRowWords(RowKey{int32(rank), int32(bank), int32(row)}, words)
			}
		}
	}
}

// TestCellSitesMatchResolution checks the tables NewDevice resolves against
// the per-run resolution runReference uses: every weak cell's cell type,
// charge state and coupling counts must equal what physBit, CellTypeAt and
// neighbourCoupling give, and every defect row's indices, candidate columns
// and slots must equal what a per-row scan and sort of the defect map gives.
// Narrow rows put cells at the row's first and last physical positions.
func TestCellSitesMatchResolution(t *testing.T) {
	var edgePos, checkBit, edgeRow, remapped, quirkRow, unwrittenNb int
	for seed := uint64(1); seed <= 3; seed++ {
		for _, rowBytes := range []int{8192, 32} {
			cfg := hostileConfig(seed)
			cfg.Geometry.RowBytes = rowBytes
			d := MustNewDevice(cfg)
			fillSparse(d, xrand.New(seed))
			positions := d.geom.WordsPerRow() * bitsPerWord

			for ri, key := range d.weakRows {
				dr := &d.defectRows[ri]
				var weak, clusters []int32
				var cols []int
				for i, w := range d.weak {
					if w.Key == key {
						weak = append(weak, int32(i))
						cols = append(cols, w.WordCol)
					}
				}
				for i, c := range d.clusters {
					if c.Key == key {
						clusters = append(clusters, int32(i))
						cols = append(cols, c.WordCol)
					}
				}
				sort.Ints(cols)
				cols = slices.Compact(cols)
				if !slices.Equal(dr.weak, weak) || !slices.Equal(dr.clusters, clusters) {
					t.Fatalf("row %v: indices %v/%v, want %v/%v",
						key, dr.weak, dr.clusters, weak, clusters)
				}
				if !reflect.DeepEqual(dr.cols, cols) {
					t.Fatalf("row %v: cols %v, want %v", key, dr.cols, cols)
				}
				for j, ci := range dr.clusters {
					if got := cols[dr.clSlots[j]]; got != d.clusters[ci].WordCol {
						t.Fatalf("cluster %d: slot column %d, want %d",
							ci, got, d.clusters[ci].WordCol)
					}
				}
				if !d.RowWritten(key) {
					continue
				}
				var imgs [4][]uint64
				d.neighbourImages(key, &imgs)
				for _, wi := range dr.weak {
					w := &d.weak[wi]
					s := &d.sites[wi]
					if got := cols[s.slot]; got != w.WordCol {
						t.Fatalf("cell %d: slot column %d, want %d", wi, got, w.WordCol)
					}
					pos := d.physBit(key, w.WordCol, w.Bit)
					trueCell := d.CellTypeAt(key, pos) == TrueCell
					if s.trueCell != trueCell {
						t.Fatalf("cell %d at %v pos %d: trueCell %v, want %v",
							wi, key, pos, s.trueCell, trueCell)
					}
					stored, _ := d.storedBit(key, w.WordCol, w.Bit)
					wantCharged, _ := d.chargedAtPhys(key, pos)
					if (stored == s.trueCell) != wantCharged {
						t.Fatalf("cell %d at %v pos %d: charge state differs", wi, key, pos)
					}
					lat, vert := s.coupling(&imgs)
					wantLat, wantVert := d.neighbourCoupling(key, pos)
					if lat != wantLat || vert != wantVert {
						t.Fatalf("cell %d at %v pos %d: coupling %d/%d, want %d/%d",
							wi, key, pos, lat, vert, wantLat, wantVert)
					}

					if pos == 0 || pos == positions-1 {
						edgePos++
					}
					if w.Bit >= 64 {
						checkBit++
					}
					if key.Row == 0 || int(key.Row) == d.geom.Rows-1 {
						edgeRow++
					}
					if d.physWordCol(key.Bank, w.WordCol) != w.WordCol {
						remapped++
					}
					if d.ScrambleMask(key) != 0 || d.PhaseFlipped(key) {
						quirkRow++
					}
					for _, nb := range []int{nbAbove, nbBelow} {
						if s.nb[nb].col >= 0 && imgs[nb] == nil {
							unwrittenNb++
						}
					}
				}
			}
		}
	}
	coverage := map[string]int{
		"cells at a row's first or last position": edgePos,
		"cells on a check bit":                    checkBit,
		"cells in a bank's first or last row":     edgeRow,
		"cells on a remapped column":              remapped,
		"cells in a scrambled or flipped row":     quirkRow,
		"cells beside an unwritten row":           unwrittenNb,
	}
	for what, n := range coverage {
		if n == 0 {
			t.Errorf("no %s: the check ran vacuously", what)
		}
		t.Logf("%s: %d", what, n)
	}
}
