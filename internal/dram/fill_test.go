package dram

import (
	"testing"

	"dstress/internal/addrmap"
)

func TestFillRowMatchesWriteWord(t *testing.T) {
	a := testDevice(t, 50)
	b := testDevice(t, 50)
	k := RowKey{Rank: 0, Bank: 2, Row: 7}
	a.FillRow(k, 0x3333333333333333)
	for col := 0; col < b.Geometry().WordsPerRow(); col++ {
		b.WriteWord(addrmap.Loc{Bank: 2, Row: 7, Col: col}, 0x3333333333333333)
	}
	ia, ib := a.RowImage(k), b.RowImage(k)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("col %d: %x vs %x", i, ia[i], ib[i])
		}
	}
}

func TestFillRowWordsTiles(t *testing.T) {
	d := testDevice(t, 51)
	k := RowKey{Rank: 1, Bank: 0, Row: 3}
	d.FillRowWords(k, []uint64{1, 2, 3})
	img := d.RowImage(k)
	for i, w := range img {
		if w != uint64(i%3+1) {
			t.Fatalf("col %d = %d", i, w)
		}
	}
	// Empty input is a no-op.
	d.FillRowWords(RowKey{Rank: 1, Bank: 1, Row: 3}, nil)
	if d.RowWritten(RowKey{Rank: 1, Bank: 1, Row: 3}) {
		t.Fatal("empty fill materialized a row")
	}
}

func TestFillRowWordsLengths(t *testing.T) {
	d := testDevice(t, 54)
	n := d.Geometry().WordsPerRow()
	for _, m := range []int{1, 2, 5, n - 1, n, n + 3} {
		words := make([]uint64, m)
		for i := range words {
			words[i] = uint64(1000*m + i)
		}
		k := RowKey{Rank: 0, Bank: 1, Row: int32(m % d.Geometry().Rows)}
		d.FillRowWords(k, words)
		for i, w := range d.RowImage(k) {
			if w != words[i%m] {
				t.Fatalf("pattern of %d words: col %d = %d, want %d", m, i, w, words[i%m])
			}
		}
	}
}

// TestResetReusesImagesWithoutStaleData: Reset keeps the released row
// images for the next writes, and no stale word may show through. A row
// materialized by WriteWord reads zero outside the written column; one
// materialized by a fill holds exactly the fill.
func TestResetReusesImagesWithoutStaleData(t *testing.T) {
	d := testDevice(t, 55)
	fresh := testDevice(t, 55)
	rows := []RowKey{{Rank: 0, Bank: 0, Row: 1}, {Rank: 0, Bank: 1, Row: 2},
		{Rank: 1, Bank: 0, Row: 3}}
	for _, k := range rows {
		d.FillRow(k, ^uint64(0))
	}
	d.Reset()
	for _, k := range rows {
		if d.RowWritten(k) {
			t.Fatalf("row %+v survived Reset", k)
		}
	}
	apply := func(dev *Device) {
		dev.WriteWord(addrmap.Loc{Rank: 1, Bank: 1, Row: 4, Col: 2}, 7)
		dev.FillRowWords(RowKey{Rank: 0, Bank: 2, Row: 5}, []uint64{1, 2, 3})
		dev.FillRow(RowKey{Rank: 1, Bank: 2, Row: 6}, 9)
	}
	apply(d)
	apply(fresh)
	for _, k := range []RowKey{{Rank: 1, Bank: 1, Row: 4}, {Rank: 0, Bank: 2, Row: 5},
		{Rank: 1, Bank: 2, Row: 6}} {
		got, want := d.RowImage(k), fresh.RowImage(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %+v col %d: reused image holds %x, fresh %x",
					k, i, got[i], want[i])
			}
		}
	}
}

func TestFillAllUniformCoversDevice(t *testing.T) {
	d := testDevice(t, 52)
	d.FillAllUniform(0xCC)
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				if !d.RowWritten(k) {
					t.Fatalf("row %+v unwritten", k)
				}
				if d.RowImage(k)[0] != 0xCC {
					t.Fatalf("row %+v wrong data", k)
				}
			}
		}
	}
}

func TestFillAllPerRow(t *testing.T) {
	d := testDevice(t, 53)
	d.FillAll(d.ChargeAllWord)
	// Every weak row now holds its charge-all word.
	for _, k := range d.WeakRows() {
		if d.RowImage(k)[5] != d.ChargeAllWord(k) {
			t.Fatalf("row %+v not charge-all", k)
		}
	}
}
