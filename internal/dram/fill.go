package dram

// Bulk-fill helpers. These implement the effect of a virus's
// initialization loop (a plain store loop over its region) directly on the
// row images, so GA fitness evaluation — thousands of fill+measure cycles —
// stays cheap. The reference path through the minicc interpreter and the
// memory controller produces identical images; the equivalence is asserted
// in the core package's integration tests.

// FillRow writes one word across every column of a row.
func (d *Device) FillRow(k RowKey, word uint64) {
	img := d.rows[rowID(k)]
	if img == nil {
		img = d.newImage(k)
	}
	for i := range img {
		img[i] = word
	}
	d.dirty()
	d.noteWrite(k)
}

// FillRowWords copies a row image (one uint64 per column). Short images
// tile; long images truncate.
func (d *Device) FillRowWords(k RowKey, words []uint64) {
	if len(words) == 0 {
		return
	}
	img := d.rows[rowID(k)]
	if img == nil {
		img = d.newImage(k)
	}
	// Tile by doubling: copy the pattern once, then the filled prefix onto
	// the rest; an exact-length image is a single copy.
	for n := copy(img, words); n < len(img); {
		n += copy(img[n:], img[:n])
	}
	d.dirty()
	d.noteWrite(k)
}

// FillAll fills every row of the device using the word function.
func (d *Device) FillAll(word func(RowKey) uint64) {
	for rank := 0; rank < d.geom.Ranks; rank++ {
		for bank := 0; bank < d.geom.Banks; bank++ {
			for row := 0; row < d.geom.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				d.FillRow(k, word(k))
			}
		}
	}
}

// FillAllUniform fills every row with the same word — a uniform 64-bit
// data-pattern virus. It equals FillAll with a constant word function, but
// costs one row: the materialized images are released, as Reset does, and
// every row reads the one background row filled with word until its first
// write gives it its own image.
func (d *Device) FillAllUniform(word uint64) {
	d.releaseRows()
	if d.bg == nil {
		d.bg = d.takeImage()
	}
	for i := range d.bg {
		d.bg[i] = word
	}
	d.dirty()
	d.noteAll()
}
