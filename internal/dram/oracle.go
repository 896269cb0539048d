package dram

// This file holds "oracle" helpers that compute analytically optimal data
// words from the device's internal defect map. The GA never uses these — it
// must *discover* the patterns from error counts alone, exactly as the paper
// does on real hardware where the internals are unknown. The oracles exist
// to validate the search results in tests and to calibrate the physics.

// ChargeAllWord returns the 64-bit data word that puts every data cell of
// row key into the charged state, given the row's scrambling and cell-type
// phase. On an unscrambled, unflipped row of the ttaa layout this is the
// repeating '1100' pattern (0x3333...), the paper's headline discovery.
//
// The word is independent of the column: words are 72 bits wide in the
// array and 72 ≡ 0 (mod 4), so the cell-type phase is identical in every
// word of a row.
func (d *Device) ChargeAllWord(key RowKey) uint64 {
	var w uint64
	for l := 0; l < 64; l++ {
		pos := d.physBit(key, 0, l)
		if d.CellTypeAt(key, pos) == TrueCell {
			w |= 1 << uint(l)
		}
	}
	return w
}

// DischargeAllWord returns the 64-bit data word that puts every data cell
// of row key into the discharged state: the complement of ChargeAllWord.
func (d *Device) DischargeAllWord(key RowKey) uint64 {
	return ^d.ChargeAllWord(key)
}

// ClusterFireWord returns a 64-bit data word that maximally stresses the
// defect clusters in row key: the cluster's own (anti-cell) bits are '0' so
// the whole cluster is charged, the flanking cells are driven to the
// cluster's signature values, and every remaining cell is charged. Rows
// without a cluster get the first signature, which coincides with the
// charge-all word's natural neighbour values.
func (d *Device) ClusterFireWord(key RowKey) uint64 {
	w := d.ChargeAllWord(key)
	for _, b := range ClusterBitPositions {
		w &^= 1 << uint(b) // anti-cell defect: charged when storing '0'
	}
	sig := clusterSignatures[0]
	if ri, ok := d.defectSlot(key); ok && len(d.defectRows[ri].clusters) > 0 {
		sig = d.clusters[d.defectRows[ri].clusters[0]].Neighbours
	}
	for i, nb := range clusterNeighbourBits {
		if sig[i] {
			w |= 1 << uint(nb)
		} else {
			w &^= 1 << uint(nb)
		}
	}
	return w
}
