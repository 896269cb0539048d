package ecc_test

import (
	"fmt"

	"dstress/internal/ecc"
)

// A single flipped bit is corrected (a CE); two flips are detected but not
// correctable (a UE) — the SECDED behaviour the paper's fitness function
// counts.
func Example() {
	word := ecc.Encode(0x3333333333333333)

	ce := ecc.Decode(word.FlipBit(17))
	fmt.Printf("1 flip:  %v, data restored: %v\n",
		ce.Status, ce.Data == 0x3333333333333333)

	ue := ecc.Decode(word.FlipBit(17).FlipBit(18))
	fmt.Printf("2 flips: %v\n", ue.Status)

	// Three flips can alias to a single-bit syndrome and be miscorrected:
	// silent data corruption.
	sdc := ecc.Decode(word.FlipBit(17).FlipBit(18).FlipBit(21))
	fmt.Printf("3 flips: SDC = %v\n",
		sdc.Status != ecc.Uncorrectable && sdc.Data != 0x3333333333333333)

	// Output:
	// 1 flip:  CE, data restored: true
	// 2 flips: UE
	// 3 flips: SDC = true
}
