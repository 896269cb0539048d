// Package ecc implements the (72,64) SECDED error-correcting code used by
// server-grade memory controllers: Single Error Correction, Double Error
// Detection. DStress's fitness function is the count of hardware-reported
// correctable errors (CEs) and uncorrectable errors (UEs), so the simulator
// classifies corrupted words by actually encoding and decoding them through
// this code rather than by counting flipped bits.
//
// The code is a Hsiao code: the parity-check matrix has 72 distinct
// odd-weight columns (weight-1 for the eight check bits, weight-3 and
// weight-5 for the 64 data bits). Odd-weight columns guarantee that every
// 2-bit error produces an even-weight, non-zero syndrome that matches no
// column, so all double errors are detected and never miscorrected. Errors
// of three or more bits may alias to a zero or single-column syndrome and
// escape as silent data corruption (SDC) — the behaviour the paper calls out
// for ECC SECDED.
package ecc

import "math/bits"

// DataBits and CheckBits give the code geometry.
const (
	DataBits  = 64
	CheckBits = 8
	CodeBits  = DataBits + CheckBits
)

// colSyn[j] is the 8-bit syndrome of a single-bit error in codeword bit j.
// Bits 0..63 are data bits; bits 64..71 are check bits (identity columns).
var colSyn [CodeBits]uint8

// synToCol maps a syndrome back to the erroneous bit, or -1.
var synToCol [256]int16

// checkTab holds the byte-sliced encode tables: checkTab[i][b] is the check
// byte contributed by data byte i holding value b. Because the code is
// linear, the checksum of a word is the XOR of its eight per-byte
// contributions — eight table lookups instead of a 64-iteration bit loop.
// The simulator's evaluation fast path caches encoded words, but every cache
// miss and every decode still pays one checksum, so the tables carry the
// remaining ECC cost.
var checkTab [8][256]uint8

func init() {
	// Enumerate odd-weight columns deterministically: all 56 weight-3
	// columns first, then weight-5 columns until 64 data columns exist.
	idx := 0
	for _, w := range []int{3, 5} {
		for c := 0; c < 256 && idx < DataBits; c++ {
			if bits.OnesCount8(uint8(c)) == w {
				colSyn[idx] = uint8(c)
				idx++
			}
		}
	}
	if idx != DataBits {
		panic("ecc: failed to build 64 data columns")
	}
	for i := 0; i < CheckBits; i++ {
		colSyn[DataBits+i] = 1 << uint(i)
	}
	for i := range synToCol {
		synToCol[i] = -1
	}
	for j, s := range colSyn {
		if synToCol[s] != -1 {
			panic("ecc: duplicate column syndrome")
		}
		synToCol[s] = int16(j)
	}
	for i := range checkTab {
		for b := 0; b < 256; b++ {
			var c uint8
			for q := 0; q < 8; q++ {
				if b&(1<<uint(q)) != 0 {
					c ^= colSyn[i*8+q]
				}
			}
			checkTab[i][b] = c
		}
	}
}

// Word is a stored 72-bit ECC word: 64 data bits plus 8 check bits.
type Word struct {
	Data  uint64
	Check uint8
}

// Encode computes the check bits for data.
func Encode(data uint64) Word {
	return Word{Data: data, Check: checksum(data)}
}

// Checksum returns the check byte of data: bit i is the parity of the data
// bits whose column syndrome has bit i set. Encode(data) is exactly
// Word{data, Checksum(data)}; the standalone form lets callers that only
// need the check bits (the DRAM model recomputes them the way a memory
// controller would) skip the Word construction.
func Checksum(data uint64) uint8 { return checksum(data) }

// checksum computes the check byte via the byte-sliced tables.
func checksum(data uint64) uint8 {
	return checkTab[0][uint8(data)] ^
		checkTab[1][uint8(data>>8)] ^
		checkTab[2][uint8(data>>16)] ^
		checkTab[3][uint8(data>>24)] ^
		checkTab[4][uint8(data>>32)] ^
		checkTab[5][uint8(data>>40)] ^
		checkTab[6][uint8(data>>48)] ^
		checkTab[7][uint8(data>>56)]
}

// checksumRef is the definition-level checksum the tables are verified
// against in tests: a walk over the 64 parity-check columns.
func checksumRef(data uint64) uint8 {
	var c uint8
	for j := 0; j < DataBits; j++ {
		if data&(1<<uint(j)) != 0 {
			c ^= colSyn[j]
		}
	}
	return c
}

// FlipBit returns w with codeword bit i (0..71) inverted. Bits 64..71 flip
// check bits.
func (w Word) FlipBit(i int) Word {
	if i < 0 || i >= CodeBits {
		panic("ecc: FlipBit out of range")
	}
	if i < DataBits {
		w.Data ^= 1 << uint(i)
	} else {
		w.Check ^= 1 << uint(i-DataBits)
	}
	return w
}

// Status classifies a decode.
type Status int

const (
	// OK means the syndrome was zero: no error observed. (A ≥3-bit error
	// aliasing to syndrome zero also reports OK — that is an SDC.)
	OK Status = iota
	// Corrected means a single-bit error was corrected: a CE.
	Corrected
	// Uncorrectable means a multi-bit error was detected: a UE.
	Uncorrectable
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case Corrected:
		return "CE"
	case Uncorrectable:
		return "UE"
	}
	return "ecc.Status(?)"
}

// Result reports the outcome of decoding one word.
type Result struct {
	Status Status
	// Bit is the corrected codeword bit when Status == Corrected (may be a
	// check bit, i.e. >= DataBits); -1 otherwise.
	Bit int
	// Data is the post-correction data payload. Valid unless Status ==
	// Uncorrectable.
	Data uint64
}

// Decode checks and, if possible, corrects a stored word.
func Decode(w Word) Result {
	syn := checksum(w.Data) ^ w.Check
	if syn == 0 {
		return Result{Status: OK, Bit: -1, Data: w.Data}
	}
	if col := synToCol[syn]; col >= 0 {
		data := w.Data
		if int(col) < DataBits {
			data ^= 1 << uint(col)
		}
		return Result{Status: Corrected, Bit: int(col), Data: data}
	}
	return Result{Status: Uncorrectable, Bit: -1, Data: w.Data}
}
