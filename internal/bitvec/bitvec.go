// Package bitvec implements a dense, fixed-length bit vector. It is the
// representation of data-pattern chromosomes (from 64 bits up to 512 KBytes)
// and of in-memory row images in the DRAM model, so the operations the GA and
// the device model need — get/set, flip, popcount, word access, match
// counting — are implemented directly over the packed words.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"dstress/internal/xrand"
)

// Vec is a bit vector of fixed length. The zero value is an empty vector.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits.
func New(n int) *Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// FromWords builds a vector of n bits backed by a copy of the given words.
// Bits beyond n in the final word are cleared.
func FromWords(n int, words []uint64) *Vec {
	v := New(n)
	copy(v.words, words)
	v.maskTail()
	return v
}

// FromUint64 returns a 64-bit vector holding w (bit 0 = least significant).
func FromUint64(w uint64) *Vec { return FromWords(64, []uint64{w}) }

// Random returns a vector of n bits where each bit is 1 with probability p.
func Random(n int, p float64, rng *xrand.Rand) *Vec {
	v := New(n)
	if p == 0.5 {
		// Fast path: fill words directly.
		for i := range v.words {
			v.words[i] = rng.Uint64()
		}
		v.maskTail()
		return v
	}
	rng.FlipBools(v.words, n, p)
	return v
}

func (v *Vec) maskTail() {
	if r := v.n % 64; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}

// Len returns the number of bits.
func (v *Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i to b.
func (v *Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i>>6] |= 1 << uint(i&63)
	} else {
		v.words[i>>6] &^= 1 << uint(i&63)
	}
}

// Flip inverts bit i.
func (v *Vec) Flip(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Flip(%d) out of range [0,%d)", i, v.n))
	}
	v.words[i>>6] ^= 1 << uint(i&63)
}

// NumWords returns the number of backing 64-bit words.
func (v *Vec) NumWords() int { return len(v.words) }

// Uint64 returns the first word; convenient for 64-bit patterns.
func (v *Vec) Uint64() uint64 {
	if len(v.words) == 0 {
		return 0
	}
	return v.words[0]
}

// OnesCount returns the number of set bits.
func (v *Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have the same length and bits.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// MatchCount returns the number of positions where v and o agree. It panics
// if lengths differ. This is the (a+d) term of the Sokal–Michener metric.
func (v *Vec) MatchCount(o *Vec) int {
	if v.n != o.n {
		panic("bitvec: MatchCount length mismatch")
	}
	diff := 0
	for i, w := range v.words {
		diff += bits.OnesCount64(w ^ o.words[i])
	}
	return v.n - diff
}

// SwapRange exchanges bits [lo, hi) between v and o, a word at a time:
// the middle segment of a two-point crossover. It panics if the lengths
// differ or the range does not fit.
func (v *Vec) SwapRange(o *Vec, lo, hi int) {
	if v.n != o.n || lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: SwapRange [%d,%d) on lengths %d/%d",
			lo, hi, v.n, o.n))
	}
	if lo == hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		m := ^uint64(0)
		if w == first {
			m <<= uint(lo & 63)
		}
		if w == last {
			m &= ^uint64(0) >> uint(63-((hi-1)&63))
		}
		d := (v.words[w] ^ o.words[w]) & m
		v.words[w] ^= d
		o.words[w] ^= d
	}
}

// Words returns the backing words: bit 64*i+j is bit j of word i, and bits
// past Len are zero. The slice is the live storage, not a copy: a caller
// that writes it must keep the bits past Len zero.
func (v *Vec) Words() []uint64 { return v.words }

// Bytes returns the packed form of the vector: its words little-endian, 8
// bytes each. FromBytes reads it back.
func (v *Vec) Bytes() []byte {
	return v.AppendBytes(make([]byte, 0, 8*len(v.words)))
}

// AppendBytes appends the packed form of the vector to dst.
func (v *Vec) AppendBytes(dst []byte) []byte {
	for _, w := range v.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// FromBytes rebuilds an n-bit vector from its packed form. Only the
// canonical encoding is accepted — exactly 8 bytes per word and no set bit
// past n — so an accepted buffer always re-encodes to the same bytes.
func FromBytes(n int, b []byte) (*Vec, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative length %d", n)
	}
	words := (n + 63) / 64
	if len(b) != 8*words {
		return nil, fmt.Errorf("bitvec: %d packed bytes for %d bits, want %d",
			len(b), n, 8*words)
	}
	v := New(n)
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if r := n % 64; r != 0 && v.words[words-1]>>uint(r) != 0 {
		return nil, fmt.Errorf("bitvec: packed bits set past length %d", n)
	}
	return v, nil
}

// String renders the vector as a bit string, bit 0 first, truncated with an
// ellipsis beyond 128 bits.
func (v *Vec) String() string {
	var b strings.Builder
	n := v.n
	trunc := false
	if n > 128 {
		n, trunc = 128, true
	}
	for i := 0; i < n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&b, "... (%d bits)", v.n)
	}
	return b.String()
}

// bitChars spells each byte value as eight '0'/'1' characters, bit 0
// first, packed little-endian into a word: BitString renders a vector a
// byte at a time through it.
var bitChars = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64('0'+b>>uint(i)&1) << uint(8*i)
		}
	}
	return t
}()

// BitString renders the whole vector as a '0'/'1' string, bit 0 first, with
// no truncation: the serialization counterpart of Parse. String, which
// elides everything past 128 bits for readable logs, must never be used to
// persist a vector.
func (v *Vec) BitString() string {
	// One word's 64 characters are staged at a time and appended to a
	// builder sized up front, so the string is allocated once and never
	// copied.
	var sb strings.Builder
	sb.Grow(v.n)
	var chunk [64]byte
	for i, w := range v.words {
		for j := 0; j < 8; j++ {
			binary.LittleEndian.PutUint64(chunk[8*j:], bitChars[byte(w>>uint(8*j))])
		}
		sb.Write(chunk[:min(64, v.n-64*i)])
	}
	return sb.String()
}

const (
	// allChar0 is eight '0' characters read as a little-endian word; a
	// chunk of valid characters differs from it only in each byte's low bit.
	allChar0 = 0x3030303030303030
	lowBits  = 0x0101010101010101
	// gatherLow moves the low bit of byte k of a word to bit 56+k: its 64
	// partial products land on distinct bit positions, so none carries.
	gatherLow = 0x0102040810204080
)

// Parse builds a vector from a bit string such as "1100", bit 0 first. It
// checks and packs eight characters at a time, and stores whole words.
// Characters other than '0' and '1' are rejected.
func Parse(s string) (*Vec, error) {
	v := New(len(s))
	full := len(s) / 64
	for i := 0; i < full; i++ {
		var w uint64
		for j := 0; j < 8; j++ {
			at := 64*i + 8*j
			x := binary.LittleEndian.Uint64([]byte(s[at : at+8]))
			if x&^lowBits != allChar0 {
				return nil, badChar(s, at)
			}
			w |= ((x & lowBits) * gatherLow >> 56) << uint(8*j)
		}
		v.words[i] = w
	}
	for i := 64 * full; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v.words[i>>6] |= 1 << uint(i&63)
		default:
			return nil, badChar(s, i)
		}
	}
	return v, nil
}

// badChar reports the first character at or after byte from that is not a
// bit. Every byte before from is a valid bit character, so from is on a rune
// boundary and the error names the whole offending rune.
func badChar(s string, from int) error {
	for i, c := range s[from:] {
		if c != '0' && c != '1' {
			return fmt.Errorf("bitvec: invalid character %q at %d", c, from+i)
		}
	}
	panic("bitvec: badChar found no invalid character")
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) *Vec {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}
