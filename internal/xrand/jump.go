package xrand

import "math/bits"

// xoshiro256's state update is linear over GF(2): one step multiplies the
// 256-bit state by a fixed matrix T, and the output function reads the state
// without feeding back into it. So n steps are T^n, and T^n is r(T) for
// r(x) = x^n mod P(x), where P is T's characteristic polynomial (Cayley–
// Hamilton). P is primitive of degree 256 — the generator's period is
// 2^256-1 — and its low 256 coefficients are charPoly; the x^256 term is
// implicit. The constant is the Berlekamp–Massey polynomial of any state
// bit's sequence, and TestJumpMatchesSequential checks it against plain
// stepping.
var charPoly = [4]uint64{
	0x9d116f2bb0f0f001, 0x0280002bcefd1a5e,
	0x04b4edcf26259f85, 0x0003c03c3f3ecb19,
}

// Jump advances the generator by n draws in O(log n) time: afterwards it
// produces exactly what it would after n Uint64 calls.
func (r *Rand) Jump(n uint64) {
	if n >= 256 {
		r.s = applyPoly(r.s, jumpPoly(n))
		return
	}
	r.s = advance(r.s, int(n))
}

// advance returns the state k draws after s, stepping.
func advance(s [4]uint64, k int) [4]uint64 {
	for ; k > 0; k -= 64 {
		_, s[0], s[1], s[2], s[3] = drawMask(s[0], s[1], s[2], s[3], 0, min(k, 64))
	}
	return s
}

// jumpPoly returns x^n mod P, the polynomial that applyPoly turns into n
// steps, by square-and-multiply from the top bit of n.
func jumpPoly(n uint64) [4]uint64 {
	var r [4]uint64
	r[0] = 1
	for b := 63 - bits.LeadingZeros64(n); b >= 0; b-- {
		r = squareMod(r)
		if n>>uint(b)&1 != 0 {
			r = timesXMod(r)
		}
	}
	return r
}

// applyPoly returns r(T)·s: the XOR of T^i·s over the set coefficients i of
// r, walking T^i·s by plain steps.
func applyPoly(s, r [4]uint64) [4]uint64 {
	var acc [4]uint64
	for _, rw := range r {
		for i := 0; i < 64; i++ {
			if rw>>uint(i)&1 != 0 {
				acc[0] ^= s[0]
				acc[1] ^= s[1]
				acc[2] ^= s[2]
				acc[3] ^= s[3]
			}
			s = advance(s, 1)
		}
	}
	return acc
}

// timesXMod returns r·x mod P.
func timesXMod(r [4]uint64) [4]uint64 {
	top := r[3] >> 63
	r[3] = r[3]<<1 | r[2]>>63
	r[2] = r[2]<<1 | r[1]>>63
	r[1] = r[1]<<1 | r[0]>>63
	r[0] <<= 1
	if top != 0 {
		for i := range r {
			r[i] ^= charPoly[i]
		}
	}
	return r
}

// squareMod returns r² mod P. Squaring over GF(2) spreads bit i to bit 2i;
// each set bit d ≥ 256 of the square is then cleared, top down, by adding
// P·x^(d-256), which touches only bits below d. The word holding d stays in
// a register while its bits are cleared.
func squareMod(r [4]uint64) [4]uint64 {
	var t [8]uint64
	for i, w := range r {
		t[2*i] = spread(uint32(w))
		t[2*i+1] = spread(uint32(w >> 32))
	}
	p0, p1, p2, p3 := charPoly[0], charPoly[1], charPoly[2], charPoly[3]
	for k := 7; k >= 4; k-- {
		for h := t[k]; h != 0; {
			lo := uint(63 - bits.LeadingZeros64(h)) // d = 64k + lo
			hi := 64 - lo                           // lo = 0 shifts by 64, which gives 0
			h ^= 1<<lo | p3>>hi                     // clears bit d
			t[k-1] ^= p3<<lo | p2>>hi
			t[k-2] ^= p2<<lo | p1>>hi
			t[k-3] ^= p1<<lo | p0>>hi
			t[k-4] ^= p0 << lo
		}
	}
	return [4]uint64{t[0], t[1], t[2], t[3]}
}

// spread moves bit i of x to bit 2i.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}
