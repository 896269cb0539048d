package xrand

import "math"

// Stream is a counter-based generator: every draw is a pure function of a
// 64-bit key and an explicit counter, so a stream's values can be produced
// in any order (At), in parallel, or re-derived from scratch without
// replaying a sequential state machine. This is the determinism-v2
// primitive: the dram evaluation keys one sub-stream per defect cell off a
// per-run stream, making the draw a cell consumes independent of the order
// cells are visited in — the property the sequential Rand cannot offer.
//
// Streams split by key derivation (Derive), not by state mutation: deriving
// a child never advances the parent, and two children derived with
// different sub-keys are decorrelated. The sequential methods (Uint64,
// Float64, Bool, Norm) exist for drop-in use; they simply walk the counter.
//
// The draw function is the SplitMix64 step over key + (ctr+1)·γ — the same
// finalizer New uses for seeding — which passes the statistical needs of the
// retention simulation and costs a handful of ALU ops per draw.
type Stream struct {
	key uint64
	ctr uint64
}

const (
	// streamGamma is Weyl increment of the counter walk (SplitMix64's γ).
	streamGamma = 0x9e3779b97f4a7c15
	// deriveMult keys child derivation; distinct from the counter walk so a
	// derived key never aliases a parent draw. (Steele & Vigna's LCG
	// multiplier; any odd constant decorrelated from γ would do.)
	deriveMult = 0xd1342543de82ef95
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche of one word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamFrom keys a stream off the next value of a sequential generator,
// advancing it by exactly one draw. This is how the v2 evaluation bridges
// the existing split-per-run plumbing (farm/fleet ship Rand states) into
// counter streams: the run's Rand contributes one word of key material and
// everything below is counter-based.
func StreamFrom(r *Rand) Stream {
	return Stream{key: mix64(r.Uint64() + streamGamma)}
}

// Derive returns the child stream for sub-key sub, at counter zero. The
// receiver is unchanged: derivation is pure, so a cell's stream can be
// re-derived at any time and in any order.
func (s Stream) Derive(sub uint64) Stream {
	return Stream{key: mix64(s.key ^ (sub+1)*deriveMult)}
}

// At returns draw i of the stream, independent of the stream's counter.
func (s Stream) At(i uint64) uint64 {
	return mix64(s.key + (i+1)*streamGamma)
}

// Float64At returns draw i mapped uniformly to [0, 1).
func (s Stream) Float64At(i uint64) float64 {
	return float64(s.At(i)>>11) / (1 << 53)
}

// BoolAt returns true with probability p, consuming draw i.
func (s Stream) BoolAt(i uint64, p float64) bool {
	return s.Float64At(i) < p
}

// NormAt returns a normal N(mean, sigma²) value from draws i and i+1, via
// the same Box–Muller transform Rand.Norm uses.
func (s Stream) NormAt(i uint64, mean, sigma float64) float64 {
	u1 := 1 - s.Float64At(i)
	u2 := s.Float64At(i + 1)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + sigma*z
}

// Uint64 returns the next sequential draw (At(ctr), advancing the counter).
func (s *Stream) Uint64() uint64 {
	v := s.At(s.ctr)
	s.ctr++
	return v
}

// Float64 returns the next sequential draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p, consuming one sequential draw.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Norm returns a normal N(mean, sigma²) value, consuming two sequential
// draws.
func (s *Stream) Norm(mean, sigma float64) float64 {
	v := s.NormAt(s.ctr, mean, sigma)
	s.ctr += 2
	return v
}

// State captures the stream's key and counter. Unlike Rand states, every
// Stream state is valid, so restoration cannot fail.
func (s Stream) State() [2]uint64 { return [2]uint64{s.key, s.ctr} }

// Restore overwrites the stream with a previously captured State.
func (s *Stream) Restore(st [2]uint64) {
	s.key, s.ctr = st[0], st[1]
}
