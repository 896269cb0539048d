package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The store treats a payload as opaque bytes, but the records that carry
// chromosome words — job checkpoints, journal ops holding them, virusdb
// frames — share one layout, so that no reader scans the words as JSON and
// no writer spells them in base64:
//
//   - A payload that starts with '{' is plain JSON: all header, no tail.
//     Every payload written before the layout existed is one, and so is any
//     record with nothing to carry beside its fields.
//   - Any other payload is TailMarker, the header's length as a uvarint,
//     the header (a JSON object), and then the tail: opaque bytes running
//     to the end of the payload, never empty.
//
// The frame's CRC-32C covers header and tail alike.

// TailMarker is the first byte of a header-plus-tail payload. No JSON text
// starts with it.
const TailMarker byte = 0x01

// Payload is one record in the header-plus-tail layout, in pieces: Header
// is a JSON object and Tail, when not empty, the bytes that follow it. With
// an empty Tail the payload is Header itself, byte for byte.
type Payload struct {
	Header []byte
	Tail   []byte
}

// Len returns the length of p's encoding.
func (p Payload) Len() int {
	if len(p.Tail) == 0 {
		return len(p.Header)
	}
	return 1 + uvarintLen(uint64(len(p.Header))) + len(p.Header) + len(p.Tail)
}

// Bytes returns p's encoding in one buffer.
func (p Payload) Bytes() []byte {
	if len(p.Tail) == 0 {
		return p.Header
	}
	return append(AppendHeader(make([]byte, 0, p.Len()), p.Header), p.Tail...)
}

// check reports a payload the layout cannot encode.
func (p Payload) check() error {
	switch n := p.Len(); {
	case n == 0 || n > maxFrame:
		return fmt.Errorf("seglog: bad payload length %d", n)
	case len(p.Tail) > 0 && (len(p.Header) == 0 || p.Header[0] != '{'):
		return errors.New("seglog: a payload with a tail needs a JSON object header")
	}
	return nil
}

// AppendHeader appends the start of a header-plus-tail payload to dst: the
// marker, the header's length and the header. Appending a non-empty tail
// completes the payload, so a writer can build one in a single buffer.
func AppendHeader(dst, header []byte) []byte {
	dst = append(dst, TailMarker)
	dst = binary.AppendUvarint(dst, uint64(len(header)))
	return append(dst, header...)
}

// SplitPayload splits an encoded payload into its header and tail without
// copying either; a plain JSON payload is all header. Only the layout is
// checked, not the JSON: a header-plus-tail payload must have a minimally
// encoded header length, a header that starts with '{' and a non-empty
// tail, so that every accepted payload re-encodes to the same bytes.
func SplitPayload(b []byte) (Payload, error) {
	switch {
	case len(b) == 0:
		return Payload{}, errors.New("seglog: empty payload")
	case b[0] == '{':
		return Payload{Header: b}, nil
	case b[0] != TailMarker:
		return Payload{}, fmt.Errorf("seglog: payload starts with %#02x, "+
			"neither a JSON object nor a header-plus-tail payload", b[0])
	}
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || k != uvarintLen(n) || n > uint64(len(b)-1-k) {
		return Payload{}, errors.New("seglog: bad header length in payload")
	}
	end := 1 + k + int(n)
	p := Payload{Header: b[1+k : end : end], Tail: b[end:]}
	switch {
	case len(p.Header) == 0 || p.Header[0] != '{':
		return Payload{}, errors.New("seglog: payload header is not a JSON object")
	case len(p.Tail) == 0:
		return Payload{}, errors.New("seglog: header-plus-tail payload without a tail")
	}
	return p, nil
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
