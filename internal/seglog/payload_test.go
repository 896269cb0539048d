package seglog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// payloadCases cover the layout's shapes: plain JSON, a small tail, a
// header long enough for a two-byte length, and a tail large enough to be
// written from the caller's buffer.
func payloadCases() []Payload {
	big := make([]byte, 3*directWrite+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	long := []byte(`{"pad":"` + strings.Repeat("x", 200) + `"}`)
	return []Payload{
		{Header: []byte(`{"op":"state","id":1}`)},
		{Header: []byte(`{"k":1}`), Tail: []byte{0, '\n', '{', 0xff}},
		{Header: long, Tail: []byte("t")},
		{Header: []byte(`{}`), Tail: big},
		{Header: long, Tail: big[:directWrite-1]},
	}
}

// TestPayloadLayout: Bytes and SplitPayload are inverses, a plain JSON
// payload is its header byte for byte, and AppendPayloads writes exactly
// the frames Append writes for the assembled bytes.
func TestPayloadLayout(t *testing.T) {
	ps := payloadCases()
	for i, p := range ps {
		b := p.Bytes()
		if len(b) != p.Len() {
			t.Fatalf("payload %d: Len %d, encoded %d bytes", i, p.Len(), len(b))
		}
		if len(p.Tail) == 0 && !bytes.Equal(b, p.Header) {
			t.Fatalf("payload %d: plain JSON payload is not its header", i)
		}
		back, err := SplitPayload(b)
		if err != nil || !bytes.Equal(back.Header, p.Header) || !bytes.Equal(back.Tail, p.Tail) {
			t.Fatalf("payload %d does not split back (%v)", i, err)
		}
	}

	dir := t.TempDir()
	pieces, _ := openT(t, filepath.Join(dir, "pieces"), Options{})
	whole, _ := openT(t, filepath.Join(dir, "whole"), Options{})
	var assembled [][]byte
	for _, p := range ps {
		assembled = append(assembled, p.Bytes())
	}
	// One batch, then one payload per call, on both stores.
	locsA, err := pieces.AppendPayloads(ps...)
	if err != nil {
		t.Fatal(err)
	}
	locsB, err := whole.Append(assembled...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		la, err := pieces.AppendPayloads(ps[i])
		if err != nil {
			t.Fatal(err)
		}
		lb, err := whole.Append(assembled[i])
		if err != nil {
			t.Fatal(err)
		}
		locsA, locsB = append(locsA, la...), append(locsB, lb...)
	}
	if !reflect.DeepEqual(locsA, locsB) {
		t.Fatalf("locators differ:\n%v\n%v", locsA, locsB)
	}
	for i, loc := range locsA {
		got, err := pieces.ReadFrame(loc)
		if err != nil || !bytes.Equal(got, assembled[i%len(ps)]) {
			t.Fatalf("frame %d reads back differently (%v)", i, err)
		}
	}
	pieces.Close()
	whole.Close()
	a, _ := os.ReadFile(filepath.Join(dir, "pieces", segName(1)))
	b, _ := os.ReadFile(filepath.Join(dir, "whole", segName(1)))
	if !bytes.Equal(a, b) {
		t.Fatal("AppendPayloads wrote other bytes than Append")
	}
}

// TestPayloadRejects: SplitPayload accepts one encoding per payload, and
// AppendPayloads refuses what Bytes could not encode.
func TestPayloadRejects(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":                  nil,
		"not an object":          []byte(`["a"]`),
		"marker alone":           {TailMarker},
		"overlong length":        {TailMarker, 0x82, 0x00, '{', '}', 1},
		"length past the end":    {TailMarker, 9, '{', '}', 1},
		"header not an object":   {TailMarker, 2, '[', ']', 1},
		"empty header":           {TailMarker, 0, 1},
		"tail marker, no tail":   {TailMarker, 2, '{', '}'},
		"unknown first byte":     {0x02, 2, '{', '}', 1},
		"whitespace before JSON": []byte(` {}`),
	} {
		if p, err := SplitPayload(b); err == nil {
			t.Fatalf("%s: split into %q + %q", name, p.Header, p.Tail)
		}
	}
	st, _ := openT(t, filepath.Join(t.TempDir(), "store"), Options{})
	defer st.Close()
	size := st.Size()
	for _, p := range []Payload{{}, {Header: []byte(`[]`), Tail: []byte{1}}, {Tail: []byte{1}}} {
		if _, err := st.AppendPayloads(p); err == nil {
			t.Fatalf("appended %q + %q", p.Header, p.Tail)
		}
	}
	if st.Size() != size {
		t.Fatalf("refused payloads grew the store from %d to %d bytes", size, st.Size())
	}
}
