// Package march implements classical memory March tests — the industry
// test procedures the paper discusses as the state of the art it improves
// on (MATS+, March C-, MSCAN-style scans). A March test is a sequence of
// March elements, each applying read/write operations to every address in
// ascending or descending order; read operations verify the expected value
// and report mismatches.
//
// Classical March tests target static faults (stuck-at, coupling) and run
// back-to-back, so they miss retention faults entirely; retention-aware
// variants insert a pause between writing and reading, letting cells leak
// for one refresh-period window. Both modes are implemented. The paper's
// point — these tests cannot place worst-case patterns into physically
// adjacent cells without layout knowledge, so the synthesized viruses find
// more errors — is reproduced in this package's comparison tests.
package march

import (
	"fmt"

	"dstress/internal/dram"
	"dstress/internal/xrand"
)

// Op is one operation of a March element.
type Op struct {
	Read  bool
	Value bool // the bit value written, or expected on read
}

// R0, R1, W0 and W1 are the classical March operations.
var (
	R0 = Op{Read: true, Value: false}
	R1 = Op{Read: true, Value: true}
	W0 = Op{Read: false, Value: false}
	W1 = Op{Read: false, Value: true}
)

// Order is the address order of an element.
type Order int

// Address orders: ascending, descending, or either (⇕).
const (
	Up Order = iota
	Down
	Either
)

func (o Order) String() string {
	switch o {
	case Up:
		return "⇑"
	case Down:
		return "⇓"
	}
	return "⇕"
}

// Element is one March element: an address order and an operation list
// applied at each address before moving on.
type Element struct {
	Order Order
	Ops   []Op
	// Pause inserts a retention wait (one refresh-period window under the
	// current operating conditions) before this element, turning the test
	// into a retention-aware variant.
	Pause bool
}

// Test is a complete March test.
type Test struct {
	Name     string
	Elements []Element
}

// MATSPlus returns MATS+ (5n): ⇕(w0); ⇑(r0,w1); ⇓(r1,w0).
func MATSPlus() Test {
	return Test{
		Name: "MATS+",
		Elements: []Element{
			{Order: Either, Ops: []Op{W0}},
			{Order: Up, Ops: []Op{R0, W1}},
			{Order: Down, Ops: []Op{R1, W0}},
		},
	}
}

// MarchCMinus returns March C- (10n):
// ⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0).
func MarchCMinus() Test {
	return Test{
		Name: "March C-",
		Elements: []Element{
			{Order: Either, Ops: []Op{W0}},
			{Order: Up, Ops: []Op{R0, W1}},
			{Order: Up, Ops: []Op{R1, W0}},
			{Order: Down, Ops: []Op{R0, W1}},
			{Order: Down, Ops: []Op{R1, W0}},
			{Order: Either, Ops: []Op{R0}},
		},
	}
}

// MATS returns the original MATS (4n): ⇕(w0); ⇕(r0,w1); ⇕(r1).
func MATS() Test {
	return Test{
		Name: "MATS",
		Elements: []Element{
			{Order: Either, Ops: []Op{W0}},
			{Order: Either, Ops: []Op{R0, W1}},
			{Order: Either, Ops: []Op{R1}},
		},
	}
}

// MarchB returns March B (17n):
// ⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0).
func MarchB() Test {
	return Test{
		Name: "March B",
		Elements: []Element{
			{Order: Either, Ops: []Op{W0}},
			{Order: Up, Ops: []Op{R0, W1, R1, W0, R0, W1}},
			{Order: Up, Ops: []Op{R1, W0, W1}},
			{Order: Down, Ops: []Op{R1, W0, W1, W0}},
			{Order: Down, Ops: []Op{R0, W1, W0}},
		},
	}
}

// ByName returns a test from the built-in set.
func ByName(name string) (Test, error) {
	switch name {
	case "mats":
		return MATS(), nil
	case "mats+":
		return MATSPlus(), nil
	case "marchb":
		return MarchB(), nil
	case "marchc-":
		return MarchCMinus(), nil
	}
	return Test{}, fmt.Errorf("march: unknown test %q", name)
}

// RetentionAware returns a copy of t with a retention pause inserted before
// every element that begins with a read, so written data must survive one
// refresh window before verification.
func RetentionAware(t Test) Test {
	out := Test{Name: t.Name + " (retention-aware)"}
	for _, e := range t.Elements {
		if len(e.Ops) > 0 && e.Ops[0].Read {
			e.Pause = true
		}
		out.Elements = append(out.Elements, e)
	}
	return out
}

// Conditions are the operating conditions of a test run.
type Conditions struct {
	TREFP float64
	TempC float64
	VDD   float64
	RNG   *xrand.Rand
}

// Result reports a test run.
type Result struct {
	Test string
	// Mismatches counts read operations whose word did not match the
	// expected fill.
	Mismatches int
	// FailingRows are the distinct rows with at least one mismatch.
	FailingRows []dram.RowKey
}

// Run executes the test against a device. Words are written and verified
// whole (the word-level equivalent of the bit-level definition; Value false
// = all-zero word, true = all-one word). Addresses walk every column of
// every row of the device in chunk order; Down reverses it.
//
// Between elements marked Pause, the device is evaluated for one refresh
// window under the given conditions and any failing bits are applied to the
// stored image — that is where retention faults become visible to the
// following reads.
func Run(dev *dram.Device, t Test, cond Conditions) (Result, error) {
	if cond.RNG == nil {
		return Result{}, fmt.Errorf("march: nil RNG")
	}
	if cond.TREFP <= 0 || cond.VDD <= 0 {
		return Result{}, fmt.Errorf("march: bad conditions %+v", cond)
	}
	geom := dev.Geometry()
	res := Result{Test: t.Name}
	failing := map[dram.RowKey]bool{}

	wordOf := func(v bool) uint64 {
		if v {
			return ^uint64(0)
		}
		return 0
	}

	forEachRow := func(order Order, visit func(k dram.RowKey)) {
		total := geom.Ranks * geom.Banks * geom.Rows
		for i := 0; i < total; i++ {
			idx := i
			if order == Down {
				idx = total - 1 - i
			}
			rank := idx / (geom.Banks * geom.Rows)
			chunk := idx % (geom.Banks * geom.Rows)
			loc := geom.ChunkLoc(rank, chunk)
			visit(dram.Key(loc))
		}
	}

	for _, e := range t.Elements {
		if e.Pause {
			// Let the cells leak for one refresh window: evaluate the
			// retention model and apply the failing data bits to the image.
			run, err := dev.Run(dram.RunParams{
				TREFP: cond.TREFP,
				TempC: cond.TempC,
				VDD:   cond.VDD,
				RNG:   cond.RNG.Split(),
			})
			if err != nil {
				return Result{}, err
			}
			for _, we := range run.Errors {
				img := dev.RowImage(we.Key)
				if img == nil {
					continue
				}
				word := img[we.WordCol]
				for _, bit := range we.Flips {
					if bit < 64 {
						word ^= 1 << uint(bit)
					}
				}
				// Write through the device, not the raw image: mutating the
				// RowImage slice would leave the evaluation plan stale.
				loc := we.Key.Loc()
				loc.Col = we.WordCol
				dev.WriteWord(loc, word)
			}
		}
		forEachRow(e.Order, func(k dram.RowKey) {
			img := dev.RowImage(k)
			for _, op := range e.Ops {
				want := wordOf(op.Value)
				if op.Read {
					if img == nil {
						res.Mismatches += geom.WordsPerRow()
						failing[k] = true
						continue
					}
					for col := 0; col < geom.WordsPerRow(); col++ {
						if img[col] != want {
							res.Mismatches++
							failing[k] = true
							// Reads refresh the row through the sense
							// amplifiers: restore the expected value so
							// later elements see clean data, as real March
							// runs do after logging. Restored through the
							// device so the evaluation plan sees the write.
							loc := k.Loc()
							loc.Col = col
							dev.WriteWord(loc, want)
							// The write may have given a row that read a
							// uniform fill's shared background its own
							// image: the old slice is stale.
							img = dev.RowImage(k)
						}
					}
				} else {
					dev.FillRow(k, want)
					img = dev.RowImage(k)
				}
			}
		})
	}
	for k := range failing {
		res.FailingRows = append(res.FailingRows, k)
	}
	return res, nil
}
