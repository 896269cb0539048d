package march

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/xrand"
)

func testDevice(t testing.TB, seed uint64) *dram.Device {
	t.Helper()
	d, err := dram.NewDevice(dram.DefaultConfig(16, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func relaxed() Conditions {
	return Conditions{TREFP: 2.283, TempC: 60, VDD: 1.428, RNG: xrand.New(1)}
}

func nominal() Conditions {
	return Conditions{TREFP: 0.064, TempC: 50, VDD: 1.5, RNG: xrand.New(1)}
}

func TestValidation(t *testing.T) {
	d := testDevice(t, 1)
	c := relaxed()
	c.RNG = nil
	if _, err := Run(d, MATSPlus(), c); err == nil {
		t.Fatal("nil RNG accepted")
	}
	c = relaxed()
	c.TREFP = 0
	if _, err := Run(d, MATSPlus(), c); err == nil {
		t.Fatal("zero TREFP accepted")
	}
}

func TestDefinitions(t *testing.T) {
	mats := MATSPlus()
	if len(mats.Elements) != 3 {
		t.Fatalf("MATS+ has %d elements", len(mats.Elements))
	}
	cm := MarchCMinus()
	if len(cm.Elements) != 6 {
		t.Fatalf("March C- has %d elements", len(cm.Elements))
	}
	// Operation counts per address: MATS+ = 5n, March C- = 10n.
	count := func(tst Test) int {
		n := 0
		for _, e := range tst.Elements {
			n += len(e.Ops)
		}
		return n
	}
	if count(mats) != 5 || count(cm) != 10 {
		t.Fatalf("op counts: MATS+ %d (want 5), March C- %d (want 10)",
			count(mats), count(cm))
	}
	if Up.String() != "⇑" || Down.String() != "⇓" || Either.String() != "⇕" {
		t.Fatal("order strings wrong")
	}
}

// TestCleanDeviceNoPausePasses: a back-to-back March run never waits for
// retention, so a device whose only defects are retention-weak cells passes
// even under relaxed parameters — the paper's point that standard tests
// miss in-operation retention faults.
func TestCleanDeviceNoPausePasses(t *testing.T) {
	d := testDevice(t, 2)
	for _, tst := range []Test{MATSPlus(), MarchCMinus()} {
		res, err := Run(d, tst, relaxed())
		if err != nil {
			t.Fatal(err)
		}
		if res.Mismatches != 0 {
			t.Fatalf("%s without pauses reported %d mismatches",
				tst.Name, res.Mismatches)
		}
	}
}

// TestRetentionAwareDetectsWeakCells: with retention pauses inserted, the
// same tests expose the weak-cell population under relaxed parameters.
func TestRetentionAwareDetectsWeakCells(t *testing.T) {
	d := testDevice(t, 3)
	res, err := Run(d, RetentionAware(MarchCMinus()), relaxed())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches == 0 {
		t.Fatal("retention-aware March C- found nothing under relaxed params")
	}
	// Every failing row must actually contain defects.
	weak := map[dram.RowKey]bool{}
	for _, k := range d.WeakRows() {
		weak[k] = true
	}
	for _, k := range res.FailingRows {
		if !weak[k] {
			t.Fatalf("March flagged defect-free row %+v", k)
		}
	}
}

// TestNominalParametersPass: at nominal refresh/voltage even the
// retention-aware tests pass — the guardband works.
func TestNominalParametersPass(t *testing.T) {
	d := testDevice(t, 4)
	res, err := Run(d, RetentionAware(MarchCMinus()), nominal())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Fatalf("retention-aware March C- failed at nominal: %d mismatches",
			res.Mismatches)
	}
}

// TestVirusFindsMoreThanMarch reproduces the paper's comparison: the
// all-0/all-1 fills of March tests charge only half of the cells, so the
// retention-aware March run exposes fewer error-prone rows than the
// synthesized charge-all virus pattern does.
func TestVirusFindsMoreThanMarch(t *testing.T) {
	d := testDevice(t, 5)
	res, err := Run(d, RetentionAware(MarchCMinus()), relaxed())
	if err != nil {
		t.Fatal(err)
	}
	marchRows := map[dram.RowKey]bool{}
	for _, k := range res.FailingRows {
		marchRows[k] = true
	}

	// Virus scan: charge-all fill, same refresh window, several runs.
	d.Reset()
	d.FillAll(d.ChargeAllWord)
	virusRows := map[dram.RowKey]bool{}
	rng := xrand.New(9)
	for i := 0; i < 4; i++ {
		run, err := d.Run(dram.RunParams{TREFP: 2.283, TempC: 60, VDD: 1.428,
			RNG: rng.Split()})
		if err != nil {
			t.Fatal(err)
		}
		for _, we := range run.Errors {
			virusRows[we.Key] = true
		}
	}
	onlyVirus := 0
	for k := range virusRows {
		if !marchRows[k] {
			onlyVirus++
		}
	}
	t.Logf("March C- found %d rows; virus found %d (%d not seen by March)",
		len(marchRows), len(virusRows), onlyVirus)
	if len(virusRows) <= len(marchRows) {
		t.Fatal("virus did not expose more error-prone rows than March")
	}
	if onlyVirus == 0 {
		t.Fatal("virus exposed no rows beyond the March results")
	}
}

// TestReadRestoresData: after a mismatch is logged the row is restored, so
// a single weak cell does not cascade into later elements.
func TestReadRestoresData(t *testing.T) {
	d := testDevice(t, 6)
	// Two consecutive retention-aware runs must report a similar failure
	// count (the first run's corruption must not leak into the second).
	c := relaxed()
	first, err := Run(d, RetentionAware(MATSPlus()), c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(d, RetentionAware(MATSPlus()), c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Mismatches == 0 || second.Mismatches == 0 {
		t.Fatal("retention-aware MATS+ found nothing")
	}
	ratio := float64(second.Mismatches) / float64(first.Mismatches)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("mismatch counts diverge: %d then %d",
			first.Mismatches, second.Mismatches)
	}
}

func TestByName(t *testing.T) {
	for name, wantOps := range map[string]int{
		"mats": 4, "mats+": 5, "marchb": 17, "marchc-": 10,
	} {
		tst, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range tst.Elements {
			n += len(e.Ops)
		}
		if n != wantOps {
			t.Fatalf("%s has %dn complexity, want %dn", name, n, wantOps)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown test accepted")
	}
}

// TestMarchBConsistency: all classical tests pass back-to-back on a clean
// retention-only device, and all detect weak cells when retention-aware.
func TestMarchBConsistency(t *testing.T) {
	for _, name := range []string{"mats", "marchb"} {
		d := testDevice(t, 10)
		tst, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, tst, relaxed())
		if err != nil {
			t.Fatal(err)
		}
		if res.Mismatches != 0 {
			t.Fatalf("%s back-to-back found %d mismatches", name, res.Mismatches)
		}
		res, err = Run(d, RetentionAware(tst), relaxed())
		if err != nil {
			t.Fatal(err)
		}
		if res.Mismatches == 0 {
			t.Fatalf("retention-aware %s found nothing", name)
		}
	}
}

// TestUniformFillMatchesExplicitFill: March on a device holding a uniform
// fill gives the Result it gives on a device filled row by row. Elements
// that read before any write walk rows that share the fill's background
// image; the restoring writes must not leave later reads on the stale one.
func TestUniformFillMatchesExplicitFill(t *testing.T) {
	readFirst := Test{Name: "read-first", Elements: []Element{
		{Order: Up, Ops: []Op{R0, R1, W0}},
		{Order: Down, Ops: []Op{R0, W1, R1}},
	}}
	for _, tst := range []Test{readFirst, RetentionAware(readFirst),
		RetentionAware(MATSPlus())} {
		for _, fill := range []uint64{^uint64(0), 0x3333333333333333} {
			uni, exp := testDevice(t, 12), testDevice(t, 12)
			uni.FillAllUniform(fill)
			exp.FillAll(func(dram.RowKey) uint64 { return fill })
			ru, err := Run(uni, tst, relaxed())
			if err != nil {
				t.Fatal(err)
			}
			re, err := Run(exp, tst, relaxed())
			if err != nil {
				t.Fatal(err)
			}
			if ru.Mismatches == 0 {
				t.Fatalf("%s on fill %#x found nothing; the check pins nothing",
					tst.Name, fill)
			}
			for _, r := range []*Result{&ru, &re} {
				slices.SortFunc(r.FailingRows, func(a, b dram.RowKey) int {
					return cmp.Or(cmp.Compare(a.Rank, b.Rank),
						cmp.Compare(a.Bank, b.Bank), cmp.Compare(a.Row, b.Row))
				})
			}
			if !reflect.DeepEqual(ru, re) {
				t.Fatalf("%s on fill %#x: uniform %d mismatches in %d rows, "+
					"explicit %d in %d", tst.Name, fill, ru.Mismatches,
					len(ru.FailingRows), re.Mismatches, len(re.FailingRows))
			}
		}
	}
}
