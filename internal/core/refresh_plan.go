package core

import (
	"fmt"

	"dstress/internal/dram"
	"dstress/internal/power"
)

// RefreshPlan is a retention-aware refresh schedule in the style of the
// retention-binning proposals the paper's introduction cites ([61] RAIDR
// and relatives): profiled error-prone rows refresh at their individually
// safe periods while the rest of the device refreshes at a long default.
// The quality of the underlying profile decides the plan's safety — which
// is exactly the paper's argument for profiling with synthesized viruses
// instead of micro-benchmarks.
type RefreshPlan struct {
	// DefaultTREFP is the refresh period of unprofiled (strong) rows.
	DefaultTREFP float64
	// PerRow holds the faster periods assigned to profiled weak rows.
	PerRow map[dram.RowKey]float64
}

// BuildRefreshPlan derives a plan from a retention profile: every profiled
// row gets its measured safe period (clamped to the platform bounds, with a
// relative guardband), everything else the given default. A profiled row
// that is unsafe even at the nominal period keeps the nominal period — such
// a device would be mapped out, not refresh-tuned.
func BuildRefreshPlan(profile *ProfileResult, defaultTREFP,
	guardband float64) (*RefreshPlan, error) {
	if profile == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	if defaultTREFP < NominalTREFP || defaultTREFP > MaxTREFP {
		return nil, fmt.Errorf("core: default TREFP %v outside platform range",
			defaultTREFP)
	}
	if guardband < 0 || guardband >= 1 {
		return nil, fmt.Errorf("core: guardband %v outside [0,1)", guardband)
	}
	plan := &RefreshPlan{
		DefaultTREFP: defaultTREFP,
		PerRow:       map[dram.RowKey]float64{},
	}
	for key, safe := range profile.SafeTREFP {
		t := safe * (1 - guardband)
		if t < NominalTREFP {
			t = NominalTREFP
		}
		if t > defaultTREFP {
			t = defaultTREFP
		}
		plan.PerRow[key] = t
	}
	return plan, nil
}

// RefreshPowerW returns the refresh power of the plan for one DIMM,
// weighting each row's refresh cost by its refresh rate. totalRows is the
// number of rows in the device.
func (p *RefreshPlan) RefreshPowerW(model power.Model, totalRows int) (float64, error) {
	if totalRows <= 0 {
		return 0, fmt.Errorf("core: totalRows = %d", totalRows)
	}
	// The model's RefreshW is the whole-device refresh power at the
	// nominal period; each row contributes proportionally to its rate.
	perRowNominal := model.RefreshW / float64(totalRows)
	total := float64(totalRows-len(p.PerRow)) * perRowNominal *
		(model.NominalTR / p.DefaultTREFP)
	for _, t := range p.PerRow {
		total += perRowNominal * (model.NominalTR / t)
	}
	return total, nil
}

// Savings compares the plan's refresh power against uniform nominal
// refreshing.
func (p *RefreshPlan) Savings(model power.Model, totalRows int) (float64, error) {
	planned, err := p.RefreshPowerW(model, totalRows)
	if err != nil {
		return 0, err
	}
	return power.Savings(model.RefreshW, planned), nil
}

// Evaluate measures the device under the plan at the given conditions: the
// default period applies everywhere except the per-row overrides. A safe
// plan shows no errors.
func (f *Framework) EvaluatePlan(plan *RefreshPlan, fillWord uint64,
	tempC float64, runs int) (Measurement, error) {
	if plan == nil {
		return Measurement{}, fmt.Errorf("core: nil plan")
	}
	if runs <= 0 {
		return Measurement{}, fmt.Errorf("core: runs = %d", runs)
	}
	ctl := f.Srv.MCU(f.MCU)
	ctl.ResetStats()
	dev := ctl.Device()
	dev.Reset()
	dev.FillAllUniform(fillWord)
	if err := f.Srv.SetTemperature(tempC); err != nil {
		return Measurement{}, err
	}
	var ceSum, sdcSum float64
	ues := 0
	for i := 0; i < runs; i++ {
		res, err := dev.Run(dram.RunParams{
			TREFP:      plan.DefaultTREFP,
			TREFPByRow: plan.PerRow,
			TempC:      f.Srv.DIMMTemp(f.MCU),
			VDD:        RelaxedVDD,
			RNG:        f.RNG.Split(),
		})
		if err != nil {
			return Measurement{}, err
		}
		ceSum += float64(res.CE)
		sdcSum += float64(res.SDC)
		if res.HasUE() {
			ues++
		}
	}
	n := float64(runs)
	return Measurement{MeanCE: ceSum / n, MeanSDC: sdcSum / n,
		UEFrac: float64(ues) / n}, nil
}
