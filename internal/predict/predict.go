// Package predict implements the paper's hardware-predictive-maintenance
// use case (Section VI): the synthesized stress viruses make sensitive
// periodic health probes. A fleet scan runs the recorded worst-case virus
// on every DIMM under a fixed stress point and compares the CE counts
// against the fleet distribution and against each DIMM's own history;
// modules whose virus-measured error counts are outliers — or trending up —
// are flagged for replacement before they fail in production.
package predict

import (
	"fmt"
	"math"
	"sort"
)

// ScanPoint is the stress operating point of a health scan. Scans run
// under relaxed parameters so degradation is visible long before it
// threatens nominal operation. It mirrors core.OperatingPoint field for
// field; predict does not import core, so that the health-scan analysis
// depends on no simulator package, and the probe target is the Prober
// interface instead of the concrete framework.
type ScanPoint struct {
	TREFP float64 // refresh period in seconds
	VDD   float64 // supply voltage in volts
	TempC float64 // ambient temperature in °C
}

// DefaultScanPoint returns the standard probe: maximum refresh period,
// minimum voltage, 60 °C — the same values as core.Relaxed(60)
// (core.MaxTREFP, core.RelaxedVDD), pinned here to keep the package
// dependency-free.
func DefaultScanPoint() ScanPoint { return ScanPoint{TREFP: 2.283, VDD: 1.428, TempC: 60} }

// Prober is the device surface a health scan needs: apply a stress point,
// then measure the virus word on each DIMM. *core.Framework implements it.
type Prober interface {
	// ApplyScanPoint sets refresh period, voltage and temperature on every
	// memory controller.
	ApplyScanPoint(trefp, vdd, tempC float64) error
	// NumDIMMs returns how many DIMMs a scan visits.
	NumDIMMs() int
	// ProbeDIMM measures the virus word on one DIMM and returns its mean
	// correctable-error count and uncorrectable-error fraction.
	ProbeDIMM(dimm int, virusWord uint64) (meanCE, ueFrac float64, err error)
}

// Observation is one DIMM's result in one scan.
type Observation struct {
	MCU    int
	MeanCE float64
	UEFrac float64
}

// Scan runs the virus word on every DIMM of the prober at the scan point
// and returns the per-DIMM observations.
func Scan(p Prober, virusWord uint64, point ScanPoint) ([]Observation, error) {
	if err := p.ApplyScanPoint(point.TREFP, point.VDD, point.TempC); err != nil {
		return nil, err
	}
	var out []Observation
	for mcu := 0; mcu < p.NumDIMMs(); mcu++ {
		meanCE, ueFrac, err := p.ProbeDIMM(mcu, virusWord)
		if err != nil {
			return nil, err
		}
		out = append(out, Observation{MCU: mcu, MeanCE: meanCE,
			UEFrac: ueFrac})
	}
	return out, nil
}

// Verdict classifies one DIMM after analysis.
type Verdict struct {
	MCU int
	// ZScore is the DIMM's deviation from the fleet median in robust
	// (MAD-based) standard deviations.
	ZScore float64
	// Trend is the relative CE growth per scan interval estimated from the
	// DIMM's history (0 = flat).
	Trend float64
	// Flagged marks DIMMs recommended for proactive replacement.
	Flagged bool
	Reason  string
}

// Analyzer accumulates scan history and produces verdicts.
type Analyzer struct {
	// FleetZThreshold flags DIMMs this many robust standard deviations
	// above the fleet median (default 3).
	FleetZThreshold float64
	// TrendThreshold flags DIMMs whose CE count grows faster than this
	// relative rate per scan (default 0.10 = +10 % per scan).
	TrendThreshold float64
	// MinHistory is the number of scans required before trend analysis
	// applies (default 3).
	MinHistory int
	// MinTrendCE is the minimum mean CE level for trend analysis: counts
	// near the detection floor are too noisy to trend (default 8).
	MinTrendCE float64

	history map[int][]float64
}

// NewAnalyzer returns an analyzer with the default thresholds.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		FleetZThreshold: 3,
		TrendThreshold:  0.10,
		MinHistory:      3,
		MinTrendCE:      8,
		history:         map[int][]float64{},
	}
}

// Record adds one scan's observations to the history and returns the
// verdicts for this scan.
func (a *Analyzer) Record(obs []Observation) ([]Verdict, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("predict: empty scan")
	}
	for _, o := range obs {
		a.history[o.MCU] = append(a.history[o.MCU], o.MeanCE)
	}
	med, mad := robustStats(obs)
	var out []Verdict
	for _, o := range obs {
		v := Verdict{MCU: o.MCU}
		if mad > 0 {
			v.ZScore = (o.MeanCE - med) / (1.4826 * mad)
		}
		v.Trend = a.trend(o.MCU)
		switch {
		case o.UEFrac > 0:
			v.Flagged = true
			v.Reason = "uncorrectable errors under stress scan"
		case v.ZScore > a.FleetZThreshold:
			v.Flagged = true
			v.Reason = fmt.Sprintf("fleet outlier (z=%.1f)", v.ZScore)
		case len(a.history[o.MCU]) >= a.MinHistory &&
			v.Trend > a.TrendThreshold && a.trendReliable(o.MCU):
			v.Flagged = true
			v.Reason = fmt.Sprintf("degrading (%.0f%% per scan)", v.Trend*100)
		}
		out = append(out, v)
	}
	return out, nil
}

// History returns the recorded CE series of one DIMM.
func (a *Analyzer) History(mcu int) []float64 {
	return append([]float64(nil), a.history[mcu]...)
}

// robustStats returns the median and the median absolute deviation of the
// scan's CE counts.
func robustStats(obs []Observation) (median, mad float64) {
	vals := make([]float64, len(obs))
	for i, o := range obs {
		vals[i] = o.MeanCE
	}
	median = medianOf(vals)
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - median)
	}
	return median, medianOf(devs)
}

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trendReliable guards against flagging noise: the mean level must be
// above the detection floor and the window must rise more often than it
// falls.
func (a *Analyzer) trendReliable(mcu int) bool {
	h := a.history[mcu]
	if len(h) > 6 {
		h = h[len(h)-6:]
	}
	var sum float64
	ups, downs := 0, 0
	for i, v := range h {
		sum += v
		if i > 0 {
			if v > h[i-1] {
				ups++
			} else if v < h[i-1] {
				downs++
			}
		}
	}
	return sum/float64(len(h)) >= a.MinTrendCE && ups > downs+1
}

// trend estimates the relative per-scan growth of a DIMM's CE history via
// least-squares on the last up-to-6 scans, normalized by the mean level.
func (a *Analyzer) trend(mcu int) float64 {
	h := a.history[mcu]
	if len(h) < 2 {
		return 0
	}
	if len(h) > 6 {
		h = h[len(h)-6:]
	}
	n := float64(len(h))
	var sx, sy, sxx, sxy float64
	for i, y := range h {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / den
	mean := sy / n
	if mean <= 0 {
		return 0
	}
	return slope / mean
}
