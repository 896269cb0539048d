package core

import "dstress/internal/server"

// This file makes *Framework satisfy predict.Prober, the health-scan device
// surface. predict does not import core — it declares the device surface it
// needs and stays free of the simulator — so the methods live here on the
// concrete type.

// ApplyScanPoint sets the scan stress point — refresh period, voltage,
// temperature — on every memory controller.
func (f *Framework) ApplyScanPoint(trefp, vdd, tempC float64) error {
	if err := f.Srv.SetAllRelaxed(trefp, vdd); err != nil {
		return err
	}
	return f.Srv.SetTemperature(tempC)
}

// NumDIMMs returns how many DIMMs a health scan visits.
func (f *Framework) NumDIMMs() int { return server.NumMCUs }

// ProbeDIMM measures the virus word on one DIMM and returns its mean
// correctable-error count and uncorrectable-error fraction. The framework's
// MCU selection is restored afterwards.
func (f *Framework) ProbeDIMM(dimm int, virusWord uint64) (meanCE, ueFrac float64, err error) {
	orig := f.MCU
	defer func() { f.MCU = orig }()
	f.MCU = dimm
	m, err := f.MeasureWord(virusWord)
	if err != nil {
		return 0, 0, err
	}
	return m.MeanCE, m.UEFrac, nil
}
