// Package server assembles the experimental platform of the paper: an
// X-Gene-2-like machine with four memory controller units (MCUs) grouped
// into two memory controller bridges (MCBs), one DDR3 DIMM per MCU, a
// thermal testbed heating each DIMM/rank, on-board power sensing, and ECC
// error logging. As in the paper's modified firmware, hardware interleaving
// is disabled: kernel data lives in MCU0 and experiment data is placed
// explicitly in the MCUs of the relaxed domain (MCU2/MCU3, i.e. MCB1), so
// the machine keeps running even when the relaxed DIMMs misbehave.
package server

import (
	"fmt"

	"dstress/internal/dram"
	"dstress/internal/memctl"
	"dstress/internal/power"
	"dstress/internal/thermal"
	"dstress/internal/xrand"
)

// NumMCUs and the MCU/MCB topology of the platform.
const (
	NumMCUs = 4
	// RelaxedMCUs are the controllers of MCB1 whose DIMMs run under
	// experimental (relaxed) parameters. DIMM2 and DIMM3 of the paper.
	MCU2 = 2
	MCU3 = 3
)

// Config describes the whole server.
type Config struct {
	RowsPerBank int
	// RowBytes overrides the 8-KByte row size (0 keeps the default). Small
	// rows shrink the block-pattern search spaces for tests.
	RowBytes int
	// Seeds give each DIMM its own defect map.
	Seeds [NumMCUs]uint64
	// Strengths model DIMM-to-DIMM manufacturing variation; 0 means 1.0.
	Strengths [NumMCUs]float64
	AmbientC  float64
	Cache     memctl.CacheConfig
	Power     power.Model
	// Determinism selects the dram evaluation contract (see dram §v2 docs):
	// the zero value is the v1 sequential-draw contract. Part of the config
	// so Clone() — and hence every farm worker and fleet rebuild — inherits
	// it.
	Determinism dram.DeterminismVersion
}

// DefaultConfig returns a server with four distinct DIMMs. The strength
// spread reproduces the orders-of-magnitude DIMM-to-DIMM error variation of
// the paper's Fig 1b.
func DefaultConfig(rowsPerBank int, seed uint64) Config {
	return Config{
		RowsPerBank: rowsPerBank,
		Seeds: [NumMCUs]uint64{seed*4 + 1, seed*4 + 2, seed*4 + 3,
			seed*4 + 4},
		Strengths: [NumMCUs]float64{1.0, 1.6, 0.85, 2.0},
		AmbientC:  25,
		Cache:     memctl.DefaultCacheConfig(),
		Power:     power.Default(),
	}
}

// Server is the assembled platform.
type Server struct {
	cfg     Config
	mcus    [NumMCUs]*memctl.Controller
	testbed *thermal.Testbed
}

// New builds the server: one device + controller per MCU, a testbed channel
// per DIMM/rank, everything at nominal operating parameters and ambient
// temperature.
func New(cfg Config) (*Server, error) {
	if cfg.RowsPerBank <= 0 {
		return nil, fmt.Errorf("server: RowsPerBank = %d", cfg.RowsPerBank)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Determinism.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, func(i int) (*dram.Device, error) {
		dcfg := dram.DefaultConfig(cfg.RowsPerBank, cfg.Seeds[i])
		if cfg.RowBytes != 0 {
			dcfg.Geometry.RowBytes = cfg.RowBytes
		}
		dcfg.StrengthScale = cfg.Strengths[i]
		return dram.NewDevice(dcfg)
	})
}

// assemble builds a server of configuration cfg around the DIMM devs(i)
// returns for each MCU i.
func assemble(cfg Config, devs func(i int) (*dram.Device, error)) (*Server, error) {
	s := &Server{cfg: cfg}
	for i := 0; i < NumMCUs; i++ {
		dev, err := devs(i)
		if err != nil {
			return nil, fmt.Errorf("server: DIMM%d: %w", i, err)
		}
		mcu, err := memctl.NewController(memctl.Config{Cache: cfg.Cache}, dev)
		if err != nil {
			return nil, fmt.Errorf("server: MCU%d: %w", i, err)
		}
		s.mcus[i] = mcu
	}
	ranks := s.mcus[0].Device().Geometry().Ranks
	tb, err := thermal.NewTestbed(NumMCUs, ranks, cfg.AmbientC)
	if err != nil {
		return nil, err
	}
	s.testbed = tb
	return s, nil
}

// Config returns the server's construction configuration.
func (s *Server) Config() Config { return s.cfg }

// Determinism returns the evaluation contract the server measures under.
func (s *Server) Determinism() dram.DeterminismVersion {
	return s.cfg.Determinism
}

// SetDeterminism switches the evaluation contract. It mutates the
// configuration, so clones made afterwards measure under the same contract.
func (s *Server) SetDeterminism(v dram.DeterminismVersion) error {
	if err := v.Validate(); err != nil {
		return err
	}
	s.cfg.Determinism = v
	return nil
}

// Clone builds a factory-fresh copy of the server: the server New(cfg)
// would build from its configuration, with nominal operating parameters,
// an ambient-temperature testbed and DIMMs that hold no data and no wear,
// whatever s has been through. Each DIMM is dram.Device.Fresh of s's, so
// the clone shares s's frozen defect maps instead of sampling them again
// and copies only the cells Age rescales; s and its clones may run
// concurrently. The evaluation farm clones the machine once per worker so
// a generation's viruses can be deployed and measured concurrently.
func (s *Server) Clone() (*Server, error) {
	return assemble(s.cfg, func(i int) (*dram.Device, error) {
		return s.mcus[i].Device().Fresh(), nil
	})
}

// MCU returns controller i (0..3).
func (s *Server) MCU(i int) *memctl.Controller {
	if i < 0 || i >= NumMCUs {
		panic(fmt.Sprintf("server: MCU(%d)", i))
	}
	return s.mcus[i]
}

// SetRelaxedParams programs the refresh period of both relaxed-domain MCUs
// and the shared MCB1 supply voltage. MCU0/MCU1 stay at nominal settings,
// exactly as the paper's memory configuration requires.
func (s *Server) SetRelaxedParams(trefp, vdd float64) error {
	for _, i := range []int{MCU2, MCU3} {
		if err := s.mcus[i].SetTREFP(trefp); err != nil {
			return err
		}
		if err := s.mcus[i].SetVDD(vdd); err != nil {
			return err
		}
	}
	return nil
}

// SetAllRelaxed programs every MCU — including the nominal domain — to the
// given parameters. This is the characterization mode used for the
// workload-variation study (the paper's Fig 1b observes all four DIMMs
// under relaxed parameters); the stress searches use SetRelaxedParams so
// the kernel's domain stays safe.
func (s *Server) SetAllRelaxed(trefp, vdd float64) error {
	for i := range s.mcus {
		if err := s.mcus[i].SetTREFP(trefp); err != nil {
			return err
		}
		if err := s.mcus[i].SetVDD(vdd); err != nil {
			return err
		}
	}
	return nil
}

// SetTemperature drives every testbed channel to tempC and lets the PID
// loops settle (up to two hours of simulated time, 0.5 °C tolerance).
func (s *Server) SetTemperature(tempC float64) error {
	s.testbed.SetTargetAll(tempC)
	if !s.testbed.Settle(7200, 0.5) {
		return fmt.Errorf("server: testbed failed to settle at %.1f°C", tempC)
	}
	return nil
}

// DIMMTemp returns the measured temperature of a DIMM (rank 0 sensor; the
// experiments heat both ranks identically).
func (s *Server) DIMMTemp(mcu int) float64 {
	t, err := s.testbed.Temp(mcu, 0)
	if err != nil {
		panic(err)
	}
	return t
}

// EvalResult summarises the ECC log of an averaged measurement.
type EvalResult struct {
	MeanCE   float64
	MeanSDC  float64
	UEFrac   float64 // fraction of runs that hit an uncorrectable error
	CEByRank map[int]float64
}

// Evaluate runs the retention evaluation of one MCU's DIMM `runs` times
// under its current operating parameters, the DIMM's present temperature
// and the activation rates accumulated by the controller, and averages the
// results — the paper's ten-run measurement protocol. Under determinism v2
// it is EvaluateBatch with one deploy that writes nothing.
func (s *Server) Evaluate(mcu, runs int, rng *xrand.Rand) (EvalResult, error) {
	if runs <= 0 {
		return EvalResult{}, fmt.Errorf("server: Evaluate runs = %d", runs)
	}
	if s.cfg.Determinism.Normalize() == dram.DeterminismV2 {
		res, err := s.EvaluateBatch(mcu, runs,
			[]func() error{func() error { return nil }}, []*xrand.Rand{rng})
		if err != nil {
			return EvalResult{}, err
		}
		return res[0], nil
	}
	p, err := s.runParams(mcu)
	if err != nil {
		return EvalResult{}, err
	}
	ctl := s.MCU(mcu)
	p.ActsPerWindow = ctl.ActsPerWindow()
	res := EvalResult{CEByRank: make(map[int]float64)}
	ues := 0
	for i := 0; i < runs; i++ {
		p.RNG = rng.Split()
		r, err := ctl.Device().Run(p)
		if err != nil {
			return EvalResult{}, err
		}
		res.MeanCE += float64(r.CE)
		res.MeanSDC += float64(r.SDC)
		if r.HasUE() {
			ues++
		}
		for rank, n := range r.CEByRank {
			res.CEByRank[rank] += float64(n)
		}
	}
	n := float64(runs)
	res.MeanCE /= n
	res.MeanSDC /= n
	res.UEFrac = float64(ues) / n
	for rank := range res.CEByRank {
		res.CEByRank[rank] /= n
	}
	return res, nil
}

// runParams reads one MCU's measurement conditions: its refresh period and
// supply voltage, the DIMM temperature and, since each rank has its own
// heater channel, the per-rank sensor readings. Activation rates are left
// to the caller, which reads them after its deploy.
func (s *Server) runParams(mcu int) (dram.RunParams, error) {
	ctl := s.MCU(mcu)
	tempByRank := map[int]float64{}
	for rank := 0; rank < ctl.Device().Geometry().Ranks; rank++ {
		t, err := s.testbed.Temp(mcu, rank)
		if err != nil {
			return dram.RunParams{}, err
		}
		tempByRank[rank] = t
	}
	return dram.RunParams{
		TREFP:      ctl.TREFP(),
		TempC:      s.DIMMTemp(mcu),
		TempByRank: tempByRank,
		VDD:        ctl.VDD(),
		Version:    s.cfg.Determinism,
	}, nil
}
