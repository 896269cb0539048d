package server

import (
	"fmt"

	"dstress/internal/dram"
	"dstress/internal/xrand"
)

// EvaluateBatch is the generation-sized Evaluate: it measures every deploy
// in order against one MCU's DIMM, compiling the evaluation plan and
// conditions once and splicing per genome (see dram batch docs). The
// operating parameters, per-rank temperatures and the determinism contract
// are read once — within a generation none of them move — while each
// genome's controller-accumulated activation rates are captured right after
// its deploy runs, exactly when the per-genome path would read them.
//
// For every index i, the result is bit-identical to calling deploys[i]
// followed by Evaluate(mcu, runs, rngs[i]) — under v2, a batch of one. The
// batch path requires the server to measure under determinism v2; under v1
// it returns the dram layer's contract error and callers fall back to
// per-genome evaluation.
func (s *Server) EvaluateBatch(mcu, runs int, deploys []func() error,
	rngs []*xrand.Rand) ([]EvalResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("server: EvaluateBatch runs = %d", runs)
	}
	if len(deploys) != len(rngs) {
		return nil, fmt.Errorf("server: EvaluateBatch %d deploys, %d rngs",
			len(deploys), len(rngs))
	}
	p, err := s.runParams(mcu)
	if err != nil {
		return nil, err
	}
	ctl := s.MCU(mcu)
	items := make([]dram.BatchItem, len(deploys))
	for i := range items {
		deploy := deploys[i]
		items[i] = dram.BatchItem{
			Apply: func(*dram.Device) error { return deploy() },
			Acts:  ctl.DenseActsPerWindow,
			RNG:   rngs[i],
		}
	}
	batch, err := ctl.Device().AverageRunsBatch(p, runs, items)
	if err != nil {
		return nil, err
	}
	out := make([]EvalResult, len(batch))
	for i, b := range batch {
		res := EvalResult{
			MeanCE:   b.MeanCE,
			MeanSDC:  b.MeanSDC,
			UEFrac:   b.UEFrac,
			CEByRank: make(map[int]float64),
		}
		for rank, mean := range b.CEByRank {
			if mean != 0 {
				res.CEByRank[rank] = mean
			}
		}
		out[i] = res
	}
	return out, nil
}
