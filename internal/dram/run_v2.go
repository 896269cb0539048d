package dram

import "fmt"

// Determinism contract v2 (see DESIGN.md §10).
//
// The v1 evaluation (run.go) pins its results to the *sequential* RNG draw
// order: rows sorted, each row's cells before its clusters, one Bool per VRT
// cell, one Norm per armed cluster. That contract makes results bit-identical
// to the reference path, but it also makes the draw a cell consumes depend on
// the position of every cell evaluated before it — evaluation order is part
// of the contract, which blocks reordering, batching and caching.
//
// v2 replaces the sequential stream with counter-based per-cell streams
// (xrand.Stream): each run derives one stream key from a single draw of the
// run's Rand, and every stochastic term is then keyed on the *defect-map
// index* of the cell or cluster that consumes it. The draw a cell sees is a
// pure function of (run key, defect index) — independent of evaluation
// order, of which other cells are evaluated, and of whether a draw is
// consumed at all. That frees the kernel to do what v1 never could: settle
// every non-stochastic outcome once per (plan, conditions), splice plans
// between genomes, and batch a generation. v2 runs on the batch engine
// (batch.go); a per-genome Run or AverageRuns is a batch of one.
//
// Because StreamFrom consumes exactly one draw of p.RNG, v2 inherits the
// existing determinism plumbing unchanged: the farm's per-chromosome splits,
// the fleet's shipped RNG states and the checkpointed noise roots all key v2
// runs exactly as they key v1 runs. v2 results are therefore bit-identical
// across serial, farm, fleet and kill-and-resume execution — but they are
// NOT comparable to v1 results: the noise draws differ, and the v2 kernel
// reassociates floating-point terms the v1 contract keeps in reference
// order. Within a corrupted word, v2 logs flips in ascending bit order
// (v1 logs them in draw order).
type DeterminismVersion int

// The supported contracts.
const (
	// DeterminismV1 is the original sequential-draw contract: results are
	// bit-identical to the reference path, draws follow evaluation order.
	DeterminismV1 DeterminismVersion = 1
	// DeterminismV2 is the counter-stream contract: draws are keyed on
	// defect-map indices, evaluation is order-independent and batched.
	DeterminismV2 DeterminismVersion = 2
)

// Normalize maps the zero value to DeterminismV1, so configs, checkpoints
// and job requests that predate the version field keep their behaviour.
func (v DeterminismVersion) Normalize() DeterminismVersion {
	if v == 0 {
		return DeterminismV1
	}
	return v
}

// Validate reports whether the version is a known contract.
func (v DeterminismVersion) Validate() error {
	switch v.Normalize() {
	case DeterminismV1, DeterminismV2:
		return nil
	}
	return fmt.Errorf("dram: unknown determinism version %d", int(v))
}

func (v DeterminismVersion) String() string {
	switch v.Normalize() {
	case DeterminismV1:
		return "v1"
	case DeterminismV2:
		return "v2"
	}
	return fmt.Sprintf("DeterminismVersion(%d)", int(v))
}
