package virus

import (
	"fmt"

	"dstress/internal/memctl"
	"dstress/internal/minicc"
	"dstress/internal/vpl"
)

// Runner compiles and executes instantiated virus templates against one
// MCU. The virus's directly-addressed test region occupies the low part of
// the layout and stays chunk-aligned; the virus's own arrays and malloc
// heap live in a scratch area above it.
type Runner struct {
	Ctl *memctl.Controller

	// RegionBase/RegionBytes delimit the chunk-aligned test region.
	RegionBase  int64
	RegionBytes int64
	// ScratchBytes is the heap area reserved above the region.
	ScratchBytes int64
	// MaxSteps is the interpreter budget per execution.
	MaxSteps uint64
}

// NewRunner builds a runner over the controller, with the test region
// starting at address 0 and covering `chunks` 8-KByte chunks.
func NewRunner(ctl *memctl.Controller, chunks int, maxSteps uint64) (*Runner, error) {
	if ctl == nil {
		return nil, fmt.Errorf("virus: nil controller")
	}
	geom := ctl.Device().Geometry()
	if chunks <= 0 || int64(chunks)*int64(geom.RowBytes) > geom.RankBytes() {
		return nil, fmt.Errorf("virus: %d chunks does not fit one rank", chunks)
	}
	return &Runner{
		Ctl:          ctl,
		RegionBase:   0,
		RegionBytes:  int64(chunks) * int64(geom.RowBytes),
		ScratchBytes: 1 << 20,
		MaxSteps:     maxSteps,
	}, nil
}

// Consts returns the substitution constants describing the runner's layout,
// merged with extra experiment-specific constants.
func (r *Runner) Consts(extra map[string]int64) map[string]int64 {
	geom := r.Ctl.Device().Geometry()
	wordsPerChunk := int64(geom.WordsPerRow())
	out := map[string]int64{
		"REGION_BASE":     r.RegionBase,
		"REGION_WORDS":    r.RegionBytes / 8,
		"NCHUNKS":         r.RegionBytes / int64(geom.RowBytes),
		"MAXCHUNK":        r.RegionBytes/int64(geom.RowBytes) - 1,
		"WORDS_PER_CHUNK": wordsPerChunk,
		"HEAP_BASE":       r.RegionBase + r.RegionBytes,
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// Compile parses and analyzes a template against the runner's constants —
// the framework's processing phase for one experiment.
func (r *Runner) Compile(templateSrc string, extra map[string]int64) (*vpl.Analyzed, error) {
	tpl, err := vpl.Parse(templateSrc)
	if err != nil {
		return nil, err
	}
	return tpl.Analyze(r.Consts(extra))
}

// Execute instantiates the analyzed template with the given parameter
// values and runs the resulting program through the interpreter. The
// returned machine exposes final variable values; the controller
// accumulates the access statistics.
func (r *Runner) Execute(a *vpl.Analyzed, values map[string]vpl.Value) (*minicc.Machine, error) {
	src, err := a.Instantiate(values)
	if err != nil {
		return nil, err
	}
	globals, err := minicc.ParseStmts(src.Global)
	if err != nil {
		return nil, fmt.Errorf("virus: global_data: %w", err)
	}
	locals, err := minicc.ParseStmts(src.Local)
	if err != nil {
		return nil, fmt.Errorf("virus: local_data: %w", err)
	}
	body, err := minicc.ParseStmts(src.Body)
	if err != nil {
		return nil, fmt.Errorf("virus: body: %w", err)
	}
	region := minicc.Region{
		Base: r.RegionBase,
		Size: r.RegionBytes + r.ScratchBytes,
	}
	m, err := minicc.NewMachineWithHeap(r.Ctl, region,
		r.RegionBase+r.RegionBytes, r.MaxSteps)
	if err != nil {
		return nil, err
	}
	if err := m.Run(globals, locals, body); err != nil {
		return nil, err
	}
	return m, nil
}
