package core

import (
	"encoding/json"
	"fmt"

	"dstress/internal/ga"
	"dstress/internal/virus"
	"dstress/internal/virusdb"
	"dstress/internal/vpl"
	"dstress/internal/xrand"
)

// TemplateSpec turns an arbitrary user template — written in the vpl
// template language, as the paper's programming tool intends — into a
// search experiment. Every searched parameter becomes a slice of the GA
// chromosome (with its declared bounds); fixed parameters are bound once.
// Deployment compiles the instantiated program and executes it through the
// minicc interpreter against the target MCU, so both the data the virus
// writes and the access pattern it generates come from actually running
// its C code. This is the reference (fully general) search path; the
// built-in specs in specs.go are fast-path equivalents for the paper's
// standard experiments.
type TemplateSpec struct {
	// SpecName identifies the experiment.
	SpecName string
	// Source is the vpl template text.
	Source string
	// Consts are the experiment constants beyond the runner's layout
	// constants (REGION_BASE, NCHUNKS, ...).
	Consts map[string]int64
	// Fixed binds parameters excluded from the search (e.g. TARGETS).
	Fixed map[string]vpl.Value
	// Chunks is the size of the chunk-aligned test region.
	Chunks int
	// MaxSteps is the interpreter budget per deployment.
	MaxSteps uint64

	analyzed *vpl.Analyzed
	searched []vpl.Param // parameters covered by the chromosome, in order
	lo, hi   []int
}

// NewTemplateSpec builds the spec with sane defaults.
func NewTemplateSpec(name, source string) *TemplateSpec {
	return &TemplateSpec{
		SpecName: name,
		Source:   source,
		Chunks:   64,
		MaxSteps: 1 << 20,
	}
}

// Name implements Spec.
func (s *TemplateSpec) Name() string { return s.SpecName }

// Prepare implements Spec: the processing phase. The template is parsed
// and semantically analyzed against the runner's layout constants, and the
// searched parameters define the chromosome layout.
func (s *TemplateSpec) Prepare(f *Framework) error {
	ctl := f.Srv.MCU(f.MCU)
	runner, err := virus.NewRunner(ctl, s.Chunks, s.MaxSteps)
	if err != nil {
		return err
	}
	analyzed, err := runner.Compile(s.Source, s.Consts)
	if err != nil {
		return err
	}
	s.analyzed = analyzed
	s.searched = s.searched[:0]
	s.lo = s.lo[:0]
	s.hi = s.hi[:0]
	for _, p := range analyzed.Params {
		if _, fixed := s.Fixed[p.Name]; fixed {
			continue
		}
		if p.Lo < -1<<31 || p.Hi > 1<<31 {
			return fmt.Errorf("core: parameter %s bounds [%d,%d] too wide",
				p.Name, p.Lo, p.Hi)
		}
		s.searched = append(s.searched, p)
		n := 1
		if p.Kind == vpl.Vector {
			n = int(p.Size)
		}
		for i := 0; i < n; i++ {
			s.lo = append(s.lo, int(p.Lo))
			s.hi = append(s.hi, int(p.Hi))
		}
	}
	if len(s.lo) == 0 {
		return fmt.Errorf("core: template %s has no searched parameters",
			s.SpecName)
	}
	ctl.Device().Reset()
	ctl.ResetStats()
	return nil
}

// NewPopulation implements Spec.
func (s *TemplateSpec) NewPopulation(_ *Framework, size int,
	rng *xrand.Rand) []ga.Genome {
	pop, err := ga.RandomMixedPopulation(size, s.lo, s.hi, rng)
	if err != nil {
		panic(err) // bounds were validated in Prepare
	}
	return pop
}

// values decodes a chromosome into the template's parameter bindings.
func (s *TemplateSpec) values(g *ga.MixedGenome) map[string]vpl.Value {
	out := make(map[string]vpl.Value, len(s.searched)+len(s.Fixed))
	for name, v := range s.Fixed {
		out[name] = v
	}
	off := 0
	for _, p := range s.searched {
		if p.Kind == vpl.Vector {
			vec := make([]int64, p.Size)
			for i := range vec {
				vec[i] = int64(g.Vals[off])
				off++
			}
			out[p.Name] = vpl.Value{Vector: vec}
		} else {
			out[p.Name] = vpl.Value{Scalar: int64(g.Vals[off])}
			off++
		}
	}
	return out
}

// Deploy implements Spec: the chromosome is instantiated into a concrete C
// program and executed by the interpreter; its writes fill the device and
// its reads accumulate activation statistics.
func (s *TemplateSpec) Deploy(f *Framework, g ga.Genome) error {
	mg, ok := g.(*ga.MixedGenome)
	if !ok || len(mg.Vals) != len(s.lo) {
		return fmt.Errorf("core: template %s needs a %d-gene mixed genome",
			s.SpecName, len(s.lo))
	}
	if s.analyzed == nil {
		return fmt.Errorf("core: template %s not prepared", s.SpecName)
	}
	ctl := f.Srv.MCU(f.MCU)
	ctl.Device().Reset()
	ctl.ResetStats()
	runner, err := virus.NewRunner(ctl, s.Chunks, s.MaxSteps)
	if err != nil {
		return err
	}
	_, err = runner.Execute(s.analyzed, s.values(mg))
	return err
}

// Encode implements Spec.
func (s *TemplateSpec) Encode(g ga.Genome, rec *virusdb.Record) {
	rec.Ints = append([]int(nil), g.(*ga.MixedGenome).Vals...)
}

// Decode implements Spec.
func (s *TemplateSpec) Decode(rec virusdb.Record) (ga.Genome, error) {
	if len(s.lo) == 0 {
		return nil, fmt.Errorf("core: template %s not prepared", s.SpecName)
	}
	return ga.NewMixedGenome(append([]int(nil), rec.Ints...), s.lo, s.hi)
}

// FixedFromJSON parses fixed parameter bindings from a JSON object of the
// form {"NAME": 3, "VEC": [1,2,3]}, for the command-line interface.
func FixedFromJSON(data []byte) (map[string]vpl.Value, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("core: fixed bindings: %w", err)
	}
	out := make(map[string]vpl.Value, len(raw))
	for name, msg := range raw {
		var scalar int64
		if err := json.Unmarshal(msg, &scalar); err == nil {
			out[name] = vpl.Value{Scalar: scalar}
			continue
		}
		var vec []int64
		if err := json.Unmarshal(msg, &vec); err != nil {
			return nil, fmt.Errorf("core: fixed binding %q is neither int nor []int",
				name)
		}
		out[name] = vpl.Value{Vector: vec}
	}
	return out, nil
}
