// Command dstress runs one DStress virus-synthesis search on the simulated
// experimental server: it applies the operating point, runs the GA over the
// selected template's search space, records every discovered virus in the
// database, and prints the final population.
//
// Usage:
//
//	dstress -template data64 -criterion max-ce -temp 55 [-gens 120]
//	        [-db viruses.json] [-resume] [-seed 2020] [-rows 16]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dstress/internal/core"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

func main() {
	template := flag.String("template", "data64",
		"search template: data64 | data24k | data512k | access-rows | access-coeffs")
	templateFile := flag.String("template-file", "",
		"search a custom vpl template from this file instead of a built-in")
	constsJSON := flag.String("consts", "{}",
		"JSON object of integer constants for -template-file (e.g. '{\"XMAX\": 64}')")
	fixedJSON := flag.String("fixed", "{}",
		"JSON object binding non-searched parameters for -template-file")
	chunks := flag.Int("chunks", 64, "test-region chunks for -template-file")
	criterion := flag.String("criterion", "max-ce",
		"search criterion: max-ce | min-ce | max-ue")
	temp := flag.Float64("temp", 55, "DIMM temperature in °C")
	gens := flag.Int("gens", 120, "GA generation budget")
	dbPath := flag.String("db", "", "virus database file (optional)")
	resume := flag.Bool("resume", false, "seed the population from the database")
	seed := flag.Uint64("seed", 2020, "deterministic seed")
	rows := flag.Int("rows", 16, "rows per bank of the simulated DIMMs")
	fill := flag.Uint64("fill", 0x3333333333333333,
		"fixed data fill for the access templates (hex)")
	flag.Parse()

	srv, err := server.New(server.DefaultConfig(*rows, *seed))
	if err != nil {
		fatal(err)
	}
	f, err := core.New(srv, xrand.New(*seed))
	if err != nil {
		fatal(err)
	}
	if *dbPath != "" {
		db, err := virusdb.Open(*dbPath)
		if err != nil {
			fatal(err)
		}
		f.DB = db
	}

	var spec core.Spec
	if *templateFile != "" {
		src, err := os.ReadFile(*templateFile)
		if err != nil {
			fatal(err)
		}
		var consts map[string]int64
		if err := json.Unmarshal([]byte(*constsJSON), &consts); err != nil {
			fatal(fmt.Errorf("bad -consts: %w", err))
		}
		fixed, err := core.FixedFromJSON([]byte(*fixedJSON))
		if err != nil {
			fatal(err)
		}
		ts := core.NewTemplateSpec(filepath.Base(*templateFile), string(src))
		ts.Consts = consts
		ts.Fixed = fixed
		ts.Chunks = *chunks
		spec = ts
	} else {
		switch *template {
		case "data64":
			spec = core.Data64Spec{}
		case "data24k":
			spec = core.NewData24KSpec()
		case "data512k":
			spec = core.NewData512KSpec()
		case "access-rows":
			spec = core.NewAccessRowsSpec(*fill)
		case "access-coeffs":
			spec = core.NewAccessCoeffsSpec(*fill)
		default:
			fatal(fmt.Errorf("unknown template %q", *template))
		}
	}

	var crit core.Criterion
	switch *criterion {
	case "max-ce":
		crit = core.MaxCE
	case "min-ce":
		crit = core.MinCE
	case "max-ue":
		crit = core.MaxUE
	default:
		fatal(fmt.Errorf("unknown criterion %q", *criterion))
	}

	params := ga.DefaultParams()
	params.MaxGenerations = *gens

	fmt.Printf("dstress: searching %s/%s at %.0f°C (TREFP %.3fs, VDD %.3fV), %d generations max\n",
		spec.Name(), crit, *temp, core.MaxTREFP, core.RelaxedVDD, *gens)
	res, err := f.RunSearch(core.SearchConfig{
		Spec:      spec,
		Criterion: crit,
		Point:     core.Relaxed(*temp),
		GA:        params,
		Resume:    *resume,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("experiment:   %s\n", res.Experiment)
	fmt.Printf("generations:  %d (converged=%v, similarity %.2f)\n",
		res.Generations, res.Converged, res.FinalSimilarity)
	fmt.Printf("evaluations:  %d viruses\n", res.Evaluations)
	fmt.Printf("best fitness: %.2f\n", res.BestFitness)
	fmt.Printf("best virus:   CE %.2f  UE-frac %.2f  SDC %.2f\n",
		res.BestMeasurement.MeanCE, res.BestMeasurement.UEFrac,
		res.BestMeasurement.MeanSDC)
	if bits := res.PopulationBits(); bits != nil && len(bits[0]) <= 64 {
		fmt.Println("final population (strongest first):")
		for i, b := range bits {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(bits)-10)
				break
			}
			fmt.Printf("  %2d. %s  (%.2f)\n", i+1, b, res.Fitnesses[i])
		}
	}
	if f.DB != nil {
		if err := f.DB.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d viruses in %s\n", len(res.Population), *dbPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstress:", err)
	os.Exit(1)
}
