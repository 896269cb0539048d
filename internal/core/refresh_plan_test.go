package core

import (
	"testing"

	"dstress/internal/dram"
	"dstress/internal/power"
)

func TestBuildRefreshPlanValidation(t *testing.T) {
	prof := &ProfileResult{SafeTREFP: map[dram.RowKey]float64{}}
	if _, err := BuildRefreshPlan(nil, 1.0, 0.1); err == nil {
		t.Fatal("nil profile accepted")
	}
	if _, err := BuildRefreshPlan(prof, 5.0, 0.1); err == nil {
		t.Fatal("out-of-range default accepted")
	}
	if _, err := BuildRefreshPlan(prof, 1.0, 1.0); err == nil {
		t.Fatal("guardband 1.0 accepted")
	}
}

func TestRefreshPlanClamping(t *testing.T) {
	prof := &ProfileResult{SafeTREFP: map[dram.RowKey]float64{
		{Rank: 0, Bank: 0, Row: 1}: 0.5,
		{Rank: 0, Bank: 0, Row: 2}: 0.0,   // unsafe even at nominal
		{Rank: 0, Bank: 0, Row: 3}: 2.283, // stronger than the default
	}}
	plan, err := BuildRefreshPlan(prof, 1.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.PerRow[dram.RowKey{Rank: 0, Bank: 0, Row: 1}]; got != 0.4 {
		t.Fatalf("guardbanded period %v, want 0.4", got)
	}
	if got := plan.PerRow[dram.RowKey{Rank: 0, Bank: 0, Row: 2}]; got != NominalTREFP {
		t.Fatalf("unsafe row period %v, want nominal", got)
	}
	if got := plan.PerRow[dram.RowKey{Rank: 0, Bank: 0, Row: 3}]; got != 1.0 {
		t.Fatalf("strong row period %v, want clamped to default", got)
	}
}

func TestRefreshPowerAccounting(t *testing.T) {
	model := power.Default()
	// All rows at nominal: full refresh power.
	uniform := &RefreshPlan{DefaultTREFP: model.NominalTR,
		PerRow: map[dram.RowKey]float64{}}
	w, err := uniform.RefreshPowerW(model, 100)
	if err != nil {
		t.Fatal(err)
	}
	if diff := w - model.RefreshW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("uniform nominal refresh power %v, want %v", w, model.RefreshW)
	}
	// Doubling every period halves the power.
	relaxed := &RefreshPlan{DefaultTREFP: model.NominalTR * 2,
		PerRow: map[dram.RowKey]float64{}}
	w2, err := relaxed.RefreshPowerW(model, 100)
	if err != nil {
		t.Fatal(err)
	}
	if diff := w2 - model.RefreshW/2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("doubled-period refresh power %v", w2)
	}
	if _, err := uniform.RefreshPowerW(model, 0); err == nil {
		t.Fatal("zero rows accepted")
	}
}

// TestVirusProfiledPlanIsSafe builds a retention-aware plan from the
// virus-based profile and checks the device runs error-free under it, at a
// fraction of the nominal refresh power — the full retention-aware refresh
// workflow on top of DStress profiling.
func TestVirusProfiledPlanIsSafe(t *testing.T) {
	f := testFramework(t, 70)
	prof, err := f.ProfileRetention([]uint64{0x3333333333333333}, 60, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.SafeTREFP) == 0 {
		t.Fatal("profile empty")
	}
	plan, err := BuildRefreshPlan(prof, MaxTREFP, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.EvaluatePlan(plan, 0x3333333333333333, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	geom := f.Srv.MCU(f.MCU).Device().Geometry()
	totalRows := geom.Ranks * geom.Banks * geom.Rows
	save, err := plan.Savings(power.Default(), totalRows)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("virus-profiled plan: %d binned rows, refresh power savings %.1f%%, errors CE=%.2f UE=%.2f",
		len(plan.PerRow), save*100, m.MeanCE, m.UEFrac)
	if m.MeanCE > 0.5 || m.UEFrac > 0 {
		t.Fatalf("virus-profiled plan unsafe: %.2f CEs, UE frac %.2f",
			m.MeanCE, m.UEFrac)
	}
	if save < 0.5 {
		t.Fatalf("retention-aware refresh saves only %.1f%%", save*100)
	}
}

// TestMSCANProfiledPlanUnderRefreshes reproduces the paper's core warning:
// a retention-aware plan built from the MSCAN profile misses rows the virus
// exposes, and those rows fail under the worst-case data pattern.
func TestMSCANProfiledPlanUnderRefreshes(t *testing.T) {
	f := testFramework(t, 71)
	mscan, err := f.ProfileRetention([]uint64{0, ^uint64(0)}, 60, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	virus, err := f.ProfileRetention([]uint64{0x3333333333333333}, 60, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, missed := Coverage(virus, mscan)
	if len(missed) == 0 {
		t.Skip("MSCAN missed nothing on this seed; nothing to demonstrate")
	}
	plan, err := BuildRefreshPlan(mscan, MaxTREFP, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.EvaluatePlan(plan, 0x3333333333333333, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MSCAN-profiled plan under the worst pattern: %.2f CEs (%d rows missed by the profile)",
		m.MeanCE, len(missed))
	if m.MeanCE == 0 {
		t.Fatal("MSCAN-profiled plan unexpectedly safe under the worst-case pattern")
	}
}
