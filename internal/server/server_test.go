package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/dram"
	"dstress/internal/memctl"
	"dstress/internal/xrand"
)

func testServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(DefaultConfig(32, 1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillMCU writes a uniform pattern over an MCU's whole address space.
func fillMCU(s *Server, mcu int, word uint64) {
	ctl := s.MCU(mcu)
	g := ctl.Device().Geometry()
	for a := int64(0); a < g.TotalBytes(); a += 8 {
		ctl.Device().WriteWord(g.Map(a), word)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(32, 1)
	cfg.RowsPerBank = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero rows accepted")
	}
	cfg = DefaultConfig(32, 1)
	cfg.Power.NominalTR = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid power model accepted")
	}
	cfg = DefaultConfig(32, 1)
	cfg.Cache.Ways = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid cache accepted")
	}
}

func TestMCUAccessorsAndBounds(t *testing.T) {
	s := testServer(t)
	for i := 0; i < NumMCUs; i++ {
		if s.MCU(i) == nil {
			t.Fatalf("MCU %d nil", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MCU(4) did not panic")
		}
	}()
	s.MCU(NumMCUs)
}

func TestDIMMsDiffer(t *testing.T) {
	s := testServer(t)
	a := s.MCU(MCU2).Device().WeakCells()
	b := s.MCU(MCU3).Device().WeakCells()
	same := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("DIMM2 and DIMM3 share a defect map")
	}
}

func TestSetRelaxedParamsOnlyTouchesMCB1(t *testing.T) {
	s := testServer(t)
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{MCU2, MCU3} {
		if s.MCU(i).TREFP() != 2.283 || s.MCU(i).VDD() != 1.428 {
			t.Fatalf("MCU%d params not applied", i)
		}
	}
	for _, i := range []int{0, 1} {
		if s.MCU(i).TREFP() != memctl.MinTREFP || s.MCU(i).VDD() != memctl.MaxVDD {
			t.Fatalf("nominal MCU%d was modified", i)
		}
	}
	if err := s.SetRelaxedParams(5.0, 1.428); err == nil {
		t.Fatal("out-of-range TREFP accepted")
	}
}

func TestSetTemperature(t *testing.T) {
	s := testServer(t)
	if err := s.SetTemperature(55); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumMCUs; i++ {
		if math.Abs(s.DIMMTemp(i)-55) > 0.5 {
			t.Fatalf("DIMM%d at %v", i, s.DIMMTemp(i))
		}
	}
	if err := s.SetTemperature(10); err == nil {
		t.Fatal("sub-ambient target settled")
	}
}

func TestEvaluateCountsErrors(t *testing.T) {
	s := testServer(t)
	if err := s.SetTemperature(60); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	fillMCU(s, MCU2, 0x3333333333333333)
	res, err := s.Evaluate(MCU2, 10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCE <= 0 {
		t.Fatal("no CEs under relaxed params at 60°C with worst fill")
	}
	var sum float64
	for _, v := range res.CEByRank {
		sum += v
	}
	if math.Abs(sum-res.MeanCE) > 1e-9 {
		t.Fatalf("per-rank CEs %v do not sum to %v", sum, res.MeanCE)
	}
	// The nominal-domain DIMM0 sees no errors even with data present.
	fillMCU(s, 0, 0x3333333333333333)
	res0, err := s.Evaluate(0, 10, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res0.MeanCE > res.MeanCE/20 {
		t.Fatalf("nominal DIMM0 produced %.2f CEs vs relaxed %.2f",
			res0.MeanCE, res.MeanCE)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := testServer(t)
	if _, err := s.Evaluate(MCU2, 0, xrand.New(1)); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestStrongDIMMHasFewerErrors(t *testing.T) {
	s := testServer(t)
	if err := s.SetTemperature(60); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	fillMCU(s, MCU2, 0x3333333333333333)
	fillMCU(s, MCU3, 0x3333333333333333)
	weak, err := s.Evaluate(MCU2, 10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	strong, err := s.Evaluate(MCU3, 10, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// DIMM3 is configured ~4x stronger in retention: several times fewer
	// CEs under identical stress.
	if strong.MeanCE*2.5 > weak.MeanCE {
		t.Fatalf("DIMM variation missing: weak %.1f vs strong %.1f",
			weak.MeanCE, strong.MeanCE)
	}
}

// TestPowerReadings: relaxing MCU2's refresh period and voltage lowers its
// DIMM's power under the server's power model and leaves MCU0's nominal.
func TestPowerReadings(t *testing.T) {
	s := testServer(t)
	dimmPower := func() [NumMCUs]float64 {
		var out [NumMCUs]float64
		for i, ctl := range s.mcus {
			actsPerSec := 0.0
			if ns := ctl.ElapsedNs(); ns > 0 {
				actsPerSec = float64(ctl.Activations()) / (float64(ns) * 1e-9)
			}
			p, err := s.cfg.Power.DIMM(ctl.TREFP(), ctl.VDD(), actsPerSec)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = p
		}
		return out
	}
	nomDimms := dimmPower()
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	relDimms := dimmPower()
	if relDimms[MCU2] >= nomDimms[MCU2] {
		t.Fatal("relaxed params did not reduce DIMM2 power")
	}
	if relDimms[0] != nomDimms[0] {
		t.Fatal("nominal DIMM0 power changed")
	}
	var nomSum, relSum float64
	for i := range nomDimms {
		nomSum, relSum = nomSum+nomDimms[i], relSum+relDimms[i]
	}
	if relSum >= nomSum {
		t.Fatal("total DIMM power did not drop")
	}
}

// TestPerRankHeating drives one rank's heater hotter through the testbed
// and checks the rank split in the ECC log.
func TestPerRankHeating(t *testing.T) {
	s := testServer(t)
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	// Rank 0 of DIMM2 at 66°C, rank 1 at 55°C.
	if err := s.testbed.SetTarget(MCU2, 0, 66); err != nil {
		t.Fatal(err)
	}
	if err := s.testbed.SetTarget(MCU2, 1, 55); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3600; i++ {
		s.testbed.Step(2)
	}
	fillMCU(s, MCU2, 0x3333333333333333)
	res, err := s.Evaluate(MCU2, 10, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.CEByRank[0] <= res.CEByRank[1] {
		t.Fatalf("hot rank not above cool rank: %v", res.CEByRank)
	}
}

// detV2EvaluateGolden is the digest of TestDetV2EvaluateGolden, recorded on
// the per-genome v2 kernel before Evaluate moved onto the batch engine.
const detV2EvaluateGolden = "c50e75697f91bec37b746777fd17748d94f718120490e41c23ce9267f6173a6f"

// TestDetV2EvaluateGolden hashes v2 Evaluate results, CEByRank included, on
// both relaxed DIMMs with their ranks heated apart, over several fills, with
// and without controller-driven hammering. Every Evaluate follows a fill,
// so each one measures a freshly written state.
func TestDetV2EvaluateGolden(t *testing.T) {
	s := testServer(t)
	if err := s.SetDeterminism(dram.DeterminismV2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		t.Fatal(err)
	}
	for _, mcu := range []int{MCU2, MCU3} {
		if err := s.testbed.SetTarget(mcu, 0, 64); err != nil {
			t.Fatal(err)
		}
		if err := s.testbed.SetTarget(mcu, 1, 57); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3600; i++ {
		s.testbed.Step(2)
	}

	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	seed, ceSum := uint64(0), 0.0
	for _, mcu := range []int{MCU2, MCU3} {
		ctl := s.MCU(mcu)
		g := ctl.Device().Geometry()
		for _, word := range []uint64{0x3333333333333333, 0xCCCCCCCCCCCCCCCC,
			0x0000000000000000} {
			for _, hammer := range []bool{false, true} {
				fillMCU(s, mcu, word)
				ctl.ResetStats()
				if hammer {
					// Alternate two rows of every bank of rank 0, bypassing
					// the cache, so their neighbours see disturbance.
					for bank := 0; bank < g.Banks; bank++ {
						a := g.Unmap(addrmap.Loc{Rank: 0, Bank: bank, Row: 3})
						b := g.Unmap(addrmap.Loc{Rank: 0, Bank: bank, Row: 5})
						for k := 0; k < 200; k++ {
							ctl.ReadWordUncached(a)
							ctl.ReadWordUncached(b)
						}
					}
				}
				seed++
				res, err := s.Evaluate(mcu, 10, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				ceSum += res.MeanCE
				put(math.Float64bits(res.MeanCE))
				put(math.Float64bits(res.MeanSDC))
				put(math.Float64bits(res.UEFrac))
				for rank := 0; rank < g.Ranks; rank++ {
					v, ok := res.CEByRank[rank]
					if ok {
						put(1)
					} else {
						put(0)
					}
					put(math.Float64bits(v))
				}
				put(uint64(len(res.CEByRank)))
			}
		}
	}
	if ceSum == 0 {
		t.Fatal("no Evaluate saw a CE; the digest pins nothing")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != detV2EvaluateGolden {
		t.Fatalf("v2 evaluate digest %s, want %s", got, detV2EvaluateGolden)
	}
}

// cloneProbe runs what an access-virus evaluation runs on one relaxed MCU
// of s: the v2 contract at a relaxed point, a uniform fill, then a batch
// of deploys that each load two rows of every rank-0 bank through the
// cache, measured by EvaluateBatch.
func cloneProbe(s *Server) ([]EvalResult, error) {
	if err := s.SetDeterminism(dram.DeterminismV2); err != nil {
		return nil, err
	}
	if err := s.SetRelaxedParams(2.283, 1.428); err != nil {
		return nil, err
	}
	ctl := s.MCU(MCU2)
	g := ctl.Device().Geometry()
	ctl.Device().FillAllUniform(0x3333333333333333)
	deploys := make([]func() error, 6)
	rngs := make([]*xrand.Rand, len(deploys))
	for i := range deploys {
		deploys[i] = func() error {
			ctl.ResetStats()
			for bank := 0; bank < g.Banks; bank++ {
				a := g.Unmap(addrmap.Loc{Rank: 0, Bank: bank, Row: 1 + i%3})
				b := g.Unmap(addrmap.Loc{Rank: 0, Bank: bank, Row: 5 + i%2})
				for k := 0; k < 64; k++ {
					ctl.Load(a + int64(k%g.WordsPerRow())*8)
					ctl.Load(b + int64(k%g.WordsPerRow())*8)
				}
			}
			return nil
		}
		rngs[i] = xrand.New(uint64(40 + i))
	}
	return s.EvaluateBatch(MCU2, 4, deploys, rngs)
}

// mustProbe is cloneProbe on the test goroutine.
func mustProbe(t *testing.T, s *Server) []EvalResult {
	t.Helper()
	res, err := cloneProbe(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameDefects reports where two servers' DIMMs differ in their weak
// cells, clusters or weak rows, or "" when they agree on every one.
func sameDefects(a, b *Server) string {
	for i := 0; i < NumMCUs; i++ {
		da, db := a.MCU(i).Device(), b.MCU(i).Device()
		switch {
		case !reflect.DeepEqual(da.WeakCells(), db.WeakCells()):
			return fmt.Sprintf("DIMM%d weak cells", i)
		case !reflect.DeepEqual(da.Clusters(), db.Clusters()):
			return fmt.Sprintf("DIMM%d clusters", i)
		case !reflect.DeepEqual(da.WeakRows(), db.WeakRows()):
			return fmt.Sprintf("DIMM%d weak rows", i)
		}
	}
	return ""
}

// TestCloneIsFresh ages, fills, heats and hammers a server, clones it, and
// requires the clone to equal server.New of the same configuration DIMM
// for DIMM — weak cells, clusters and weak rows — and to measure a v2
// batch exactly as that server does.
func TestCloneIsFresh(t *testing.T) {
	s := testServer(t)
	for i := 0; i < NumMCUs; i++ {
		if err := s.MCU(i).Device().Age(0.7); err != nil {
			t.Fatal(err)
		}
	}
	fillMCU(s, MCU2, 0xCCCCCCCCCCCCCCCC)
	if err := s.SetRelaxedParams(1.5, 1.45); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTemperature(60); err != nil {
		t.Fatal(err)
	}
	s.MCU(MCU2).Load(0)
	clone, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fresh := testServer(t)
	if diff := sameDefects(clone, fresh); diff != "" {
		t.Fatalf("the clone of an aged server differs from a new one in its %s", diff)
	}
	if diff := sameDefects(s, fresh); diff == "" {
		t.Fatal("aging the server changed no weak cell; the test pins nothing")
	}
	got, want := mustProbe(t, clone), mustProbe(t, fresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the clone measured\n%+v\na new server\n%+v", got, want)
	}
	if got[0].MeanCE == 0 {
		t.Fatal("the probe saw no CE; the comparison pins nothing")
	}
}

// TestCloneAgingIsIndependent ages one of two clones and then the parent,
// and requires each to leave the others' DIMMs as they were: the clones
// share the parent's frozen defect map but age their own cells.
func TestCloneAgingIsIndependent(t *testing.T) {
	s := testServer(t)
	a, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fresh := testServer(t)
	if err := a.MCU(MCU2).Device().Age(0.5); err != nil {
		t.Fatal(err)
	}
	if diff := sameDefects(a, fresh); diff == "" {
		t.Fatal("aging a clone changed nothing")
	}
	for name, srv := range map[string]*Server{"parent": s, "sibling": b} {
		if diff := sameDefects(srv, fresh); diff != "" {
			t.Fatalf("aging a clone changed the %s's %s", name, diff)
		}
	}
	aged := a.MCU(MCU2).Device().WeakCells()[0].Tau0
	if err := s.MCU(MCU2).Device().Age(0.5); err != nil {
		t.Fatal(err)
	}
	if diff := sameDefects(b, fresh); diff != "" {
		t.Fatalf("aging the parent changed a clone's %s", diff)
	}
	if got := a.MCU(MCU2).Device().WeakCells()[0].Tau0; got != aged {
		t.Fatalf("aging the parent moved an aged clone's cell from %v to %v", aged, got)
	}
}

// TestCloneConcurrentEvaluate evaluates two clones of one server at once,
// as two farm workers do, while each ages another of its DIMMs and the
// parent ages too; each must measure what a new server measures. Under
// the race detector it also checks that the shared defect map is only
// read and that no two servers share the cells Age writes.
func TestCloneConcurrentEvaluate(t *testing.T) {
	s := testServer(t)
	want := mustProbe(t, testServer(t))
	clones := make([]*Server, 2)
	for i := range clones {
		c, err := s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = c
	}
	got := make([][]EvalResult, len(clones))
	errs := make([]error, len(clones))
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.MCU(MCU3).Device().Age(0.9); errs[i] == nil {
				got[i], errs[i] = cloneProbe(c)
			}
		}()
	}
	if err := s.MCU(MCU2).Device().Age(0.9); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("clone %d measured\n%+v\nwant\n%+v", i, got[i], want)
		}
	}
}

// BenchmarkServerClone is the cost of one farm worker's server: a clone
// of a server at the benchmark workloads' row counts.
func BenchmarkServerClone(b *testing.B) {
	for _, rows := range []int{16, 64} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			s, err := New(DefaultConfig(rows, 1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Clone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
