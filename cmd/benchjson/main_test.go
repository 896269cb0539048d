package main

import (
	"bufio"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestDeriveBatchKeys: BenchmarkBatchEval's single/batch pairs, as
// `go test -bench -benchmem` prints them, give the nine batch keys —
// speedup, allocation and byte ratios at each population — and nothing
// else.
func TestDeriveBatchKeys(t *testing.T) {
	var in strings.Builder
	in.WriteString("goos: linux\ngoarch: amd64\npkg: dstress/internal/dram\n")
	want := map[string]float64{}
	for i, pop := range []int{32, 128, 512} {
		single := [3]float64{float64(1000 * (i + 2)), float64(4096 * (i + 1)), float64(100 * (i + 1))}
		batch := [3]float64{500, 1024, 10}
		fmt.Fprintf(&in, "BenchmarkBatchEval/single/pop=%d-2   \t      10\t %.0f ns/op\t %.0f B/op\t %.0f allocs/op\n",
			pop, single[0], single[1], single[2])
		fmt.Fprintf(&in, "BenchmarkBatchEval/batch/pop=%d-2    \t      20\t %.0f ns/op\t %.0f B/op\t %.0f allocs/op\n",
			pop, batch[0], batch[1], batch[2])
		want[fmt.Sprintf("speedup_batch_pop%d", pop)] = single[0] / batch[0]
		want[fmt.Sprintf("batch_bytes_ratio_pop%d", pop)] = single[1] / batch[1]
		want[fmt.Sprintf("batch_allocs_ratio_pop%d", pop)] = single[2] / batch[2]
	}
	in.WriteString("PASS\nok  \tdstress/internal/dram\t12.3s\n")

	snap, err := parse(bufio.NewScanner(strings.NewReader(in.String())))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(snap.Benchmarks))
	}
	if len(snap.Derived) != len(want) {
		t.Errorf("derived %d keys, want %d: %v", len(snap.Derived), len(want), snap.Derived)
	}
	for k, v := range want {
		if got, ok := snap.Derived[k]; !ok || math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
