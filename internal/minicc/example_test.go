package minicc_test

import (
	"fmt"

	"dstress/internal/minicc"
)

// wordsMemory is a trivial flat memory for the example.
type wordsMemory map[int64]uint64

func (m wordsMemory) ReadWord(addr int64) uint64     { return m[addr] }
func (m wordsMemory) WriteWord(addr int64, v uint64) { m[addr] = v }

// A virus body is ordinary C: the interpreter runs it with every array
// access going through the provided memory — in the framework, the
// simulated cache/DRAM hierarchy.
func Example() {
	globals, _ := minicc.ParseStmts(
		`volatile unsigned long long pattern[] = {3, 3, 0, 0};`)
	locals, _ := minicc.ParseStmts(
		`volatile unsigned long long* region; int i;`)
	body, _ := minicc.ParseStmts(`
		region = (unsigned long long*)(malloc(8 * sizeof(unsigned long long)));
		for (i = 0; i < 8; i++) {
			region[i] = pattern[i % 4];
		}
	`)
	mem := wordsMemory{}
	m, err := minicc.NewMachineWithHeap(mem, minicc.Region{Base: 0, Size: 1 << 12}, 0, 1<<12)
	if err != nil {
		panic(err)
	}
	if err := m.Run(globals, locals, body); err != nil {
		panic(err)
	}
	region, _ := m.Lookup("region")
	base := int64(region.U)
	fmt.Printf("filled: %d %d %d %d ...\n",
		mem[base], mem[base+8], mem[base+16], mem[base+24])
	// Output:
	// filled: 3 3 0 0 ...
}
