package algo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

// seedlessGolden pins the GA family on a graph without coordinates, where
// runGA has no IBP seed and every island's KNUX/DKNUX estimate is the random
// balanced partition drawn from Seed plus the island index. Every small-suite
// graph has coordinates, so no bench gate runs this path. Each entry is the
// cut and the FNV-64a hash of the assignment, which every EvalWorkers width
// must reproduce.
var seedlessGolden = map[string]struct {
	cut  float64
	hash uint64
}{
	"dknux/i1": {581, 0x8ca04f32b51d260f},
	"dknux/i4": {563, 0xbeabda9e792da937},
	"knux/i1":  {647, 0x295a8f14356e8dd6},
	"knux/i4":  {634, 0x1cb7334ca8bd075f},
	"ux/i1":    {632, 0xe6053904218d9f5d},
	"ux/i4":    {630, 0x5a9ecf1a318e0fbc},
	"2pt/i1":   {638, 0xc53eaa79bf331c5c},
	"2pt/i4":   {637, 0x42e38b5cdd0d720c},
}

func assignHash(p *partition.Partition) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 2*len(p.Assign))
	for _, q := range p.Assign {
		buf = binary.LittleEndian.AppendUint16(buf, q)
	}
	h.Write(buf)
	return h.Sum64()
}

func TestSeedlessGAGolden(t *testing.T) {
	g := gen.PowerLaw(300, 3, 7)
	if g.HasCoords() {
		t.Fatal("the power-law graph has coordinates; the test would run the seeded path")
	}
	for _, name := range []string{"dknux", "knux", "ux", "2pt"} {
		for _, islands := range []int{1, 4} {
			key := fmt.Sprintf("%s/i%d", name, islands)
			want := seedlessGolden[key]
			for _, width := range []int{1, 4} {
				p, err := Run(g, name, Options{
					Parts: 4, Generations: 8, PopSize: 32, Islands: islands,
					EvalWorkers: width, Seed: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				cut, hash := p.CutSize(g), assignHash(p)
				if cut != want.cut || hash != want.hash {
					t.Errorf("%s width %d: cut %v hash %#x, want cut %v hash %#x\n\t%q: {%v, %#x},",
						key, width, cut, hash, want.cut, want.hash, key, cut, hash)
				}
			}
		}
	}
}
