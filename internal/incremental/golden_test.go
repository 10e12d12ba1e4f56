package incremental

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// hillClimbGolden pins the hill-climbed incremental GA: the cut and the
// FNV-64a hash of the assignment of every (case, parts, objective)
// combination, which every EvalWorkers width must reproduce. No other gate
// runs the GA with hill climbing on, so a change to how offspring are
// evaluated or climbed that moves any result fails here.
var hillClimbGolden = map[string]struct {
	cut  float64
	hash uint64
}{
	"78+10/p4/cut":       {46, 0xc166893cd0ac7efd},
	"78+10/p4/maxcut":    {53, 0x83e3e18024222d25},
	"78+10/p8/cut":       {76, 0x2a5811ed223803},
	"78+10/p8/maxcut":    {92, 0x60ed0857a03f341d},
	"1000+200/p4/cut":    {240, 0xcc9a967c2d181e8c},
	"1000+200/p4/maxcut": {431, 0xbeacfccb4881ffa7},
	"1000+200/p8/cut":    {366, 0x16552b85f1471f11},
	"1000+200/p8/maxcut": {673, 0xe604e8122d09ec2d},
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

func TestRepartitionHillClimbGolden(t *testing.T) {
	for _, c := range []gen.IncrementalCase{{Base: 78, Added: 10}, {Base: 1000, Added: 200}} {
		base, grown := gen.IncrementalPair(c)
		for _, parts := range []int{4, 8} {
			old, err := spectral.Partition(base, parts, rand.New(rand.NewSource(int64(parts))), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
				key := fmt.Sprintf("%d+%d/p%d/%s", c.Base, c.Added, parts, o.FlagName())
				want := hillClimbGolden[key]
				for _, width := range []int{1, 4} {
					got, err := Repartition(grown, old, Config{
						Options: algo.Options{
							Objective: o, Generations: 10, PopSize: 64, Islands: 4,
							EvalWorkers: width, Seed: 5,
						},
						HillClimb: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					cut, hash := got.CutSize(grown), assignHash(got)
					if cut != want.cut || hash != want.hash {
						t.Errorf("%s width %d: cut %v hash %#x, want cut %v hash %#x\n\t%q: {%v, %#x},",
							key, width, cut, hash, want.cut, want.hash, key, cut, hash)
					}
				}
			}
		}
	}
}
