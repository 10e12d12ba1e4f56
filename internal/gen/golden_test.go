package gen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
)

// goldenGraphs are the generated graphs the repository's experiments,
// suites and benchmark workloads are built from, each pinned by its content
// hash, node count and edge count. A change to how graphs are assembled must
// leave every one of them bit for bit as it is: the committed bench
// baselines and the paper tables are cuts on these exact graphs.
var goldenGraphs = []struct {
	name  string
	build func() *graph.Graph
	n, m  int
	hash  string
}{
	{"grid-32x32", func() *graph.Graph { return Grid(32, 32) }, 1024, 1984, "sha256:c922bdff6b67961c166c2cae335b3f62d283a709d3fea59c5e126561dd45f2bd"},
	{"grid3d-12", func() *graph.Graph { return Grid3D(12, 12, 12) }, 1728, 4752, "sha256:a2fc97873c5c94d18875d9ae68d45b2a60de16cb43aec27c0bdf01c752e62e87"},
	{"mesh-1500", func() *graph.Graph { return Mesh(1500, SuiteSeed+1500) }, 1500, 4475, "sha256:935cdda0a48b51d18ceb11428be4e4dc0eabfbfee1ecc03605e429d4e0cae44c"},
	{"powerlaw-3000", func() *graph.Graph { return PowerLaw(3000, 3, SuiteSeed+3000) }, 3000, 8994, "sha256:926a2bd261083d9163114ae8700aec68d91f493ba5bc259e31147f7a6a47c791"},
	{"rgg-2000", func() *graph.Graph {
		return RandomGeometric(rand.New(rand.NewSource(SuiteSeed+2000)), 2000, 0.05)
	}, 2000, 14577, "sha256:ef1424fa1560e48e2ee68ab599d94cdf67ed97a45eedef1d1514a318b2f455d1"},
	{"rgg-2000-stitched", func() *graph.Graph {
		return RandomGeometric(rand.New(rand.NewSource(3)), 2000, 0.025)
	}, 2000, 3323, "sha256:5b8d09e743ed764b2993197d6fb6b3bad67de9a35234ba7ee97febc571dd7f9f"},
	{"mesh-2000-skew", func() *graph.Graph {
		return SkewWeights(Mesh(2000, SuiteSeed+2000), SuiteSeed, 48)
	}, 2000, 5972, "sha256:5120a08b2dcb5842dcdaebdd4675514bd2d5fefe0f81ba367772aeafd5f38646"},
	{"grid3d-10-skew", func() *graph.Graph {
		return SkewWeights(Grid3D(10, 10, 10), SuiteSeed+1, 32)
	}, 1000, 2700, "sha256:8d1af8ea132a8be3a694aa5655c63bb0c0f6bea6eb8f3f421a19528a2301d5a8"},
	{"domain-square", func() *graph.Graph { return DomainMesh(Square{}, 300, 7) }, 300, 882, "sha256:149ccbe151d51dc1d4386ed8ed0a1e079bb117223c9891afe014bc6ef22e0a21"},
	{"domain-lshape", func() *graph.Graph { return DomainMesh(LShape{}, 300, 7) }, 300, 873, "sha256:3caa6f6de85097b8c95b698a6cac4ca424efcd5e0909317f96f601ed0742fe82"},
	{"domain-annulus", func() *graph.Graph { return DomainMesh(Annulus{}, 300, 7) }, 300, 856, "sha256:11220c5a99f84cf7de1043a008f791bd8f421697d3872cbfc66203ff75dfd232"},
	{"incremental-78+10", grownOf(IncrementalCase{78, 10}), 88, 250, "sha256:27f6a9b66e75dbaf6ea08410ef934f9555618e8868f981c30dc503e738d91d72"},
	{"incremental-78+20", grownOf(IncrementalCase{78, 20}), 98, 282, "sha256:66ba4da46d958b1867f2614521a3027287da6d6a387253ea95703b4ccfbc968c"},
	{"incremental-118+21", grownOf(IncrementalCase{118, 21}), 139, 409, "sha256:9aa79bb9d4e693dfc35c36874da913c6951fbaf36d669c47f4da958da4115004"},
	{"incremental-118+41", grownOf(IncrementalCase{118, 41}), 159, 474, "sha256:81e9762bc4a6467bb762c1c4275d386fdf6a819f02a5c4b5d5df7294befab8c0"},
	{"incremental-183+30", grownOf(IncrementalCase{183, 30}), 213, 631, "sha256:ef3d87ba60672e0552aebac51c6bba12d308a9fb16e94f77e9f81a0307333215"},
	{"incremental-183+60", grownOf(IncrementalCase{183, 60}), 243, 725, "sha256:3b063a597b7f84bd18bbee488bf2428481c5d942b563c01d3e6a160e5eef3b7a"},
	{"incremental-249+30", grownOf(IncrementalCase{249, 30}), 279, 827, "sha256:612e1c8850d01c556c8dfc49f6eb56b56d570cebdcda5b0ec26eb071f2b20255"},
	{"incremental-249+60", grownOf(IncrementalCase{249, 60}), 309, 925, "sha256:84c4b1949d38eb6b4e0b4e9459f45ef9a7226e58d2459f0a9e5d908e1379fab0"},
	{"refine-1000+200", func() *graph.Graph {
		return Refine(Mesh(1000, SuiteSeed), 200, rand.New(rand.NewSource(SuiteSeed)))
	}, 1200, 3587, "sha256:6a6f682580bb74107c16e30ecc89e12e84dfa6497c6efc6be93dda80395a38b2"},
	{"induced-skew-mesh", func() *graph.Graph {
		// The left half of a skew-weighted mesh, listed in decreasing node
		// order so the relabeling is not the identity on any prefix.
		g := SkewWeights(Mesh(400, SuiteSeed+400), 5, 16)
		var nodes []int
		for v := g.NumNodes() - 1; v >= 0; v-- {
			if g.Coord(v).X < 0.5 {
				nodes = append(nodes, v)
			}
		}
		sub, _ := g.InducedSubgraph(nodes)
		return sub
	}, 210, 597, "sha256:26f168972ccea3789b209f75d2af37d5a681abfd73d45636c90b75b40f0c1535"},
}

func grownOf(c IncrementalCase) func() *graph.Graph {
	return func() *graph.Graph {
		_, grown := IncrementalPair(c)
		return grown
	}
}

func TestGeneratedGraphsGolden(t *testing.T) {
	for _, c := range goldenGraphs {
		g := c.build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		got := fmt.Sprintf("n=%d m=%d %s", g.NumNodes(), g.NumEdges(), service.GraphHash(g))
		if want := fmt.Sprintf("n=%d m=%d %s", c.n, c.m, c.hash); got != want {
			t.Errorf("%s: got %s, want %s", c.name, got, want)
		}
	}
}
