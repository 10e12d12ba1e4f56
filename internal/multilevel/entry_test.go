package multilevel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
)

// entryPoint is one refiner entry point taking the Eval it is handed, and
// the objectives it supports.
type entryPoint struct {
	name string
	objs []partition.Objective
	run  func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective)
}

func entryPoints() []entryPoint {
	all := partition.Objectives()
	cuts := []partition.Objective{partition.TotalCut, partition.WorstCut}
	klc := func(o partition.Objective) kl.Config { return kl.Config{Objective: o, Workers: 2} }
	fmc := func(o partition.Objective) fm.Config { return fm.Config{Objective: o, Workers: 2} }
	return []entryPoint{
		{"kl.Climb", all, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			kl.Climb(g, p, ev, klc(o))
		}},
		{"kl.Propagate", all, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			kl.Propagate(g, p, ev, klc(o))
		}},
		{"kl.Refine", all, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			kl.Refine(g, p, ev, klc(o))
		}},
		{"kl.Rebalance", all, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			kl.Rebalance(g, p, ev, klc(o))
		}},
		{"fm.Refine", cuts, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			fm.Refine(g, p, ev, fmc(o))
		}},
		{"kl.HillClimbEval", all, func(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective) {
			kl.HillClimbEval(g, p, o, 0, ev)
		}},
	}
}

// Every refiner entry point prepares the Eval it is handed through
// partition.Tracked, which builds what is missing and rebuilds nothing that
// is present. So a call started from a nil Eval, from an untracked NewEval,
// or from a NewEval followed by Track yields the same partition, and a
// handed-in Eval ends exactly in sync with it: weights, cuts, the boundary
// set when tracked, and the volume under CommVolume all equal a fresh
// NewEval plus Track of the output, bit for bit. Seed 0 is the empty graph,
// on which Track must still enable its trackers.
func TestRefinerEntryStatesAgree(t *testing.T) {
	for seed := int64(0); seed <= 3; seed++ {
		g := randomWeightedGraph(150*int(seed), seed*41)
		parts := 1 + 2*int(seed)
		start := partition.RandomBalanced(g.NumNodes(), parts, rand.New(rand.NewSource(seed)))
		for _, e := range entryPoints() {
			for _, o := range e.objs {
				label := fmt.Sprintf("seed %d %s %v", seed, e.name, o)
				want := start.Clone()
				e.run(g, want, nil, o)
				fresh := partition.NewEval(g, want)
				fresh.Track(g, want, o, 1)

				untracked := start.Clone()
				evU := partition.NewEval(g, untracked)
				e.run(g, untracked, evU, o)

				tracked := start.Clone()
				evT := partition.NewEval(g, tracked)
				evT.Track(g, tracked, o, 1)
				e.run(g, tracked, evT, o)

				for _, c := range []struct {
					state string
					p     *partition.Partition
					ev    *partition.Eval
				}{{"untracked", untracked, evU}, {"tracked", tracked, evT}} {
					if !slices.Equal(c.p.Assign, want.Assign) {
						t.Fatalf("%s: %s entry gives a different partition than a nil Eval", label, c.state)
					}
					if !slices.Equal(c.ev.Weights, fresh.Weights) || !slices.Equal(c.ev.Cuts, fresh.Cuts) {
						t.Fatalf("%s: %s entry ends with weights %v cuts %v, fresh build %v %v",
							label, c.state, c.ev.Weights, c.ev.Cuts, fresh.Weights, fresh.Cuts)
					}
					if c.ev.TracksBoundary() && !slices.Equal(c.ev.AppendBoundary(nil), fresh.AppendBoundary(nil)) {
						t.Fatalf("%s: %s entry ends with a boundary that differs from a fresh build", label, c.state)
					}
					if o == partition.CommVolume && c.ev.CommVol() != fresh.CommVol() {
						t.Fatalf("%s: %s entry ends with volume %v, fresh build %v", label, c.state, c.ev.CommVol(), fresh.CommVol())
					}
				}
				if !evT.TracksBoundary() {
					t.Fatalf("%s: a tracked Eval lost its boundary tracker", label)
				}
			}
		}
	}
}
