// Package repro reproduces "Genetic Algorithms for Graph Partitioning and
// Incremental Graph Partitioning" (Maini, Mehrotra, Mohan & Ranka, Proc.
// IEEE Supercomputing 1994) as a production-quality Go library.
//
// The public surface lives in the internal packages (this repository is a
// self-contained reproduction, not an importable SDK):
//
//   - internal/graph       CSR graphs, builders, traversal, text + METIS I/O
//   - internal/geometry    Delaunay triangulation for mesh generation
//   - internal/gen         the deterministic benchmark mesh suite and
//     non-convex FEM domains (L-shape, annulus)
//   - internal/partition   partitions, cut metrics, Fitness 1 and 2
//   - internal/ga          the GA: KNUX, DKNUX, classic operators, label
//     normalization, generational/steady-state engine
//   - internal/dpga        distributed-population islands (hypercube etc.),
//     synchronous-deterministic and asynchronous models
//   - internal/spectral    recursive spectral bisection (RSB baseline)
//   - internal/linalg      Jacobi, Lanczos, tridiagonal QL eigensolvers
//   - internal/ibp         index-based partitioning (appendix algorithm)
//   - internal/kl          boundary hill climbing (serial and colored), rebalancing
//   - internal/fm          Fiduccia–Mattheyses k-way refinement
//   - internal/anneal      simulated-annealing partitioner
//   - internal/rcb         coordinate / graph recursive bisection baselines
//   - internal/greedy      region-grow / scattered / strip baselines
//   - internal/incremental incremental repartitioning strategies
//   - internal/multilevel  heavy-edge-matching contraction (paper §5 outlook)
//   - internal/metrics     halo volumes, load ratios, migration cost
//   - internal/viz         SVG rendering of partitioned meshes
//   - internal/bench       regenerates every table and figure of the paper
//   - internal/paperdata   the paper's published numbers, for comparisons
//
// See README.md for a tour, quickstart, and bench instructions, and
// CHANGES.md for the per-PR history. cmd/experiments -compare prints
// paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each table/figure via
// "go test -bench=."; cmd/experiments does the same at paper scale.
package repro
