// Package repro reproduces "Genetic Algorithms for Graph Partitioning and
// Incremental Graph Partitioning" (Maini, Mehrotra, Mohan & Ranka, Proc.
// IEEE Supercomputing 1994) as a production-quality Go library.
//
// The public surface lives in the internal packages (this repository is a
// self-contained reproduction, not an importable SDK):
//
//   - internal/graph       CSR graphs, one edge-list constructor (FromEdges,
//     which Builder feeds), traversal
//   - internal/gio         METIS, edge-list and native text readers and writers
//   - internal/geometry    Delaunay triangulation for mesh generation
//   - internal/gen         the deterministic benchmark mesh suite and
//     non-convex FEM domains (L-shape, annulus)
//   - internal/partition   partitions, cut metrics, Fitness 1 and 2
//   - internal/ga          the GA: KNUX, DKNUX, classic operators, binary
//     tournament selection, generational engine with 2 elites
//   - internal/dpga        the distributed-population model: hypercube
//     islands with barrier migration every 5 generations
//   - internal/spectral    recursive spectral bisection (RSB baseline)
//   - internal/linalg      Jacobi, Lanczos, tridiagonal QL eigensolvers
//   - internal/ibp         index-based partitioning (appendix algorithm)
//   - internal/kl          boundary hill climbing (serial and colored), rebalancing
//   - internal/fm          Fiduccia–Mattheyses k-way refinement
//   - internal/anneal      simulated-annealing partitioner
//   - internal/rcb         coordinate / graph recursive bisection baselines
//   - internal/greedy      region-grow / scattered / strip baselines
//   - internal/incremental incremental repartitioning with the seeded GA
//   - internal/multilevel  heavy-edge-matching contraction (paper §5 outlook)
//   - internal/metrics     halo volumes, load ratios, surface-to-volume
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
