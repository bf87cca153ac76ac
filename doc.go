// Package difftrace is a from-scratch Go reproduction of "DiffTrace:
// Efficient Whole-Program Trace Analysis and Diffing for Debugging"
// (Taheri, Briggs, Burtscher, Gopalakrishnan — IEEE CLUSTER 2019).
//
// The implementation lives under internal/ (one package per subsystem:
// tracing substrate, filters, nested loop recognition, formal concept
// analysis, Jaccard matrices, hierarchical clustering, B-scores, diffNLR,
// the simulated MPI/OpenMP runtimes, and the three evaluation
// applications); the executables live under cmd/, runnable walk-throughs
// under examples/, and the benchmark harness regenerating each of the
// paper's tables and figures in bench_test.go. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package difftrace
