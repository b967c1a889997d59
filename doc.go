// Package repro is a Go reproduction of "Improving the Process-Variation
// Tolerance of Digital Circuits Using Gate Sizing and Statistical
// Techniques" (Neiroukh & Song, DATE 2005).
//
// It provides, as one self-contained library:
//
//   - a gate-level netlist model with ISCAS .bench I/O and generators for
//     the paper's benchmark families (ALUs, error-correcting XOR networks,
//     priority/interrupt logic, adders, comparators, a 16x16 array
//     multiplier);
//   - a technology mapper onto a built-in NLDM-style standard-cell
//     library with eight drive strengths per function;
//   - deterministic STA, the FULLSSTA discrete-PDF statistical engine,
//     the FASSTA fast moments engine (Clark's max with the paper's
//     quadratic erf approximation and dominance shortcuts), and a
//     Monte-Carlo golden reference;
//   - WNSS (worst negative statistical slack) path tracing;
//   - the StatisticalGreedy variance-reduction gate-sizing optimizer, a
//     deterministic mean-delay baseline, and an area-recovery pass.
//
// This package is the public facade: Generate a Design or Load one from
// .bench or Verilog text (under ingest budgets), Analyze it, optimize
// it, and query yields. The cmd/ directory holds
// CLIs, examples/ holds runnable walkthroughs, and the benches in
// bench_test.go regenerate every table and figure of the paper (see
// DESIGN.md and EXPERIMENTS.md).
package repro
