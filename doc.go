// Package repro is a from-scratch Go reproduction of "Model-Independent
// Design of Knowledge Graphs — Lessons Learnt From Complex Financial Graphs"
// (EDBT 2022): the KGModel framework for designing Knowledge Graphs at
// meta-level and deploying them into arbitrary target systems.
//
// The implementation lives under internal/ as a set of small packages. The
// three steps of the methodology each have one entry point: gsl.Parse
// (design), models.TranslateSchema (deploy, Algorithm 1) and
// instance.MaterializeStaged (materialize, Algorithm 2).
//
//   - internal/supermodel — meta-model, super-model, super-schemas (§3)
//   - internal/gsl — the Graph Schema Language and the Γ renderers (§3)
//   - internal/metalog — MetaLog and the MTV compiler to Vadalog (§4)
//   - internal/vadalog — a Warded Datalog± reasoning engine (§4)
//   - internal/models — target models, mappings, SSST = Algorithm 1 (§5)
//   - internal/instance — instance constructs and Algorithm 2 (§6)
//   - internal/pg — an embedded property-graph store (graph dictionaries)
//   - internal/graphstats — the §2.1 statistics
//   - internal/fingraph — the synthetic financial-graph substrate
//   - internal/finance — control, ownership, close links, groups, families
//
// The cmd/ tools run each step from the command line, and the Example
// functions in example_test.go walk through the paper's figures and examples
// with their output pinned; the bench/ module records the timings. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package repro
