// Package dp implements the optimal dynamic programming mapping algorithms
// from section 3 of Subhlok & Vondran (PPoPP 1995).
//
// The paper builds its algorithm in three steps: processor assignment for
// a fixed clustering (section 3.1), maximal replication under memory
// constraints (section 3.2), and clustering (section 3.3). Here the three
// are one engine, the incremental Solver, run on three sets of module
// spans:
//
//   - MapChain allows every contiguous task span, so it clusters,
//     replicates and assigns together.
//   - MapChain with Options.DisableClustering allows the singleton spans
//     only: the processor assignment of section 3.1 with replication
//     disabled, or of section 3.2 with it on.
//   - AssignClustered allows the spans of one given clustering.
//
// Replication is maximal unless Options.DisableReplication is set: a
// replicable module holding p processors runs floor(p/min) instances of
// floor(p/r) processors each. All three tabulate the chain once per span,
// in the tables MinLatency and AssignNoComm read too. A span outside the
// allowed set is marked like a span that does not fit the platform, so
// the Solver's recurrence, dominance pruning, incremental Resolve and
// per-budget Frontier are the same for every span set.
//
// The Solver's state is (b, l, pt, pcur, peffPrev): tasks [0, b) covered,
// the open module [b-l, b) holding pcur raw processors, pt processors used
// in total, and the previous module's per-instance count peffPrev. Its
// value is the minimal bottleneck response time over the closed modules;
// since peffPrev and the next module's count fix the open module's
// response, a transition closes it (Lemma 1 of the paper). See Solver for
// the layer layout, invalidation rule and pruning argument.
//
// BruteForce and MapExhaustive are test oracles: BruteForce enumerates
// every clustering, processor vector and replication, and MapExhaustive
// runs AssignClustered on every clustering.
package dp
