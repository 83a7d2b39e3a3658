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
// in the tables AssignNoComm reads too. A span outside the allowed set is
// marked like a span that does not fit the platform, so the Solver's
// recurrence, dominance pruning, incremental Resolve and per-budget
// Frontier are the same for every span set.
//
// The tables hold each edge's external transfer cost only where a solve
// reads it: between a count a module ending at the edge can hold (its
// class in E, below) and a count a module starting there can hold. Under
// maximal replication a replicable span of minimum m holds only m..2m-1,
// so an edge keeps a few rows of P+1 instead of a (P+1)^2 square. CommGrid
// enumerates those points with the code the tables use, and package adapt
// samples exactly them for its canonical cache keys.
//
// A solve whose Solver is dropped afterwards, MapChain's or
// AssignClustered's, is capped by its incumbent: the least period of the
// complete mappings its finished close layers hold. The period is a
// bottleneck, so a state whose value or open-module partial response is
// already above the incumbent cannot lead to a better mapping, and the
// solve skips it and stores none of its cells. A strict comparison keeps
// every tie, so the mapping is the uncapped solve's to the bit; on
// ffthist256 the cap skips nine transitions in ten. NewSolver's solvers stay uncapped, because
// Frontier and Resolve read states above any one solve's optimum.
//
// The same Solver also minimizes latency, the sum of module response
// times, under a period cap T: an unexported mode in which closing a
// module adds its response f to the value and is allowed only when
// f/r <= T. MinLatency is one such solve without a cap and without
// replication; LatencySweep lowers the cap below each solved mapping's
// period until nothing fits, which traces the exact period/latency
// trade-off that package tradeoff reports.
//
// The Solver's state is (b, l, pt, pcur, peffPrev): tasks [0, b) covered,
// the open module [b-l, b) holding pcur raw processors, pt processors used
// in total, and the previous module's per-instance count peffPrev. Its
// value is the minimal bottleneck response time over the closed modules;
// since peffPrev and the next module's count fix the open module's
// response, a transition closes it (Lemma 1 of the paper). A transition
// from a state holding pt processors writes one whole (row, class) run of
// its target layer: every pcur of row pt-pcur = pt, at the class of the
// open module's per-instance count. So each layer (b, l) stores only the
// runs some transition writes, which are exactly its finite cells: a
// capped cold solve of stereo128 at P=64 stores 6,349 of the 762,302
// cells its layers can index, and allocates 0.5 MB where storing them all
// took 12.5 MB. A run lies in the bounds the layers index: the open module
// holds at least its minimum, the closed ones at least the fewest
// processors that cover [0, b-l), and peffPrev takes one of the few counts
// a module ending at b-l can hold. See Solver for the layer layout,
// invalidation rule and pruning argument.
//
// BruteForce and MapExhaustive are test oracles: BruteForce enumerates
// every clustering, processor vector and replication, and MapExhaustive
// runs AssignClustered on every clustering. The tests also hold a plain
// dense form of the recurrence, with no classes, pruning or live lists,
// which checks the Solver bit for bit beyond brute-force sizes.
package dp
