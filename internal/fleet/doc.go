// Package fleet is the multi-pipeline scheduler above the single-chain
// mapping machinery: it admits many tenant chain specs against one shared
// processor pool, partitions the pool into per-pipeline allocations by a
// weighted-priority policy, and maps each pipeline with the existing DP
// solver behind a solve-once-place-many cache — identical specs (by the
// canonical spec hash of package adapt) solve exactly once no matter how
// many tenants submit them.
//
// The paper's world is one chain on one processor pool; a production fleet
// serves thousands of concurrent pipelines on shared hardware. This
// package is the layer between: tenant arrival and departure, processor
// failure, preemptive eviction, and rebalancing are first-class events,
// each of which re-packs the pool and re-places only the pipelines whose
// allocation actually changed. Unchanged pipelines keep their mapping
// without touching the cache. Admission hashes each spec once, at its
// allocation cap, and its family's adapt.SolveCache solves it there once:
// that DP table holds the optimum at every smaller budget too, so every
// re-placement reads the new allocation's mapping from the memoized
// per-budget frontier, with no hashing and no solve. That holds with
// clustering off too. Specs routed to greedy at the cap have no frontier
// and solve per allocation through the same caches.
//
// # Packing policy (normative)
//
// Pipelines are ranked by descending priority, then ascending minimum
// allocation, then admission order (earlier wins). Scanning in rank order,
// each pipeline reserves its minimum feasible allocation while it fits in
// the remaining pool; pipelines that do not fit are the eviction victims —
// so victims are always the lowest-priority pipelines, largest minimum
// first, newest first among equals. Surplus processors are then
// distributed to survivors proportionally to priority (largest-remainder
// rounding, capped per spec). The invariant enforced at every step: the
// sum of allocations never exceeds the surviving pool.
//
// With a processor grid configured, allocations are additionally rounded
// to rectangle-formable counts, the per-pipeline regions are packed onto
// the grid as disjoint rectangles (reusing machine.Pack), and every placed
// mapping must be machine.Feasible inside its region.
//
// Every invariant above ships as an executable property, fuzz, or race
// test in this package, not prose; see DESIGN.md §14.
package fleet
