// Package adapt is the closed-loop remapping controller (DESIGN.md §10),
// the control plane layered over the solver and the fault-tolerant
// runtime. The paper solves the mapping once, offline, against cost models
// fitted from a handful of profiled runs; adapt closes the loop at
// runtime:
//
//	observe  per-stage service times and replica liveness (obs/live.Monitor)
//	refit    the polynomial cost models online (estimate.OnlineFitter:
//	         windowed observations, MAD outlier rejection, sample-count
//	         confidence gating)
//	re-solve the mapping on the refitted models for the surviving
//	         processor count, DP or greedy by core.AutoAlgorithm, the rule
//	         core.Map uses, through the solve cache keyed at the nominal
//	         platform (memo, incremental DP, and after an instance death
//	         the nominal table's per-budget frontier)
//	migrate  when the predicted throughput gain clears a hysteresis
//	         threshold: the caller swaps the serving ingest plane onto a
//	         pipeline of the new mapping (ingest.Plane.Swap drains the old
//	         one without dropping a request), and rolls back if the new
//	         mapping's measured capacity falls short
//
// Controller holds the decision logic and is driven one decision at a time
// through Step, which makes it deterministic and unit-testable. The
// serving loop lives in cmd/pipemap: on each tick of -adapt-interval it
// steps the controller with the serving generation's health and capacity
// and executes the returned decision.
package adapt
