package dp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/model"
)

// inf is the sentinel for infeasible states.
var inf = math.Inf(1)

// Solver is the package's one throughput DP: a reusable,
// incrementally-updatable engine for the mapping DP of MapChain
// (clustering + replication + assignment) over a set of allowed module
// spans — every span, the singletons under Options.DisableClustering, or
// one clustering for AssignClustered. It is incremental because the
// adaptive controller re-solves the same instance on every refit tick
// with only a few module cost estimates moved; a fresh solve re-derives
// every layer table from scratch, while the Solver snapshots per-layer DP
// tables and recomputes only the layers a cost change can actually reach.
//
// # State and invalidation
//
// The DP state is (b, l, pt, pcur, peffPrev): tasks [0, b) covered, the
// open module spans [b-l, b) with pcur raw processors, pt processors used
// in total, and the previous module's effective count is peffPrev. The
// value of a state is the minimal bottleneck over the *closed* modules —
// the modules covering [0, b-l). It therefore depends only on the
// execution costs of tasks in [0, b-l) (plus structural tables and edge
// transfer costs, which do not change under an execution-cost update).
//
// That gives the invalidation rule: after changing the execution costs of
// task set C with m = min(C), every layer (b, l) with b-l <= m is still
// bit-exact and is reused; every layer with b-l > m is cleared and
// recomputed. Transitions out of layer (b, l) write only into layers
// (b+l2, l2) whose open-module start is b, so the recompute re-runs the
// expansion passes for b = m+1 .. k-1 in order and nothing else. The
// final close scan is always re-run: it charges the last open module
// [k-l, k), which contains a changed task whenever anything changed.
//
// # Layer layout
//
// peffPrev ranges over few values: it is the per-instance count of some
// module [a', a) ending at the open module's start a = b-l, and maximal
// replication maps most raw counts onto a handful of instance sizes. So
// each layer indexes that axis by class — the position of peffPrev in E_a,
// the ascending set of counts any feasible span [a', a) can hold,
// derived once from the structural eff table — and layer (b, l) holds
// (P+1)^2 * |E_{b-l}| states (none when span [b-l, b) is infeasible)
// instead of (P+1)^3. Class order equals value order, so scanning a layer
// in index order visits states in the same (pt, pcur, peffPrev) order as
// a dense layout, and live lists, dominance and tie-breaking are those of
// the dense tables. Only a non-replicable module reaching many counts
// makes a class axis long.
//
// # Dominance pruning
//
// Two states in the same layer with equal (pcur, peffPrev) admit exactly
// the same continuations: any suffix of modules feasible from the state
// using pt total processors is feasible from a state using pt' <= pt, and
// contributes the same future response times. A state is therefore
// dropped ("dominated") when another state in its (pcur, peffPrev) column
// has both fewer-or-equal processors used and a smaller-or-equal value.
// Dropping it cannot change the optimal period: every completion of the
// dominated state is matched by a completion of the dominator that is no
// worse in period and no greater in processors used. Pruning is computed
// from a layer's completed contents only — never during writes — so it is
// a pure function of the table and the incremental recompute reproduces
// it bit-exactly.
//
// # Allocation discipline
//
// All tables, layer arenas and live-state lists are allocated at
// construction (or grown during the first solves); a Resolve call on a
// warmed solver performs zero heap allocations, so a fleet of pipelines
// can re-solve on every adapt tick without GC churn. Incremental
// re-solves run single-threaded: the recomputed region is small and the
// callers (many controllers sharing one process) provide the
// parallelism.
//
// A Solver is NOT safe for concurrent use; callers serialize access (the
// adapt memo cache holds one solver under its lock).
type Solver struct {
	tables
	pl  model.Platform
	opt Options
	// chain is the most recently supplied cost view (NewSolver's chain
	// until a Resolve supplies a newer one); returned mappings carry it.
	chain *model.Chain

	// Layer arena: k(k+1)/2 layers stored back to back, ordinal
	// b(b-1)/2 + (l-1) for layer (b, l), 1 <= l <= b <= k; layer ord
	// occupies [off[ord], off[ord+1]). See "Layer layout" above.
	val    []float64
	choice []uint64
	off    []int
	// effVals[a] is E_a: the distinct per-instance counts, ascending, that
	// a module ending at a can hold (E_0 = {0}: there is no previous
	// module). effCls[a*stride+v] is the class of count v — its index in
	// effVals[a] — or -1 when v is not in E_a.
	effVals [][]int
	effCls  []int32
	// live[ord] lists the non-inf, non-dominated state indices of a layer
	// in deterministic (pt, pcur, peffPrev) scan order; rebuilt whenever
	// the layer is recomputed, reused read-only otherwise.
	live [][]int32

	colMin  []float64 // dominance scratch, one entry per (pcur, class) column
	changed []bool    // k-length scratch: which tasks moved this Resolve
	tgts    []int     // per-pass feasible target spans scratch

	solved bool
	solves int64          // completed Solve/Resolve runs (full or incremental)
	mods   []model.Module // reconstruction scratch; returned mappings alias it
}

// SolveCount returns the number of completed Solve/Resolve runs on this
// solver. Cache layers assert solve-once behaviour against this counter:
// with N identical specs placed through a cache, the underlying solver's
// count must stay at 1.
func (s *Solver) SolveCount() int64 { return s.solves }

// choicePack packs (prevL, prevPCur, prevCls) — the predecessor state's
// module length, raw count and peffPrev class — into one word; 21 bits
// each bounds P and k at 2^21-1, far beyond any instance the tables fit.
func choicePack(l, pcur, c int) uint64 {
	return uint64(l)<<42 | uint64(pcur)<<21 | uint64(c)
}

func choiceUnpack(c uint64) (l, pcur, cls int) {
	return int(c >> 42), int(c >> 21 & (1<<21 - 1)), int(c & (1<<21 - 1))
}

// tables is the one cost tabulation every DP in this package reads: per
// module span [a, b) of the chain, its minimum processors and, at every
// raw processor count p, its replication split and execution time, plus
// every edge's external transfer cost at effective endpoint counts. Span
// [a, b) lives at index a*(k+1)+b; per-count entries at
// (a*(k+1)+b)*(P+1)+p.
//
// A span that cannot be a module — it does not fit the platform, or it
// lies outside the allowed span set — has minP = P+1 and no entries, so
// the DPs reading the tables never place it.
type tables struct {
	k, P, stride int

	minP []int
	// eff and rep are an instance's processor count and the replication
	// degree at p raw processors; eff is 0 where the span does not fit.
	eff []int32
	rep []int32
	// execEff is the span's execution time at eff (+Inf where eff is 0):
	// the only table an exec-cost update touches.
	execEff []float64
	// ecomV[(e*(P+1)+ps)*(P+1)+pr] is edge e's external transfer cost at
	// effective endpoint counts (ps, pr).
	ecomV []float64
}

// newTables validates the instance and tabulates the spans a module may
// take: those of the clustering spans when it is non-nil, otherwise the
// singletons under opt.DisableClustering and every span without it.
// Replication is maximal unless opt.DisableReplication is set. Only a
// restricted span set allocates a membership table.
func newTables(c *model.Chain, pl model.Platform, opt Options, spans []model.Span) (tables, error) {
	if err := c.Validate(); err != nil {
		return tables{}, err
	}
	if err := pl.Validate(); err != nil {
		return tables{}, err
	}
	k, P := c.Len(), pl.Procs
	stride := P + 1
	if spans == nil && opt.DisableClustering {
		spans = model.Singletons(k)
	}
	var allowed []bool // nil: every span
	if spans != nil {
		allowed = make([]bool, k*(k+1))
		for _, sp := range spans {
			allowed[sp.Lo*(k+1)+sp.Hi] = true
		}
	}
	t := tables{
		k: k, P: P, stride: stride,
		minP:    make([]int, k*(k+1)),
		eff:     make([]int32, k*(k+1)*stride),
		rep:     make([]int32, k*(k+1)*stride),
		execEff: make([]float64, k*(k+1)*stride),
		ecomV:   make([]float64, (k-1)*stride*stride),
	}
	fill(t.execEff, inf)
	for a := 0; a < k; a++ {
		for b := a + 1; b <= k; b++ {
			span := a*(k+1) + b
			min := c.ModuleMinProcs(a, b, pl.MemPerProc)
			if min < 0 || min > P || (allowed != nil && !allowed[span]) {
				// Not a module here; other clusterings may avoid the
				// span, so mark rather than fail.
				t.minP[span] = P + 1
				continue
			}
			t.minP[span] = min
			repl := c.ModuleReplicable(a, b) && !opt.DisableReplication
			for p := 0; p <= P; p++ {
				r := model.SplitReplicas(p, min, repl)
				if r.Replicas == 0 {
					continue
				}
				t.eff[span*stride+p] = int32(r.ProcsPerInstance)
				t.rep[span*stride+p] = int32(r.Replicas)
			}
		}
	}
	for e := 0; e < k-1; e++ {
		base := e * stride * stride
		for ps := 1; ps <= P; ps++ {
			for pr := 1; pr <= P; pr++ {
				t.ecomV[base+ps*stride+pr] = c.ECom[e].Eval(ps, pr)
			}
		}
	}
	t.tabulateExecAll(c)
	return t, nil
}

// spanExec evaluates the composed execution cost of span [a, b) at
// per-instance processor count pe without materializing a SumCost: the
// member tasks' execution costs plus the internal redistributions, added
// in model.Chain.ModuleExec's order so the sum is bit-identical.
func spanExec(c *model.Chain, a, b, pe int) float64 {
	t := 0.0
	for i := a; i < b; i++ {
		t += c.Tasks[i].Exec.Eval(pe)
		if i+1 < b {
			t += c.ICom[i].Eval(pe)
		}
	}
	return t
}

// tabulateSpanExec refreshes execEff for one span from the chain's
// current execution costs.
func (t *tables) tabulateSpanExec(c *model.Chain, a, b int) {
	base := (a*(t.k+1) + b) * t.stride
	for p := 0; p <= t.P; p++ {
		pe := int(t.eff[base+p])
		if pe == 0 {
			t.execEff[base+p] = inf
			continue
		}
		t.execEff[base+p] = spanExec(c, a, b, pe)
	}
}

func (t *tables) tabulateExecAll(c *model.Chain) {
	for a := 0; a < t.k; a++ {
		for b := a + 1; b <= t.k; b++ {
			if t.minP[a*(t.k+1)+b] > t.P {
				continue
			}
			t.tabulateSpanExec(c, a, b)
		}
	}
}

// NewSolver validates the instance and builds all tables and arenas. The
// chain's execution costs are tabulated as given; later Resolve calls
// retabulate only the spans whose tasks are reported changed. With
// opt.DisableClustering every module is a single task.
func NewSolver(c *model.Chain, pl model.Platform, opt Options) (*Solver, error) {
	return newSolver(c, pl, opt, nil)
}

// newSolver builds a solver whose modules are restricted to the spans of
// the clustering spans; nil spans leave NewSolver's span set.
func newSolver(c *model.Chain, pl model.Platform, opt Options, spans []model.Span) (*Solver, error) {
	t, err := newTables(c, pl, opt, spans)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		tables: t,
		pl:     pl, opt: opt, chain: c,
		changed: make([]bool, t.k),
		tgts:    make([]int, 0, t.k),
		mods:    make([]model.Module, 0, t.k),
	}
	s.classify()
	s.seed()
	return s, nil
}

// classify derives the peffPrev classes E_a from the structural eff table
// and lays out the arena: layer (b, l) gets stride^2 * |E_{b-l}| states,
// or none when its open span is infeasible.
func (s *Solver) classify() {
	k, P, stride := s.k, s.P, s.stride
	s.effVals = make([][]int, k)
	s.effCls = make([]int32, k*stride)
	seen := make([]bool, stride)
	maxE := 0
	for a := 0; a < k; a++ {
		clear(seen)
		for a2 := 0; a2 < a; a2++ {
			base := (a2*(k+1) + a) * stride
			for p := 0; p <= P; p++ {
				seen[s.eff[base+p]] = true
			}
		}
		// eff 0 marks a raw count a span cannot hold, so 0 is a class only
		// at a = 0, where there is no previous module.
		seen[0] = a == 0
		for v, ok := range seen {
			s.effCls[a*stride+v] = -1
			if ok {
				s.effCls[a*stride+v] = int32(len(s.effVals[a]))
				s.effVals[a] = append(s.effVals[a], v)
			}
		}
		maxE = max(maxE, len(s.effVals[a]))
	}
	nLayers := k * (k + 1) / 2
	s.off = make([]int, nLayers+1)
	for b := 1; b <= k; b++ {
		for l := 1; l <= b; l++ {
			ord, size := s.ord(b, l), 0
			if s.minP[(b-l)*(k+1)+b] <= P {
				size = stride * stride * len(s.effVals[b-l])
			}
			s.off[ord+1] = s.off[ord] + size
		}
	}
	s.val = make([]float64, s.off[nLayers])
	s.choice = make([]uint64, s.off[nLayers])
	s.live = make([][]int32, nLayers)
	s.colMin = make([]float64, stride*maxE)
	fill(s.val, inf)
}

// ord is the arena ordinal of layer (b, l), 1 <= l <= b <= k.
func (s *Solver) ord(b, l int) int { return b*(b-1)/2 + (l - 1) }

// vidx is the in-layer index of state (pt, pcur, peffPrev) in a layer
// whose peffPrev axis has nE classes, c being peffPrev's class.
func (s *Solver) vidx(pt, pcur, c, nE int) int { return (pt*s.stride+pcur)*nE + c }

// layer returns the value slab of layer (b, l).
func (s *Solver) layer(b, l int) []float64 {
	ord := s.ord(b, l)
	return s.val[s.off[ord]:s.off[ord+1]]
}

// seed writes the first-module states: module [0, l) holding pcur
// processors, value 0 (no closed modules yet). Seed layers have open
// module start 0, so no execution-cost change ever invalidates them.
func (s *Solver) seed() {
	for l := 1; l <= s.k; l++ {
		min := s.minP[0*(s.k+1)+l]
		if min > s.P {
			continue
		}
		vals := s.layer(l, l)
		for pcur := min; pcur <= s.P; pcur++ {
			vals[s.vidx(pcur, pcur, 0, 1)] = 0
		}
		s.buildLive(l, l)
	}
}

// buildLive rebuilds layer (b, l)'s live-state list: finite values, minus
// the dominance-pruned ones, in (pt, pcur, peffPrev) ascending order. It
// is a pure function of the layer's contents, so fresh and incremental
// solves produce identical lists. Returns the number of dominated states
// dropped.
func (s *Solver) buildLive(b, l int) int64 {
	ord := s.ord(b, l)
	// Index idx is (pt*stride+pcur)*nE + c, so idx % cols is the state's
	// (pcur, c) dominance column.
	cols := s.stride * len(s.effVals[b-l])
	colMin := s.colMin[:cols]
	fill(colMin, inf)
	list := s.live[ord][:0]
	pruned := int64(0)
	for idx, v := range s.layer(b, l) {
		if v < inf {
			col := idx % cols
			if colMin[col] <= v {
				pruned++ // dominated: smaller pt, no worse value
			} else {
				list = append(list, int32(idx))
				colMin[col] = v
			}
		}
	}
	s.live[ord] = list
	return pruned
}

// target applies every source layer (b, l) to target layer (b+l2, l2):
// sources in ascending l, states in live-list (ascending index) order,
// which fixes the tie-breaking deterministically. Returns state and
// transition counts for instrumentation.
func (s *Solver) target(b, l2 int) (nStates, nTrans int64) {
	k, P, stride := s.k, s.P, s.stride
	min2 := s.minP[b*(k+1)+b+l2]
	eff2 := s.eff[(b*(k+1)+b+l2)*stride:]
	nOff := s.off[s.ord(b+l2, l2)]
	nE2 := len(s.effVals[b])
	cls2 := s.effCls[b*stride:]
	outTab := s.ecomV[(b-1)*stride*stride:]
	for l := 1; l <= b; l++ {
		a := b - l
		if s.minP[a*(k+1)+b] > P {
			continue
		}
		src := s.layer(b, l)
		prev := s.effVals[a]
		nE := len(prev)
		spanBase := (a*(k+1) + b) * stride
		var inTab []float64
		if a > 0 {
			inTab = s.ecomV[(a-1)*stride*stride:]
		}
		for _, idx32 := range s.live[s.ord(b, l)] {
			idx := int(idx32)
			c := idx % nE
			rest := idx / nE
			pcur := rest % stride
			pt := rest / stride
			e := int(s.eff[spanBase+pcur])
			if e == 0 {
				continue
			}
			nStates++
			v := src[idx]
			r := float64(s.rep[spanBase+pcur])
			in := 0.0
			if inTab != nil {
				in = inTab[prev[c]*stride+e]
			}
			partial := (in + s.execEff[spanBase+pcur]) / r
			outRow := outTab[e*stride:]
			ch := choicePack(l, pcur, c)
			ce := int(cls2[e])
			for p2 := min2; p2 <= P-pt; p2++ {
				resp := partial + outRow[int(eff2[p2])]/r
				nv := v
				if resp > nv {
					nv = resp
				}
				ni := nOff + ((pt+p2)*stride+p2)*nE2 + ce
				if nv < s.val[ni] {
					s.val[ni] = nv
					s.choice[ni] = ch
				}
			}
			if n := P - pt - min2 + 1; n > 0 {
				nTrans += int64(n)
			}
		}
	}
	return nStates, nTrans
}

// pass expands every layer at open-module start b: transitions from
// sources (b, l) into targets (b+l2, l2). Targets are disjoint slabs, so
// the fresh solve computes them in parallel; the incremental path stays
// serial (and allocation-free) because the recomputed region is small and
// concurrent controllers provide the parallelism.
func (s *Solver) pass(b int, par bool, ins instrument) {
	k, P := s.k, s.P
	layerT0 := time.Time{}
	if ins.on {
		layerT0 = time.Now()
	}
	s.tgts = s.tgts[:0]
	for l2 := 1; l2 <= k-b; l2++ {
		if s.minP[b*(k+1)+b+l2] <= P {
			s.tgts = append(s.tgts, l2)
		}
	}
	var states, transitions, pruned int64
	if par {
		var aSt, aTr atomic.Int64
		tgts := s.tgts
		parallelFor(len(tgts), func(ti int) {
			st, tr := s.target(b, tgts[ti])
			aSt.Add(st)
			aTr.Add(tr)
		})
		states, transitions = aSt.Load(), aTr.Load()
	} else {
		for _, l2 := range s.tgts {
			st, tr := s.target(b, l2)
			states += st
			transitions += tr
		}
	}
	// Targets are final once every source l has been applied: build their
	// live lists now (dominance is a pure function of the completed slab).
	for _, l2 := range s.tgts {
		pruned += s.buildLive(b+l2, l2)
	}
	ins.layer(b, layerT0, states, transitions, pruned)
}

// scan closes the chain: every layer (k, l) charges its open module's
// response without an output edge, and the best state wins. Iteration
// order (l, then live order) matches the expansion tie-breaking.
func (s *Solver) scan() (model.Mapping, error) {
	k, P, stride := s.k, s.P, s.stride
	best := inf
	var bestL, bestPT, bestPCur, bestCls int
	for l := 1; l <= k; l++ {
		a := k - l
		if s.minP[a*(k+1)+k] > P {
			continue
		}
		vals := s.layer(k, l)
		prev := s.effVals[a]
		nE := len(prev)
		spanBase := (a*(k+1) + k) * stride
		var inTab []float64
		if a > 0 {
			inTab = s.ecomV[(a-1)*stride*stride:]
		}
		for _, idx32 := range s.live[s.ord(k, l)] {
			idx := int(idx32)
			c := idx % nE
			rest := idx / nE
			pcur := rest % stride
			pt := rest / stride
			e := int(s.eff[spanBase+pcur])
			if e == 0 {
				continue
			}
			v := vals[idx]
			in := 0.0
			if inTab != nil {
				in = inTab[prev[c]*stride+e]
			}
			resp := (in + s.execEff[spanBase+pcur]) / float64(s.rep[spanBase+pcur])
			if resp > v {
				v = resp
			}
			if v < best {
				best = v
				bestL, bestPT, bestPCur, bestCls = l, pt, pcur, c
			}
		}
	}
	if best == inf {
		return model.Mapping{}, fmt.Errorf("dp: no feasible mapping of %d tasks onto %d processors", k, P)
	}

	// Reconstruct right to left into the reusable scratch.
	s.mods = s.mods[:0]
	b, l, pt, pcur, c := k, bestL, bestPT, bestPCur, bestCls
	for {
		a := b - l
		spanBase := (a*(k+1) + b) * stride
		s.mods = append(s.mods, model.Module{
			Lo: a, Hi: b,
			Procs:    int(s.eff[spanBase+pcur]),
			Replicas: int(s.rep[spanBase+pcur]),
		})
		if a == 0 {
			break
		}
		at := s.off[s.ord(b, l)] + s.vidx(pt, pcur, c, len(s.effVals[a]))
		pl, pp, pc := choiceUnpack(s.choice[at])
		b, l, pt, pcur, c = a, pl, pt-pcur, pp, pc
	}
	for i, j := 0, len(s.mods)-1; i < j; i, j = i+1, j-1 {
		s.mods[i], s.mods[j] = s.mods[j], s.mods[i]
	}
	return model.Mapping{Chain: s.chain, Modules: s.mods}, nil
}

// run recomputes every layer whose open-module start exceeds m and
// re-scans the close states. m = 0 recomputes everything (a fresh solve);
// m = k-1 recomputes nothing and only re-scans.
func (s *Solver) run(m int, par bool, ins instrument) (model.Mapping, error) {
	solveT0 := time.Time{}
	if ins.on {
		solveT0 = time.Now()
	}
	cleared := 0
	for b := 1; b <= s.k; b++ {
		for l := 1; l <= b; l++ {
			if b-l <= m {
				continue
			}
			fill(s.layer(b, l), inf)
			s.live[s.ord(b, l)] = s.live[s.ord(b, l)][:0]
			cleared++
		}
	}
	for b := m + 1; b < s.k; b++ {
		s.pass(b, par, ins)
	}
	mapping, err := s.scan()
	if err != nil {
		return model.Mapping{}, err
	}
	if ins.on {
		ins.metrics.Add("dp.incremental.layers_cleared", int64(cleared))
		ins.metrics.Add("dp.incremental.layers_reused", int64(s.k*(s.k+1)/2-cleared))
		ins.done(s.k, s.P, solveT0)
	}
	s.solved = true
	s.solves++
	return mapping, nil
}

// Solve runs a fresh full solve (parallel across layer targets) and
// returns the optimal mapping. The mapping's Modules alias solver-owned
// scratch that the next Solve/Resolve overwrites; callers that retain the
// result across solves must copy it.
func (s *Solver) Solve() (model.Mapping, error) {
	return s.run(0, true, s.opt.instrument())
}

// Resolve incrementally re-solves after an execution-cost update. chain
// must be structurally identical to the chain the solver was built from —
// same length, memory models, MinProcs, Replicable flags, and identical
// internal and external communication costs — and may differ from the
// previously solved costs only in the Exec functions of the tasks listed
// in changed. An empty changed set re-derives the previous answer from
// the retained tables (a cheap close-scan).
//
// The result is bit-identical to a fresh Solve on chain: the reused
// layers are exactly the ones an exhaustive recompute would reproduce,
// and the recomputed ones replay the same deterministic transition order.
// Resolve runs single-threaded and performs zero heap allocations once
// the solver is warm. The returned mapping aliases solver-owned scratch,
// exactly as for Solve.
func (s *Solver) Resolve(chain *model.Chain, changed []int) (model.Mapping, error) {
	if chain.Len() != s.k {
		return model.Mapping{}, fmt.Errorf("dp: incremental resolve with %d tasks on a %d-task solver",
			chain.Len(), s.k)
	}
	for i := range s.changed {
		s.changed[i] = false
	}
	m := s.k // min changed index; k = nothing changed
	for _, i := range changed {
		if i < 0 || i >= s.k {
			return model.Mapping{}, fmt.Errorf("dp: changed task %d out of range [0,%d)", i, s.k)
		}
		if !s.changed[i] {
			s.changed[i] = true
			if i < m {
				m = i
			}
		}
	}
	ins := s.opt.instrument()
	s.chain = chain
	if !s.solved {
		// Never solved: whatever the caller believes changed, every span
		// must be tabulated from this chain.
		s.tabulateExecAll(chain)
		return s.run(0, false, ins)
	}
	if m < s.k {
		// Refresh execEff for every feasible span touching a changed task.
		for a := 0; a < s.k; a++ {
			for b := a + 1; b <= s.k; b++ {
				if s.minP[a*(s.k+1)+b] > s.P {
					continue
				}
				touched := false
				for i := a; i < b; i++ {
					if s.changed[i] {
						touched = true
						break
					}
				}
				if touched {
					s.tabulateSpanExec(chain, a, b)
				}
			}
		}
	}
	if m > s.k-1 {
		m = s.k - 1 // nothing changed: reuse every layer, re-scan only
	}
	return s.run(m, false, ins)
}

func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

// parallelFor runs f(i) for i in [0, n) across GOMAXPROCS goroutines.
// The DP layers it is used on have independent iterations.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}
