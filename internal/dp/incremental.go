package dp

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/model"
)

// inf is the sentinel for infeasible states.
var inf = math.Inf(1)

// Solver is the package's one DP: a reusable, incrementally-updatable
// engine for the mapping DP of MapChain (clustering + replication +
// assignment) over a set of allowed module spans — every span, the
// singletons under Options.DisableClustering, or one clustering for
// AssignClustered. Inside the package it also minimizes latency under a
// period cap (latencySolve, behind MinLatency and LatencySweep); every
// exported method reads throughput tables only. It is incremental
// because the adaptive controller re-solves the same instance on every
// refit tick with only a few module cost estimates moved; a fresh solve
// re-derives every layer table from scratch, while the Solver snapshots
// per-layer DP tables and recomputes only the layers a cost change can
// actually reach.
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
// the ascending set of counts any feasible span [a', a) can hold, which
// newTables derives once with the transfer-cost grid (commGrid). Only a
// non-replicable module reaching many counts makes a class axis long. The
// transfer table shares the classes: a state of class c reads its input
// edge at row c.
//
// A state of layer (b, l) holds pcur >= min = minP[b-l, b) and q = pt -
// pcur >= lowQ[b-l], the fewest processors any feasible cover of [0, b-l)
// holds; a seed layer (b = l) has q = 0 only. So the states a layer can
// hold form rows q = lowQ .. P-min, row q holding pcur in [min, P-q] times
// |E_{b-l}| classes. A transition from a state with pt processors writes
// the whole of one such (row, class) run: row q = pt, at the class of the
// source's per-instance count. A layer stores only the runs some
// transition writes, so it stores exactly its finite cells (in the latency
// mode, less the cells the period cap keeps at +Inf). Its run directory,
// one entry per (row, class), holds each stored run's offset, or -1; the
// cells of a run lie pcur after pcur. The layers sharing an open-module
// start a are the targets of pass a (the seed layers for a = 0), and they
// store their runs in one slab, val[a] and choice[a]. Before its parallel
// targets, pass b walks its sources' live lists once, marks the runs their
// transitions will write, and stores those runs, +Inf, in every target
// (store). Solver.at is the one index function into the layers.
//
// Live lists hold each state's (pt, pcur, class) packed in one word, in
// the ascending order a dense (pt, pcur, peffPrev) table would be scanned
// in: class order equals value order, so live lists, dominance and
// tie-breaking are those of the dense tables. buildLive visits only the
// stored runs, in that order: a run (q, c) holds a cell at every pt from
// q+min to P, so at each pt the runs holding one, ordered by q descending
// and then c ascending, are a suffix of the pass's marked runs, in
// ascending (pcur, class) order.
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
// # Capped cold solves
//
// The period is a bottleneck: a state's value never decreases along a
// path, and neither does the open module's partial response (in+exec)/r,
// to which a transition only adds the output transfer. So once some
// complete mapping of period I is known, no state whose value or partial
// exceeds I lies on a path to a mapping better than I. A capped solver
// (solveOnce: MapChain and AssignClustered, which read one optimum and
// drop the tables) keeps that incumbent I: the least close value of the
// seed close layer (k, k) before pass 1, lowered by close layer (k, k-b)
// after pass b. It changes only between passes: store, the serial step
// before pass b's parallel targets, drops every source state above it
// from its live list (a capped solver's lists are thrown away with it),
// so target neither counts such a state nor has a run stored for it. The
// skip is exact to the bit: I is the period of a real mapping, so at
// least the optimum, and a strict > keeps every state at or below the
// optimum, so each such state holds the value, choice and dominance fate
// of the uncapped table, and scan picks the same winner and follows the
// same choices. The states above I differ, so a capped
// solver's tables answer no other budget and no other costs: NewSolver's
// solvers, which Frontier and Resolve read, and the latency mode, whose
// sum the incumbent does not bound, stay uncapped.
//
// # Allocation discipline
//
// All tables and run directories are allocated at construction, and no
// cell: seed stores the seed runs, and each pass stores its targets' runs
// in its slab, reusing the capacity an earlier solve left it (a cold solve
// makes each slab once, at its final size). Live lists and scratch grow
// during the first solves the same way, so a Resolve call on a warmed
// solver performs zero heap allocations, and a fleet of pipelines can
// re-solve on every adapt tick without GC churn. A solve resets the run
// directories of only the layers it recomputes. A live list grows in one
// scratch slice and is copied out at its final length. Incremental
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

	// Layers: k(k+1)/2 of them, ordinal b(b-1)/2 + (l-1) for layer (b, l),
	// 1 <= l <= b <= k, each placed by shape[ord]. See "Layer layout"
	// above; at indexes them. dir holds every layer's run directory: the
	// offset of run (q, c) of layer ord in its slab at
	// dir[shape[ord].dir + (q-qlo)*nE + c], or -1 where the run is not
	// stored. val[a] and choice[a] are the slab of the layers with
	// open-module start a.
	shape  []layerShape
	dir    []int32
	val    [][]float64
	choice [][]uint64
	// live[ord] lists the non-inf, non-dominated states of a layer, each
	// (pt, pcur, class) packed by pack, in ascending (pt, pcur, peffPrev)
	// order; rebuilt whenever the layer is recomputed, reused read-only
	// otherwise.
	live [][]uint64

	liveBuf []uint64   // live-list scratch buildLive grows a list in
	colMin  []float64  // dominance scratch, one entry per (pcur, class) column
	marks   []bool     // store's (q-qlo)*nE + c scratch: the runs a pass writes
	runs    []rowClass // store's scratch: the marked runs in buildLive's order
	changed []bool     // k-length scratch: which tasks moved this Resolve
	tgts    []int      // per-pass feasible target spans scratch

	solved bool
	solves int64          // completed Solve/Resolve runs (full or incremental)
	mods   []model.Module // reconstruction scratch; returned mappings alias it

	// latency switches the recurrence to one data set's traversal time
	// under periodCap: a closed module adds its response f to the value,
	// and only when its share f/r of the period is at most periodCap.
	// Only latencySolve sets it, so such a Solver never leaves the package.
	latency   bool
	periodCap float64

	// capped marks a solver that answers one Solve and is dropped
	// (solveOnce): run keeps incumbent, the least close value of the close
	// layers completed so far, and store drops every source state above it.
	// Every other solver keeps incumbent at +Inf; see "Capped cold solves"
	// above.
	capped    bool
	incumbent float64
}

// SolveCount returns the number of completed Solve/Resolve runs on this
// solver. Cache layers assert solve-once behaviour against this counter:
// with N identical specs placed through a cache, the underlying solver's
// count must stay at 1.
func (s *Solver) SolveCount() int64 { return s.solves }

// layerShape places one layer: rows q = qlo .. qlo+rows-1, row qlo+j
// holding pcur in [min, min+w-j) times nE classes, and its run directory
// of rows*nE entries from dir.
type layerShape struct {
	dir       int
	qlo, rows int
	min, w    int
	nE        int
}

// entry is the index of run (q, c)'s offset in the run directory.
func (g *layerShape) entry(q, c int) int { return g.dir + (q-g.qlo)*g.nE + c }

// rowClass names run (q, c) of a layer: the cells of row q at class c.
type rowClass struct{ q, c int32 }

// at is the index of state (pt, pcur, class c) of layer ord in its slab:
// the offset of run (q = pt-pcur, c) plus pcur's place in the run. The run
// must be stored, as it is for every state a solve reads: those are
// finite.
func (s *Solver) at(ord, pt, pcur, c int) int {
	g := &s.shape[ord]
	return int(s.dir[g.entry(pt-pcur, c)]) + pcur - g.min
}

// pack packs three coordinates into one word: a choice pointer's (prevL,
// prevPCur, prevCls) — the predecessor state's module length, raw count
// and peffPrev class — or a live state's (pt, pcur, cls). 21 bits each
// bounds P and k at 2^21-1, far beyond any instance the tables fit.
func pack(x, y, z int) uint64 {
	return uint64(x)<<42 | uint64(y)<<21 | uint64(z)
}

func unpack(w uint64) (x, y, z int) {
	return int(w >> 42), int(w >> 21 & (1<<21 - 1)), int(w & (1<<21 - 1))
}

// tables is the one cost tabulation every DP in this package reads: per
// module span [a, b) of the chain, its minimum processors and, at every
// raw processor count p, its replication split and execution time; the
// per-instance counts a module ending at each task boundary can hold; and
// every edge's external transfer cost at the points a solve reads. Span
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
	// effVals[a] is E_a: the distinct per-instance counts, ascending, that
	// a module ending at a can hold (E_0 = {0}: there is no previous
	// module). effCls[a*stride+v] is the class of count v — its index in
	// effVals[a] — or -1 when v is not in E_a.
	effVals [][]int
	effCls  []int32
	// ecom[e] is edge e's external transfer cost on its read grid, one
	// row of P+1 per class of E_{e+1}: ecom[e][c*stride+pr] is the cost
	// from effVals[e+1][c] sending processors to pr receiving ones, filled
	// at every pr in R_e (see commGrid) and never read elsewhere.
	ecom [][]float64
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
	var allowed []bool // nil: moduleSplit's default span set
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
		effVals: make([][]int, k),
		effCls:  make([]int32, k*stride),
		ecom:    make([][]float64, k-1),
	}
	fill(t.execEff, inf)
	for a := 0; a < k; a++ {
		for b := a + 1; b <= k; b++ {
			span := a*(k+1) + b
			// Not a module here leaves minP = P+1; other clusterings may
			// avoid the span, so mark rather than fail.
			min, repl := moduleSplit(c, pl, opt, allowed, a, b)
			t.minP[span] = min
			for p := min; p <= P; p++ {
				r := model.SplitReplicas(p, min, repl)
				t.eff[span*stride+p] = int32(r.ProcsPerInstance)
				t.rep[span*stride+p] = int32(r.Replicas)
			}
		}
	}
	// E_0 = {0}: a first module has no previous one.
	t.effVals[0] = []int{0}
	commGrid(c, pl, opt, allowed, func(e int, send, recv []int) {
		t.effVals[e+1] = slices.Clone(send)
		f := c.ECom[e]
		tab := make([]float64, len(send)*stride)
		for cls, ps := range send {
			row := tab[cls*stride : (cls+1)*stride]
			for _, pr := range recv {
				row[pr] = f.Eval(ps, pr)
			}
		}
		t.ecom[e] = tab
	})
	for a, vals := range t.effVals {
		cls := t.effCls[a*stride : (a+1)*stride]
		for v := range cls {
			cls[v] = -1
		}
		for i, v := range vals {
			cls[v] = int32(i)
		}
	}
	t.tabulateExecAll(c)
	return t, nil
}

// moduleSplit returns the minimum processors of span [a, b) as a module
// and whether maximal replication applies to it, or min = P+1 when the
// span is not a module here: it does not fit the platform, or it lies
// outside allowed (nil allows every span, or the singletons only under
// opt.DisableClustering).
func moduleSplit(c *model.Chain, pl model.Platform, opt Options, allowed []bool, a, b int) (min int, repl bool) {
	k := c.Len()
	if allowed != nil && !allowed[a*(k+1)+b] || allowed == nil && opt.DisableClustering && b > a+1 {
		return pl.Procs + 1, false
	}
	min = c.ModuleMinProcs(a, b, pl.MemPerProc)
	if min < 0 || min > pl.Procs {
		return pl.Procs + 1, false
	}
	return min, c.ModuleReplicable(a, b) && !opt.DisableReplication
}

// CommGrid visits, edge by edge, every point at which a solve of (c, pl)
// under opt reads an external transfer cost: edge e, between tasks e and
// e+1, at every ps in send and every pr in recv. send is E_{e+1}, the
// per-instance counts a module ending at task e+1 can hold, and recv is
// R_e, the counts a module starting there can hold; both ascend, and both
// are scratch that is valid only during the visit. A replicable span of
// minimum m holds only m..2m-1, so an edge has a few points where the full
// (ps, pr) square has P^2.
//
// The Solver tabulates ECom on exactly this grid, with the same code.
// Every mapping it, greedy.Map or machine.FeasibleOptimal returns under
// opt holds each module at one of these counts, so the mapping's
// Throughput and Latency read the grid too. The grid depends only on c's
// length, memory models, MinProcs and Replicable flags, on pl and on opt's
// two switches: instances that agree on those and on ECom at these points
// are solved identically. The chain must be valid.
func CommGrid(c *model.Chain, pl model.Platform, opt Options, visit func(e int, send, recv []int)) {
	commGrid(c, pl, opt, nil, visit)
}

// commGrid is CommGrid over the spans allowed admits (see moduleSplit). It
// marks each module span's counts, one range (see maxInstance), in two
// bitsets per task boundary, one for modules ending there and one for
// modules starting there, in one pass over the spans.
func commGrid(c *model.Chain, pl model.Platform, opt Options, allowed []bool, visit func(e int, send, recv []int)) {
	k, P := c.Len(), pl.Procs
	if k < 2 || P < 1 {
		return // no edge, or no module fits
	}
	words := P/64 + 1
	// Boundary a (1 <= a < k) has its send bitset at (2a-2)*words and its
	// recv bitset right after it.
	sets := make([]uint64, 2*(k-1)*words)
	for a := 0; a < k; a++ {
		for b := a + 1; b <= k; b++ {
			if a == 0 && b == k {
				continue // the whole chain meets no boundary
			}
			min, repl := moduleSplit(c, pl, opt, allowed, a, b)
			if min > P {
				continue
			}
			hi := maxInstance(min, P, repl)
			if b < k {
				setRange(sets[(2*b-2)*words:], min, hi)
			}
			if a > 0 {
				setRange(sets[(2*a-1)*words:], min, hi)
			}
		}
	}
	list := make([]int, 2*(P+1))
	for e := 0; e < k-1; e++ {
		send := appendCounts(list[:0], sets[2*e*words:(2*e+1)*words])
		recv := appendCounts(list[len(send):len(send)], sets[(2*e+1)*words:(2*e+2)*words])
		visit(e, send, recv)
	}
}

// maxInstance is the largest per-instance count a module of minimum m
// holds on up to P processors; it holds every count from m to there, and
// no other. Under maximal replication p raw processors run r = p/m
// instances of p/r each, and m <= p/r <= 2m-1: each count of that range is
// held at r = 1. Without replication a module holds its raw count, up to P.
func maxInstance(m, P int, repl bool) int {
	if repl {
		return min(2*m-1, P)
	}
	return P
}

// setRange sets bits lo..hi of bitset set.
func setRange(set []uint64, lo, hi int) {
	for w := lo / 64; w <= hi/64; w++ {
		mask := ^uint64(0)
		if w == lo/64 {
			mask &= ^uint64(0) << (lo % 64)
		}
		if w == hi/64 {
			mask &= ^uint64(0) >> (63 - hi%64)
		}
		set[w] |= mask
	}
}

// appendCounts appends the members of bitset set to dst, ascending.
func appendCounts(dst []int, set []uint64) []int {
	for w, word := range set {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
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

// NewSolver validates the instance, builds all tables and run directories
// and stores the seed layers. The chain's execution costs are tabulated as
// given; later Resolve calls retabulate only the spans whose tasks are
// reported changed. With opt.DisableClustering every module is a single
// task.
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
		incumbent: inf,
		changed:   make([]bool, t.k),
		tgts:      make([]int, 0, t.k),
		mods:      make([]model.Module, 0, t.k),
	}
	s.layout()
	s.seed()
	return s, nil
}

// layout places every layer's (row, class) directory, and the scratch
// that store and buildLive work in. It allocates no cell: seed stores the
// seed runs, and each pass stores its targets' runs.
func (s *Solver) layout() {
	k, P, stride := s.k, s.P, s.stride
	maxE := 0
	for _, vals := range s.effVals {
		maxE = max(maxE, len(vals))
	}
	// lowQ[a] is the fewest processors any feasible cover of [0, a) holds.
	lowQ := make([]int, k)
	for a := 1; a < k; a++ {
		lowQ[a] = P + 1
		for a2 := 0; a2 < a; a2++ {
			if m := s.minP[a2*(k+1)+a]; m <= P {
				lowQ[a] = min(lowQ[a], lowQ[a2]+m)
			}
		}
	}
	s.shape = make([]layerShape, k*(k+1)/2)
	size, maxDir := 0, 0
	for b := 1; b <= k; b++ {
		for l := 1; l <= b; l++ {
			a := b - l
			g := layerShape{dir: size, qlo: lowQ[a], min: s.minP[a*(k+1)+b], nE: len(s.effVals[a])}
			// Row qlo holds pcur in [min, P-qlo]; the rows run to q = P-min.
			if w := P - g.qlo - g.min + 1; w > 0 {
				g.w, g.rows = w, w
				if a == 0 {
					g.rows = 1 // a seed state has pt = pcur
				}
			}
			s.shape[s.ord(b, l)] = g
			size += g.rows * g.nE
			maxDir = max(maxDir, g.rows*g.nE)
		}
	}
	s.dir = make([]int32, size)
	s.val = make([][]float64, k)
	s.choice = make([][]uint64, k)
	s.live = make([][]uint64, len(s.shape))
	s.colMin = make([]float64, stride*maxE)
	s.marks = make([]bool, maxDir)
}

// ord is the ordinal of layer (b, l), 1 <= l <= b <= k.
func (s *Solver) ord(b, l int) int { return b*(b-1)/2 + (l - 1) }

// seed stores the first-module states: module [0, l) holding pcur
// processors, value 0 (no closed modules yet), one run (0, 0) per seed
// layer in slab 0. Seed layers have open module start 0, so no
// execution-cost change ever invalidates them. A seed state has no
// predecessor, so slab 0 has no choices.
func (s *Solver) seed() {
	n := 0
	for l := 1; l <= s.k; l++ {
		if g := &s.shape[s.ord(l, l)]; g.rows > 0 {
			s.dir[g.dir] = int32(n)
			n += g.w
		}
	}
	s.val[0] = make([]float64, n)
	for l := 1; l <= s.k; l++ {
		s.buildLive(l, l, []rowClass{{0, 0}})
	}
}

// buildLive rebuilds layer (b, l)'s live-state list: finite values, minus
// the dominance-pruned ones, in (pt, pcur, peffPrev) ascending order. runs
// are the runs the layer's pass marked, q descending and then c ascending;
// the layer stores those with q <= P-min. It is a pure function of the
// layer's contents, so fresh and incremental solves produce identical
// lists. Returns the number of dominated states dropped.
func (s *Solver) buildLive(b, l int, runs []rowClass) int64 {
	P := s.P
	ord := s.ord(b, l)
	g := s.shape[ord]
	vals := s.val[b-l]
	// Column (pcur-min)*nE + c is the state's (pcur, c) dominance column.
	colMin := s.colMin[:g.w*g.nE]
	fill(colMin, inf)
	list := s.liveBuf[:0]
	pruned := int64(0)
	for len(runs) > 0 && int(runs[0].q) > P-g.min {
		runs = runs[1:] // a row this layer does not hold
	}
	if len(runs) > 0 {
		// Run (q, c) holds pcur = pt-q at every pt from q+min to P, so the
		// runs holding a cell at pt are the suffix from first, in ascending
		// (pcur, c) order.
		first := len(runs)
		for pt := int(runs[first-1].q) + g.min; pt <= P; pt++ {
			for first > 0 && int(runs[first-1].q)+g.min <= pt {
				first--
			}
			for _, r := range runs[first:] {
				q, c := int(r.q), int(r.c)
				pcur := pt - q
				v := vals[int(s.dir[g.entry(q, c)])+pcur-g.min]
				if v == inf {
					continue
				}
				col := (pcur-g.min)*g.nE + c
				if colMin[col] <= v {
					pruned++ // dominated: smaller pt, no worse value
				} else {
					list = append(list, pack(pt, pcur, c))
					colMin[col] = v
				}
			}
		}
	}
	// Grown in the scratch, the list is copied once at its final length.
	s.liveBuf = list
	s.live[ord] = append(s.live[ord][:0], list...)
	return pruned
}

// store prepares pass b's targets, the layers (b+l2, l2) for l2 in tgts:
// it walks the sources' live lists once and marks run (pt, class of the
// open module's per-instance count) for every state that expands, then
// stores exactly the marked runs in every target that holds their row,
// +Inf, in slab b. A capped solver first drops the states above its
// incumbent from the lists. Returns the marked runs, q descending and
// then class ascending, the order buildLive walks them in.
func (s *Solver) store(b int) []rowClass {
	k, P, stride := s.k, s.P, s.stride
	nE := len(s.effVals[b])
	cls2 := s.effCls[b*stride:]
	qlo := s.shape[s.ord(b+s.tgts[0], s.tgts[0])].qlo // every target's: lowQ[b]
	qhi := -1                                         // the highest row a target holds
	for _, l2 := range s.tgts {
		qhi = max(qhi, P-s.minP[b*(k+1)+b+l2])
	}
	inc := s.incumbent
	qmin, qmax := P+1, -1 // the band of marked rows
	for l := 1; l <= b; l++ {
		a := b - l
		if s.minP[a*(k+1)+b] > P {
			continue
		}
		ord := s.ord(b, l)
		spanBase := (a*(k+1) + b) * stride
		if s.capped {
			vals := s.val[a]
			var inTab []float64
			if a > 0 {
				inTab = s.ecom[a-1]
			}
			kept := s.live[ord][:0]
			for _, st := range s.live[ord] {
				pt, pcur, c := unpack(st)
				if e := int(s.eff[spanBase+pcur]); e != 0 {
					in := 0.0
					if inTab != nil {
						in = inTab[c*stride+e]
					}
					partial := (in + s.execEff[spanBase+pcur]) / float64(s.rep[spanBase+pcur])
					if vals[s.at(ord, pt, pcur, c)] > inc || partial > inc {
						continue // every target of this state is above the incumbent
					}
				}
				kept = append(kept, st)
			}
			s.live[ord] = kept
		}
		for _, st := range s.live[ord] {
			pt, pcur, _ := unpack(st)
			e := int(s.eff[spanBase+pcur])
			if e == 0 || pt > qhi {
				continue // no transition
			}
			s.marks[(pt-qlo)*nE+int(cls2[e])] = true
			qmin, qmax = min(qmin, pt), max(qmax, pt)
		}
	}
	runs := s.runs[:0]
	for q := qmax; q >= qmin; q-- {
		row := s.marks[(q-qlo)*nE : (q-qlo+1)*nE]
		for c, marked := range row {
			if marked {
				runs = append(runs, rowClass{int32(q), int32(c)})
				row[c] = false
			}
		}
	}
	s.runs = runs
	n := 0
	for _, l2 := range s.tgts {
		g := &s.shape[s.ord(b+l2, l2)]
		for _, r := range runs {
			if q := int(r.q); q <= P-g.min {
				s.dir[g.entry(q, int(r.c))] = int32(n)
				n += P - q - g.min + 1
			}
		}
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("dp: pass %d stores %d cells, beyond the run directory's int32 offsets", b, n))
	}
	s.val[b] = resize(s.val[b], n)
	s.choice[b] = resize(s.choice[b], n)
	fill(s.val[b], inf)
	return runs
}

// target applies every source layer (b, l) to target layer (b+l2, l2):
// sources in ascending l, states in live-list order, which fixes the
// tie-breaking deterministically. store has stored every run it writes.
// Returns state and transition counts for instrumentation.
func (s *Solver) target(b, l2 int) (nStates, nTrans int64) {
	k, P, stride := s.k, s.P, s.stride
	min2 := s.minP[b*(k+1)+b+l2]
	eff2 := s.eff[(b*(k+1)+b+l2)*stride:]
	g2 := &s.shape[s.ord(b+l2, l2)]
	tv, tc := s.val[b], s.choice[b]
	cls2 := s.effCls[b*stride:]
	outTab := s.ecom[b-1]
	for l := 1; l <= b; l++ {
		a := b - l
		if s.minP[a*(k+1)+b] > P {
			continue
		}
		ord := s.ord(b, l)
		vals := s.val[a]
		spanBase := (a*(k+1) + b) * stride
		var inTab []float64
		if a > 0 {
			inTab = s.ecom[a-1]
		}
		for _, st := range s.live[ord] {
			pt, pcur, c := unpack(st)
			e := int(s.eff[spanBase+pcur])
			if e == 0 {
				continue
			}
			v := vals[s.at(ord, pt, pcur, c)]
			r := float64(s.rep[spanBase+pcur])
			in := 0.0
			if inTab != nil {
				in = inTab[c*stride+e]
			}
			nStates++
			n := P - pt - min2 + 1
			if n <= 0 {
				continue
			}
			nTrans += int64(n)
			// The open module sends over edge b-1 from e per instance: row
			// cls2[e] of its table, and the target class.
			c2 := int(cls2[e])
			outRow := outTab[c2*stride:]
			ch := pack(l, pcur, c)
			// The targets (pt+p2, p2), p2 = min2 .. P-pt, are run (pt, c2).
			off := int(s.dir[g2.entry(pt, c2)])
			run, chs := tv[off:off+n], tc[off:off+n]
			effs := eff2[min2 : min2+n]
			if s.latency {
				// f adds in model.Mapping.ResponseTimes' order: exec, in, out.
				execIn := s.execEff[spanBase+pcur] + in
				for i, pe := range effs {
					f := execIn + outRow[pe]
					if nv := v + f; f/r <= s.periodCap && nv < run[i] {
						run[i] = nv
						chs[i] = ch
					}
				}
				continue
			}
			partial := (in + s.execEff[spanBase+pcur]) / r
			for i, pe := range effs {
				resp := partial + outRow[pe]/r
				nv := v
				if resp > nv {
					nv = resp
				}
				if nv < run[i] {
					run[i] = nv
					chs[i] = ch
				}
			}
		}
	}
	return nStates, nTrans
}

// pass expands every layer at open-module start b: transitions from
// sources (b, l) into targets (b+l2, l2). Targets are disjoint runs of
// slab b, so the fresh solve computes them in parallel; the incremental
// path stays serial (and allocation-free) because the recomputed region
// is small and concurrent controllers provide the parallelism.
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
	if len(s.tgts) > 0 {
		runs := s.store(b)
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
		// Targets are final once every source l has been applied: build
		// their live lists now (dominance is a pure function of the
		// completed runs).
		for _, l2 := range s.tgts {
			pruned += s.buildLive(b+l2, l2, runs)
		}
	}
	ins.layer(b, layerT0, states, transitions, pruned)
}

// closeStates visits the live states of the close layers (k, l) in
// expansion order — l ascending, then live order — as closeLayer does.
func (s *Solver) closeStates(visit func(l, pt, pcur, c int, v float64)) {
	for l := 1; l <= s.k; l++ {
		s.closeLayer(l, visit)
	}
}

// closeLayer visits the live states of close layer (k, l) in live order,
// each with its value once the open module [k-l, k) is charged without an
// output edge. In latency mode a state whose last module exceeds the cap
// is skipped.
func (s *Solver) closeLayer(l int, visit func(l, pt, pcur, c int, v float64)) {
	k, stride := s.k, s.stride
	a := k - l
	if s.minP[a*(k+1)+k] > s.P {
		return
	}
	ord := s.ord(k, l)
	vals := s.val[a]
	spanBase := (a*(k+1) + k) * stride
	var inTab []float64
	if a > 0 {
		inTab = s.ecom[a-1]
	}
	for _, st := range s.live[ord] {
		pt, pcur, c := unpack(st)
		e := int(s.eff[spanBase+pcur])
		if e == 0 {
			continue
		}
		v := vals[s.at(ord, pt, pcur, c)]
		in := 0.0
		if inTab != nil {
			in = inTab[c*stride+e]
		}
		if s.latency {
			if f := s.execEff[spanBase+pcur] + in; f/float64(s.rep[spanBase+pcur]) <= s.periodCap {
				visit(l, pt, pcur, c, v+f)
			}
			continue
		}
		resp := (in + s.execEff[spanBase+pcur]) / float64(s.rep[spanBase+pcur])
		if resp > v {
			v = resp
		}
		visit(l, pt, pcur, c, v)
	}
}

// scan closes the chain: the close state of least value wins, the first
// of equal ones in closeStates' order, which matches the expansion
// tie-breaking.
func (s *Solver) scan() (model.Mapping, error) {
	best := inf
	var bestL, bestPT, bestPCur, bestCls int
	s.closeStates(func(l, pt, pcur, c int, v float64) {
		if v < best {
			best = v
			bestL, bestPT, bestPCur, bestCls = l, pt, pcur, c
		}
	})
	if best == inf {
		return model.Mapping{}, fmt.Errorf("dp: no feasible mapping of %d tasks onto %d processors", s.k, s.P)
	}

	s.mods = s.reconstruct(s.mods[:0], bestL, bestPT, bestPCur, bestCls)
	return model.Mapping{Chain: s.chain, Modules: s.mods}, nil
}

// reconstruct follows the choice pointers from close state (k, l, pt,
// pcur, c) back to the first module, appends the modules to dst left to
// right and returns it. scan passes its reusable scratch, so a warm
// Resolve allocates nothing; Frontier passes nil for a slice of its own.
func (s *Solver) reconstruct(dst []model.Module, l, pt, pcur, c int) []model.Module {
	k, stride := s.k, s.stride
	n0 := len(dst)
	b := k
	for {
		a := b - l
		spanBase := (a*(k+1) + b) * stride
		dst = append(dst, model.Module{
			Lo: a, Hi: b,
			Procs:    int(s.eff[spanBase+pcur]),
			Replicas: int(s.rep[spanBase+pcur]),
		})
		if a == 0 {
			break
		}
		pl, pp, pc := unpack(s.choice[a][s.at(s.ord(b, l), pt, pcur, c)])
		b, l, pt, pcur, c = a, pl, pt-pcur, pp, pc
	}
	slices.Reverse(dst[n0:])
	return dst
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
			ord := s.ord(b, l)
			g := &s.shape[ord]
			dir := s.dir[g.dir : g.dir+g.rows*g.nE]
			for i := range dir {
				dir[i] = -1
			}
			s.live[ord] = s.live[ord][:0]
			cleared++
		}
	}
	for b := m + 1; b < s.k; b++ {
		if s.capped {
			// Close layer (k, k-b+1), whose last module starts at b-1, is
			// complete: seed wrote it for b = 1, pass b-1 otherwise.
			s.closeLayer(s.k-b+1, func(_, _, _, _ int, v float64) {
				s.incumbent = min(s.incumbent, v)
			})
		}
		s.pass(b, par, ins)
	}
	mapping, err := s.scan()
	if err != nil {
		return model.Mapping{}, err
	}
	if ins.on {
		ins.metrics.Counter("dp.incremental.layers_cleared").Add(int64(cleared))
		ins.metrics.Counter("dp.incremental.layers_reused").Add(int64(s.k*(s.k+1)/2 - cleared))
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

// resize returns buf at length n, in its own array while it has the
// capacity.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
