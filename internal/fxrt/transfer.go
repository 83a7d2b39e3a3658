package fxrt

// Edge optionally attaches a real data transfer to a pipeline edge. When
// an edge has a Transfer function, the receiving instance executes it as
// the first part of its stage attempt (a failed attempt retries the
// transfer with it), and its duration is recorded under Name. The sender
// hands its output off and moves on: fxrt charges a transfer only to the
// receiving attempt, while package sim keeps the paper's model in which a
// transfer occupies both the sender and the receiver.
type Edge struct {
	// Name labels the transfer in recorded statistics (e.g.
	// "edge:transpose").
	Name string
	// Transfer converts the upstream output into the downstream input. It
	// runs on the receiving instance's worker group. A nil Transfer makes
	// the handoff free (pointer pass).
	Transfer func(recv *StageCtx, in DataSet) (DataSet, error)
	// Release, when set, recycles the data set Transfer read, which must
	// not be the one it returned. It is called once the receiving stage's
	// attempt has succeeded — never earlier, because every retry re-runs
	// Transfer from the same data set — and only when no stage of the
	// pipeline has a deadline, because an attempt abandoned at its
	// deadline keeps running detached and may still read it.
	Release func(in DataSet)
}

// RunWithEdges streams n data sets through the pipeline with explicit
// edge transfers; edges must have len(p.Stages)-1 entries (individual
// entries may have a nil Transfer). It is Run with the transfers of
// StreamOptions.Edges.
func (p *Pipeline) RunWithEdges(source func(i int) DataSet, n, warmup int, edges []Edge) (Stats, error) {
	return p.runBatch(source, n, warmup, edges, true)
}
