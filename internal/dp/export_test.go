package dp

import "pipemap/internal/model"

// The external tests, which load the committed specs through the core
// package's parser, reach the reference and capped-solve checks and their
// option sets here.
var (
	CheckAgainstReference  = checkAgainstReference
	CheckCappedMatchesFull = checkCappedMatchesFull
	ReferenceOptions       = referenceOptions
)

// TransferTableLen tabulates (c, pl) under opt and returns how many floats
// its transfer table holds, without building a Solver.
func TransferTableLen(c *model.Chain, pl model.Platform, opt Options) (int, error) {
	t, err := newTables(c, pl, opt, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tab := range t.ecom {
		n += len(tab)
	}
	return n, nil
}

// SolveCapped runs the capped cold solve MapChain runs on (c, pl) under
// opt and returns its solver, which MapChain drops.
func SolveCapped(c *model.Chain, pl model.Platform, opt Options) (*Solver, error) {
	s, err := newSolver(c, pl, opt, nil)
	if err != nil {
		return nil, err
	}
	s.capped = true
	if _, err := s.Solve(); err != nil {
		return nil, err
	}
	return s, nil
}

// StoredCells returns how many cells the layers of s store, and how many
// of those hold a finite value.
func (s *Solver) StoredCells() (stored, finite int) {
	for b := 1; b <= s.k; b++ {
		for l := 1; l <= b; l++ {
			g := s.shape[s.ord(b, l)]
			for i, off := range s.dir[g.dir : g.dir+g.rows*g.nE] {
				if off < 0 {
					continue
				}
				q := g.qlo + i/g.nE
				for _, v := range s.val[b-l][int(off) : int(off)+s.P-q-g.min+1] {
					stored++
					if v < inf {
						finite++
					}
				}
			}
		}
	}
	return stored, finite
}
