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
// its transfer table holds, without building a Solver's arena.
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
