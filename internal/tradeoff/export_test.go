package tradeoff

// The spec test, which loads the committed specs through the core
// package's parser (core imports this package), reaches the exhaustive
// check here.
var CheckAgainstExhaustive = checkAgainstExhaustive
