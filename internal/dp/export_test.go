package dp

// The external tests, which load the committed specs through the core
// package's parser, reach the reference check and its option sets here.
var (
	CheckAgainstReference = checkAgainstReference
	ReferenceOptions      = referenceOptions
)
