package huffman

// Exports for oracle_test.go, whose comparisons against internal/oracle
// run in the external huffman_test package.
var (
	GeometricData = geometricData
	EncodeInts    = encodeInts
	EncodeWith    = encodeWith
	DecodeInts    = decodeInts
)

const PrimaryBits = primaryBits

// Symbols reports the number of coded symbols.
func (t *Table) Symbols() int { return t.symbols }
