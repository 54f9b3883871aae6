package poolsafe

import (
	"testing"

	"ocelot/tools/ocelotvet/internal/analysistest"
)

func TestGolden(t *testing.T) {
	// Register the golden package's domain pool the same way the driver's
	// built-in table registers huffman.BuildTable and sz.getArena.
	AcquirePairs["b.acquire"] = "Release"
	AcquirePairs["b.lend"] = ReleaseFunc
	defer delete(AcquirePairs, "b.acquire")
	defer delete(AcquirePairs, "b.lend")
	analysistest.Run(t, ".", Analyzer, "b")
}
