//go:build !amd64 || purego

package simd

// haveAVX2 is false: this build has no vector kernels, and every kernel
// runs its generic loop.
const haveAVX2 = false

func minMaxAVX2([]float64, float64, float64) (float64, float64, float64) {
	panic("simd: no vector kernels in this build")
}

func maxAbsDiffAVX2(float64, []float64, []float64) float64 {
	panic("simd: no vector kernels in this build")
}

func quantizeAVX2([]uint64, []float64, float64, float64, float64) bool {
	panic("simd: no vector kernels in this build")
}

func unpackAVX2([]float64, []byte, uint, float64, float64) int {
	panic("simd: no vector kernels in this build")
}

func interpEncodeAVX2(*Interp, Run) int {
	panic("simd: no vector kernels in this build")
}

func interpDecodeAVX2(*Interp, Run) int {
	panic("simd: no vector kernels in this build")
}

func addCosAVX2([]float64, []float64, float64, float64) int {
	panic("simd: no vector kernels in this build")
}

func ransDecodeAVX2(*RANSDecoder, []uint16, int, int, int, *RANSDecTable, []byte) int {
	panic("simd: no vector kernels in this build")
}

func ransEncodeAVX2(*RANSEncoder, []uint16, int, int, int, *RANSEncTable, []uint16) {
	panic("simd: no vector kernels in this build")
}
