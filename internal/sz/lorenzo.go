package sz

// lorenzoTraverse visits every point in row-major order and predicts each
// value with the n-dimensional Lorenzo predictor: the inclusion–exclusion
// sum over the 2^d − 1 already-reconstructed neighbors in the negative
// orthant. Out-of-range neighbors contribute zero, which makes the first
// point's prediction 0.
//
// point(i, pred) encodes or decodes point i; it must store recon[i] before
// it returns, since later predictions read it.
func lorenzoTraverse(recon []float64, dims []int, point func(i int, pred float64)) {
	switch len(dims) {
	case 1:
		lorenzo1D(recon, dims[0], point)
	case 2:
		lorenzo2D(recon, dims[0], dims[1], point)
	case 3:
		lorenzo3D(recon, dims[0], dims[1], dims[2], point)
	default:
		lorenzoND(recon, dims, point)
	}
}

func lorenzo1D(recon []float64, n int, point func(int, float64)) {
	for i := 0; i < n; i++ {
		var pred float64
		if i > 0 {
			pred = recon[i-1]
		}
		point(i, pred)
	}
}

func lorenzo2D(r []float64, ny, nx int, point func(int, float64)) {
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			idx := j*nx + i
			var a, b, ab float64
			if i > 0 {
				a = r[idx-1]
			}
			if j > 0 {
				b = r[idx-nx]
			}
			if i > 0 && j > 0 {
				ab = r[idx-nx-1]
			}
			point(idx, a+b-ab)
		}
	}
}

func lorenzo3D(r []float64, nz, ny, nx int, point func(int, float64)) {
	sy := nx
	sz := nx * ny
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := k*sz + j*sy + i
				var x, y, z, xy, xz, yz, xyz float64
				hasX, hasY, hasZ := i > 0, j > 0, k > 0
				if hasX {
					x = r[idx-1]
				}
				if hasY {
					y = r[idx-sy]
				}
				if hasZ {
					z = r[idx-sz]
				}
				if hasX && hasY {
					xy = r[idx-sy-1]
				}
				if hasX && hasZ {
					xz = r[idx-sz-1]
				}
				if hasY && hasZ {
					yz = r[idx-sz-sy]
				}
				if hasX && hasY && hasZ {
					xyz = r[idx-sz-sy-1]
				}
				point(idx, x+y+z-xy-xz-yz+xyz)
			}
		}
	}
}

// lorenzoND is the generic inclusion–exclusion fallback for 4-D data.
func lorenzoND(recon []float64, dims []int, point func(int, float64)) {
	nd := len(dims)
	strides := rowMajorStrides(dims)
	coords := make([]int, nd)
	total := 1
	for _, d := range dims {
		total *= d
	}
	for idx := 0; idx < total; idx++ {
		var pred float64
		// Enumerate all nonempty neighbor masks.
		for mask := 1; mask < 1<<nd; mask++ {
			off := 0
			valid := true
			for d := 0; d < nd; d++ {
				if mask&(1<<d) != 0 {
					if coords[d] == 0 {
						valid = false
						break
					}
					off += strides[d]
				}
			}
			if !valid {
				continue
			}
			if popcount(mask)%2 == 1 {
				pred += recon[idx-off]
			} else {
				pred -= recon[idx-off]
			}
		}
		point(idx, pred)
		// Advance the odometer (row-major: last dim fastest).
		for d := nd - 1; d >= 0; d-- {
			coords[d]++
			if coords[d] < dims[d] {
				break
			}
			coords[d] = 0
		}
	}
}

// rowMajorStrides returns element strides for row-major layout
// (dims[0] slowest, dims[len-1] fastest).
func rowMajorStrides(dims []int) []int {
	nd := len(dims)
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= dims[d]
	}
	return strides
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
