// Package fft provides the fast-Fourier-transform substrate that the
// PIC code's Poisson solver calls in place of Convex VECLIB (paper
// §5.1.1): an iterative radix-2 complex transform, multi-dimensional
// transforms over 3-D grids, and a periodic Poisson solver in
// wavenumber space.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward transforms x in place (decimation in time, radix-2).
// len(x) must be a power of two.
func Forward(x []complex128) error { return transform(x, -1) }

// Inverse applies the inverse transform in place, including the 1/N
// normalization.
func Inverse(x []complex128) error {
	if err := transform(x, +1); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

func transform(x []complex128, sign float64) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// Grid3 is a dense 3-D complex grid with nx×ny×nz points, x fastest.
type Grid3 struct {
	NX, NY, NZ int
	Data       []complex128
}

// NewGrid3 allocates a zero grid; all dimensions must be powers of two.
func NewGrid3(nx, ny, nz int) (*Grid3, error) {
	if !IsPow2(nx) || !IsPow2(ny) || !IsPow2(nz) {
		return nil, fmt.Errorf("fft: grid %dx%dx%d must have power-of-two dimensions", nx, ny, nz)
	}
	return &Grid3{NX: nx, NY: ny, NZ: nz, Data: make([]complex128, nx*ny*nz)}, nil
}

// Index flattens (i,j,k).
func (g *Grid3) Index(i, j, k int) int { return i + g.NX*(j+g.NY*k) }

// At returns the value at (i,j,k).
func (g *Grid3) At(i, j, k int) complex128 { return g.Data[g.Index(i, j, k)] }

// Set stores the value at (i,j,k).
func (g *Grid3) Set(i, j, k int, v complex128) { g.Data[g.Index(i, j, k)] = v }

// Forward3 transforms the grid in place along all three axes.
func Forward3(g *Grid3) error { return transform3(g, Forward) }

// Inverse3 applies the inverse transform along all three axes.
func Inverse3(g *Grid3) error { return transform3(g, Inverse) }

func transform3(g *Grid3, f func([]complex128) error) error {
	nx, ny, nz := g.NX, g.NY, g.NZ
	// X lines (contiguous).
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			base := g.Index(0, j, k)
			if err := f(g.Data[base : base+nx]); err != nil {
				return err
			}
		}
	}
	// Y lines.
	line := make([]complex128, ny)
	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				line[j] = g.At(i, j, k)
			}
			if err := f(line); err != nil {
				return err
			}
			for j := 0; j < ny; j++ {
				g.Set(i, j, k, line[j])
			}
		}
	}
	// Z lines.
	if nz > 1 {
		linez := make([]complex128, nz)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				for k := 0; k < nz; k++ {
					linez[k] = g.At(i, j, k)
				}
				if err := f(linez); err != nil {
					return err
				}
				for k := 0; k < nz; k++ {
					g.Set(i, j, k, linez[k])
				}
			}
		}
	}
	return nil
}

// SolvePoisson solves ∇²φ = −ρ on a periodic unit-spaced grid: ρ is
// transformed, divided by −k², and transformed back; the k=0 (mean)
// mode is set to zero. rho and phi may alias.
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its two dedicated tests (queued on ROADMAP)
func SolvePoisson(rho *Grid3, phi *Grid3) error {
	if rho != phi {
		copy(phi.Data, rho.Data)
		phi.NX, phi.NY, phi.NZ = rho.NX, rho.NY, rho.NZ
	}
	if err := Forward3(phi); err != nil {
		return err
	}
	nx, ny, nz := phi.NX, phi.NY, phi.NZ
	for k := 0; k < nz; k++ {
		kz := wavenumber(k, nz)
		for j := 0; j < ny; j++ {
			ky := wavenumber(j, ny)
			for i := 0; i < nx; i++ {
				kx := wavenumber(i, nx)
				k2 := kx*kx + ky*ky + kz*kz
				idx := phi.Index(i, j, k)
				if k2 == 0 {
					phi.Data[idx] = 0
					continue
				}
				// ∇²φ = −ρ  ⇒  −k²φ̂ = −ρ̂  ⇒  φ̂ = ρ̂ / k².
				phi.Data[idx] /= complex(k2, 0)
			}
		}
	}
	return Inverse3(phi)
}

// wavenumber maps grid index i of an n-point axis to the discrete
// Laplacian eigen-wavenumber 2 sin(π i / n) · n/L with L = n (unit
// spacing): k_eff = 2 sin(π i / n).
func wavenumber(i, n int) float64 {
	return 2 * math.Sin(math.Pi*float64(i)/float64(n))
}

// Flops estimates the floating-point operations of one n-point complex
// FFT (the standard 5 n log2 n count), used by the performance model.
func Flops(n int) int64 {
	if n <= 1 {
		return 0
	}
	lg := math.Log2(float64(n))
	return int64(5 * float64(n) * lg)
}

// Flops3 estimates the operations of one full 3-D transform.
func Flops3(nx, ny, nz int) int64 {
	return int64(ny*nz)*Flops(nx) + int64(nx*nz)*Flops(ny) + int64(nx*ny)*Flops(nz)
}
