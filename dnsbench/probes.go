package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"channeldns/internal/banded"
	"channeldns/internal/fft"
	"channeldns/internal/mpi"
	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// Kernel probes: timed calls into the FFT, banded and parallel-FFT layers
// at a workload's shapes, made from outside the solver after its timed
// loop. Operation counts and bytes moved are computed from the shapes
// (the usual 5 m log2 m complex FFT convention, one multiply-add per band
// entry), not measured, and the metric names say so.

// probeShape is the grid and decomposition the probes use.
type probeShape struct {
	nx, ny, nz int
	pa, pb     int
	tcp        bool
	overlap    bool
}

const (
	probeSeconds = 0.3 // per probe
	probeBatches = 15
	bandHalf     = 7 // B-spline degree: the solver's band half-width
	// probeTol bounds the probes' round-trip error on O(1) random data:
	// rounding leaves 1e-15, a broken kernel leaves O(1).
	probeTol = 1e-9
	// cycleFields is the parallel-FFT cycle's field count: the three
	// velocity components.
	cycleFields = 3
)

// timeCall returns the median per-call seconds of fn over probeBatches
// batches sized to split probeSeconds.
func timeCall(fn func()) float64 {
	fn()
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 10*time.Millisecond {
		fn()
		n++
	}
	per := time.Since(t0).Seconds() / float64(n)
	batch := max(1, int(probeSeconds/probeBatches/per))
	samples := make([]float64, probeBatches)
	for b := range samples {
		s := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples[b] = time.Since(s).Seconds() / float64(batch)
	}
	return median(samples)
}

// maxDiff returns max |a[i] - b[i]|, +Inf if any entry is not finite.
func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		d := cmplx.Abs(a[i] - b[i])
		if !finite(d) {
			return math.Inf(1)
		}
		m = max(m, d)
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// runProbes checks each kernel's round trip at the workload's shapes
// and, when timed, measures it. Untimed runs make one call of each for the
// check alone.
func runProbes(res *result, sh probeShape, rec *spans, timed bool) error {
	rng := rand.New(rand.NewSource(1))
	v := res.values
	pid := rec.begin("probes", 0, "")
	defer rec.end(pid)
	probe := func(name string, fn func()) float64 {
		if !timed {
			fn()
			return 0
		}
		id := rec.begin(name, pid, "")
		defer rec.end(id)
		return timeCall(fn)
	}

	// FFT: one padded inverse + truncated forward pair per line, x (real,
	// Nx/2 modes on 3Nx/2 points) and z (complex, Nz on 3Nz/2).
	nk, mx := sh.nx/2, 3*sh.nx/2
	pr := fft.NewPaddedReal(nk, mx)
	// Valid spectra round-trip exactly: the mean of a real line is real,
	// and the z Nyquist mode is not carried.
	specR, outR := randComplex(rng, nk), make([]complex128, nk)
	specR[0] = complex(real(specR[0]), 0)
	physR := make([]float64, mx)
	scrR := make([]complex128, pr.ScratchLen())
	v["fft.kernel_real_s"] = probe("fft.PaddedReal", func() {
		pr.InversePaddedScratch(physR, specR, scrR)
		pr.ForwardTruncatedScratch(outR, physR, scrR)
	})
	mz := 3 * sh.nz / 2
	pc := fft.NewPaddedComplex(sh.nz, mz)
	specC, outC := randComplex(rng, sh.nz), make([]complex128, sh.nz)
	specC[sh.nz/2] = 0
	physC := make([]complex128, mz)
	scrC := make([]complex128, pc.ScratchLen())
	v["fft.kernel_complex_s"] = probe("fft.PaddedComplex", func() {
		pc.InversePaddedScratch(physC, specC, scrC)
		pc.ForwardTruncatedScratch(outC, physC, scrC)
	})
	fftFlops := 2*2.5*float64(mx)*math.Log2(float64(mx)) + 2*5*float64(mz)*math.Log2(float64(mz))
	v["fft.kernel_flops_computed"] = fftFlops
	v["fft.kernel_bytes_computed"] = float64(2*(16*nk+8*mx) + 2*(16*sh.nz+16*mz))
	v["fft.kernel_gflops"] = fftFlops / (v["fft.kernel_real_s"] + v["fft.kernel_complex_s"]) / 1e9
	dR, dC := maxDiff(outR, specR), maxDiff(outC, specC)
	res.check(dR <= probeTol && dC <= probeTol,
		fmt.Sprintf("padded FFT round trips miss their input by %.3g (real) and %.3g (complex)", dR, dC))

	// Banded: the compact LU solve and the general band mat-vec at the
	// workload's Ny with the solver's band half-width.
	ny := sh.ny
	cm := banded.NewCompact(ny, bandHalf)
	gm := banded.NewReal(ny, bandHalf, bandHalf)
	for i := 0; i < ny; i++ {
		for j := max(0, i-bandHalf); j <= min(ny-1, i+bandHalf); j++ {
			a := rng.Float64() - 0.5
			if i == j {
				a += 2 * bandHalf // diagonally dominant: no pivoting surprises
			}
			cm.Set(i, j, a)
			gm.Set(i, j, a)
		}
	}
	if err := cm.Factor(); err != nil {
		return fmt.Errorf("banded probe: %w", err)
	}
	rhs, b := randComplex(rng, ny), make([]complex128, ny)
	v["banded.kernel_solve_s"] = probe("banded.Compact.SolveComplex", func() {
		copy(b, rhs)
		cm.SolveComplex(b)
	})
	y := make([]complex128, ny)
	v["banded.kernel_mulvec_s"] = probe("banded.Real.MulVecComplex", func() { gm.MulVecComplex(y, b) })
	dB := maxDiff(y, rhs)
	res.check(dB <= probeTol, fmt.Sprintf("banded solve then mat-vec misses the right-hand side by %.3g", dB))
	band := float64(ny * (2*bandHalf + 1))
	v["banded.kernel_flops_computed"] = 2 * 4 * band // solve + mat-vec, real x complex multiply-add
	v["banded.kernel_bytes_computed"] = float64(8*cm.StorageFloats()) + 8*band + float64(4*16*ny)

	if !timed {
		return nil
	}

	// Parallel FFT: the Table 5 cycle on the workload's decomposition and
	// transport; bytes are the transposes' own counters.
	id := rec.begin("parfft.Kernel.Cycle", pid, "")
	defer rec.end(id)
	reg := telemetry.NewRegistry()
	var cycleS float64
	var cycles int
	world := mpi.Run
	if sh.tcp {
		world = mpi.RunTCP
	}
	world(sh.pa*sh.pb, func(c *mpi.Comm) {
		k := parfft.NewCustom(c, sh.pa, sh.pb, sh.nx, sh.ny, sh.nz, nil)
		k.D.Overlap = sh.overlap
		fields := make([][]complex128, cycleFields)
		for f := range fields {
			fields[f] = randComplex(rand.New(rand.NewSource(int64(f+10*c.Rank()))), k.YPencilLen())
		}
		t0 := time.Now()
		fields, _ = k.Cycle(fields) // warm plans, buffers and streams
		n := []int{max(3, int(probeSeconds/time.Since(t0).Seconds()))}
		n = mpi.Bcast(c, 0, n)
		k.SetTelemetry(reg.Rank(c.Rank()))
		samples := make([]float64, n[0])
		for i := range samples {
			s := time.Now()
			fields, _ = k.Cycle(fields)
			samples[i] = time.Since(s).Seconds()
		}
		if c.Rank() == 0 {
			cycleS, cycles = median(samples), n[0]
		}
	})
	v["parfft.cycle_s"] = cycleS
	var bytes int64
	for _, cs := range reg.Snapshot().Comm {
		bytes += cs.Bytes
	}
	v["parfft.cycle_bytes"] = float64(bytes) / float64(cycles)
	// Per field: an inverse and a forward z transform on every (kx, y)
	// line and a fused inverse+forward real x transform on every (y, z)
	// line, without padding.
	fx, fy, fz := float64(sh.nx), float64(sh.ny), float64(sh.nz)
	v["parfft.cycle_flops_computed"] = cycleFields * (2*(fx/2)*fy*5*fz*math.Log2(fz) + 2*fy*fz*2.5*fx*math.Log2(fx))
	return nil
}
