package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"channeldns/internal/ckpt"
	"channeldns/internal/core"
	"channeldns/internal/mpi"
)

// endCheckCount is how many checks endChecks performs.
const endCheckCount = 3

// ckptTimes is what the checkpoint round trip measured.
type ckptTimes struct{ write, restore, bytes float64 }

// endChecks verifies the final solver state after the timed loop and
// returns the failed checks (meaningful on rank 0). Collective.
//
//   - the velocity at every collocation point of every mode is finite;
//   - its relative divergence is under divTol;
//   - a checkpoint written now and resumed into a fresh workload restores
//     bit for bit: the fresh workload rewrites the same shard checksums
//     and prints the same status line.
//
// With ck non-nil the checkpoint write and restore are timed.
func endChecks(c *mpi.Comm, wl core.Workload, cfg core.Config, scratch string, ck *ckptTimes) []error {
	var errs []error
	cf, ok := wl.(core.ChannelFlow)
	if !ok {
		return []error{fmt.Errorf("workload %s has no channel state to check", wl.WorkloadName())}
	}
	div, ok := divergence(c, cf.ChannelSolver())
	if !ok {
		errs = append(errs, fmt.Errorf("velocity field holds a non-finite value"))
	}
	if !(div <= divTol) {
		errs = append(errs, fmt.Errorf("relative divergence %.3g above %g", div, divTol))
	}
	if err := checkpointRoundTrip(c, wl, cfg, scratch, ck); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// divergence returns max |i kx u + dv/dy + i kz w| over the locally owned
// modes and collocation points, relative to the largest |k||u| or |dv/dy|,
// and whether every velocity value it saw was finite. Collective.
func divergence(c *mpi.Comm, s *core.Solver) (float64, bool) {
	num, den, bad := 0.0, 0.0, 0.0
	for ikx := 0; ikx < s.G.NKx(); ikx++ {
		for ikz := 0; ikz < s.G.Nz; ikz++ {
			if (ikx == 0 && ikz == 0) || s.G.IsNyquistZ(ikz) {
				continue
			}
			u, _, w := s.ModeVelocityValues(ikx, ikz)
			if u == nil {
				continue // not owned by this rank
			}
			_, vy, _ := s.ModeVelocityGradValues(ikx, ikz)
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			for i := range u {
				if !finite(real(u[i]), imag(u[i]), real(w[i]), imag(w[i]), real(vy[i]), imag(vy[i])) {
					bad = 1
				}
				d := complex(0, kx)*u[i] + vy[i] + complex(0, kz)*w[i]
				num = max(num, cmplx.Abs(d))
				den = max(den, math.Hypot(kx, kz)*math.Max(cmplx.Abs(u[i]), cmplx.Abs(w[i])), cmplx.Abs(vy[i]))
			}
		}
	}
	r := mpi.Allreduce(c, mpi.OpMax, []float64{num, den, bad})
	if r[1] == 0 {
		return 0, r[2] == 0
	}
	return r[0] / r[1], r[2] == 0
}

// checkpointRoundTrip writes a checkpoint of wl, resumes it into a fresh
// workload on the same world, writes that one too, and compares.
func checkpointRoundTrip(c *mpi.Comm, wl core.Workload, cfg core.Config, scratch string, ck *ckptTimes) error {
	dirA := filepath.Join(scratch, "roundtrip-a")
	dirB := filepath.Join(scratch, "roundtrip-b")
	defer func() {
		c.Barrier()
		if c.Rank() == 0 {
			os.RemoveAll(dirA)
			os.RemoveAll(dirB)
		}
	}()
	storeA := wl.NewCheckpointStore(dirA, 0)
	c.Barrier()
	t0 := time.Now()
	_, errW := wl.WriteCheckpoint(storeA)
	c.Barrier()
	t1 := time.Now()
	if errW != nil {
		return fmt.Errorf("checkpoint write: %w", errW)
	}
	cfg.Telemetry, cfg.Trace = nil, nil
	fresh, err := core.NewWorkload(c, cfg)
	if err != nil {
		return fmt.Errorf("checkpoint round trip: %w", err)
	}
	c.Barrier()
	t2 := time.Now()
	_, errR := fresh.ResumeLatest(fresh.NewCheckpointStore(dirA, 0))
	c.Barrier()
	t3 := time.Now()
	if errR != nil {
		return fmt.Errorf("checkpoint resume: %w", errR)
	}
	storeB := fresh.NewCheckpointStore(dirB, 0)
	if _, err := fresh.WriteCheckpoint(storeB); err != nil {
		return fmt.Errorf("checkpoint rewrite: %w", err)
	}
	lineA, lineB := wl.StatusLine(), fresh.StatusLine()
	if c.Rank() != 0 {
		return nil
	}
	_, mA, err := storeA.Latest()
	if err != nil {
		return err
	}
	if ck != nil {
		ck.write, ck.restore = t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds()
		for _, sh := range mA.Shards {
			ck.bytes += float64(sh.Bytes)
		}
	}
	if lineA != lineB {
		return fmt.Errorf("resumed status %q differs from %q", lineB, lineA)
	}
	return sameShards(storeA, storeB)
}

// sameShards compares the newest checkpoints of two stores: same run
// position, same shard sizes and checksums.
func sameShards(a, b *ckpt.Store) error {
	_, ma, err := a.Latest()
	if err != nil {
		return err
	}
	_, mb, err := b.Latest()
	if err != nil {
		return err
	}
	if ma.Step != mb.Step || ma.Time != mb.Time || ma.Dt != mb.Dt || len(ma.Shards) != len(mb.Shards) {
		return fmt.Errorf("checkpoints differ: step %d/%d time %v/%v dt %v/%v shards %d/%d",
			ma.Step, mb.Step, ma.Time, mb.Time, ma.Dt, mb.Dt, len(ma.Shards), len(mb.Shards))
	}
	for i := range ma.Shards {
		if ma.Shards[i].CRC32C != mb.Shards[i].CRC32C || ma.Shards[i].Bytes != mb.Shards[i].Bytes {
			return fmt.Errorf("checkpoint shard %d differs: crc %s/%s bytes %d/%d", i,
				ma.Shards[i].CRC32C, mb.Shards[i].CRC32C, ma.Shards[i].Bytes, mb.Shards[i].Bytes)
		}
	}
	return nil
}

// prefixCheckpoint stores the state right after warm-up, the prefix the
// reference checks compare. Collective.
func prefixCheckpoint(c *mpi.Comm, wl core.Workload, dir string) {
	if _, err := wl.WriteCheckpoint(wl.NewCheckpointStore(dir, 0)); err != nil && c.Rank() == 0 {
		fmt.Printf("prefix checkpoint: %v\n", err)
	}
}

// prefixChecks compares the workload's warm-up prefix, resumed from its
// checkpoint into a 1-rank chan workload, against references computed
// on one rank:
//
//   - the same prefix run with the general pivoted banded solver in place
//     of the compact one must agree to refTol (an independent solve
//     catches a wrong compact solve; rounding differences pass);
//   - on a multi-rank workload, the prefix run on one rank over the chan
//     transport with the overlap off must match bit for bit (the pinned
//     cross-rank, cross-transport invariant): both write identical
//     checkpoint shards.
func prefixChecks(res *result, sp solverSpec, seed int64, prefixDir string) {
	cfg := sp.config()
	cfg.PA, cfg.PB, cfg.Overlap = 1, 1, false
	defer func() {
		for _, suffix := range []string{"", "-ref", "-resharded"} {
			os.RemoveAll(prefixDir + suffix)
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		build := func(cfg core.Config) core.Workload {
			wl, err := core.NewWorkload(c, cfg)
			if err != nil {
				res.check(false, fmt.Sprintf("prefix reference: %v", err))
				return nil
			}
			return wl
		}
		re := build(cfg)
		if re == nil {
			return
		}
		if _, err := re.ResumeLatest(re.NewCheckpointStore(prefixDir, 0)); err != nil {
			res.check(false, fmt.Sprintf("prefix resume: %v", err))
			return
		}
		gcfg := cfg
		gcfg.UseGeneralSolver = true
		gen := build(gcfg)
		if gen == nil {
			return
		}
		gen.InitDefault(perturbAmp, seed)
		gen.Advance(warmSteps)
		diff := velocityDiff(re.(core.ChannelFlow).ChannelSolver(), gen.(core.ChannelFlow).ChannelSolver())
		res.check(diff <= refTol, fmt.Sprintf("warm-up prefix differs from the general-solver reference by %.3g (tolerance %g)", diff, refTol))
		if sp.ranks() == 1 {
			return
		}
		ref := build(cfg)
		if ref == nil {
			return
		}
		ref.InitDefault(perturbAmp, seed)
		ref.Advance(warmSteps)
		refStore := ref.NewCheckpointStore(prefixDir+"-ref", 0)
		reStore := re.NewCheckpointStore(prefixDir+"-resharded", 0)
		_, err1 := ref.WriteCheckpoint(refStore)
		_, err2 := re.WriteCheckpoint(reStore)
		err := errors.Join(err1, err2)
		if err == nil {
			err = sameShards(refStore, reStore)
		}
		res.check(err == nil, fmt.Sprintf("%d-rank %s trajectory differs from the 1-rank chan run: %v", sp.ranks(), sp.transport(), err))
	})
}

// velocityDiff returns the largest difference between the velocity
// values of two 1-rank channel solvers over every mode and collocation
// point, relative to the largest velocity value.
func velocityDiff(a, b *core.Solver) float64 {
	num, den := 0.0, 0.0
	for ikx := 0; ikx < a.G.NKx(); ikx++ {
		for ikz := 0; ikz < a.G.Nz; ikz++ {
			ua, va, wa := a.ModeVelocityValues(ikx, ikz)
			ub, vb, wb := b.ModeVelocityValues(ikx, ikz)
			for i := range ua {
				for _, p := range [][2]complex128{{ua[i], ub[i]}, {va[i], vb[i]}, {wa[i], wb[i]}} {
					num = max(num, cmplx.Abs(p[0]-p[1]))
					den = max(den, cmplx.Abs(p[0]))
				}
			}
		}
	}
	if !finite(num, den) {
		return math.Inf(1)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// rssSampler records the process's resident set (VmRSS) every
// rssInterval until stop, which returns the largest sample in MiB. It
// starts with the heap freed back to the OS, so set-up garbage does not
// count toward the measured peak.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

const rssInterval = 20 * time.Millisecond

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMiB()
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMiB())
			case <-s.quit:
				s.done <- max(peak, rssMiB())
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.done
}

// rssMiB returns the process's current resident set in MiB, or 0 where
// /proc is unavailable.
func rssMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
