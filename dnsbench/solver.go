package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// solverSpec is one solver workload: the channel physics at a grid, on a
// process grid over one transport. Ranks run single-threaded, so a
// workload never keeps more than two threads busy.
type solverSpec struct {
	nx, ny, nz int
	pa, pb     int
	tcp        bool
	overlap    bool
	// setups is how many times a run brings the world up; setup_s is
	// their median and the last one carries the timed loop.
	setups int
}

// channel-serial: one rank, no wire; x and z pad to 72 = 2^3*3^2 (the
// radix-3 FFT path) and the ~190 MiB heap exceeds the last-level cache.
var channelSerial = solverSpec{nx: 48, ny: 65, nz: 48, pa: 1, pb: 1, setups: 3}

// channel-tcp: two ranks over real localhost sockets with the pipelined
// transpose/FFT overlap; per-rank kernel work halves and the heap fits in
// cache, so wire and transpose changes show here.
var channelTCP = solverSpec{nx: 32, ny: 33, nz: 32, pa: 2, pb: 1, tcp: true, overlap: true, setups: 5}

const (
	reTau      = 180
	fixedDt    = 5e-4
	perturbAmp = 0.3
	// warmSteps run inside set-up: the first step builds the operator
	// cache and workspace arena, the second is already steady.
	warmSteps = 2
	// allocSteps is the step window of the allocation and wire counts
	// (longer on several ranks, where the count is rounded per step).
	allocSteps, allocStepsMulti = 2, 6
	// traceCapacity is the flight recorder's per-rank ring: room for the
	// ~110 events per rank and step of channel-tcp over a traced half of a
	// minute or more, so the summary sees every step.
	traceCapacity = 1 << 17
	// Output-check tolerances. The boundary-condition residual, the
	// relative divergence and the relative distance to the general-solver
	// reference sit at 1e-16..1e-13 for a correct state, so a last-bit
	// kernel change passes and a wrong solve (an error of 1e-6 in one
	// coefficient already fails the reference) does not.
	bcTol  = 1e-9
	divTol = 1e-9
	refTol = 1e-9
)

func (sp solverSpec) ranks() int { return sp.pa * sp.pb }

func (sp solverSpec) config() core.Config {
	return core.Config{Nx: sp.nx, Ny: sp.ny, Nz: sp.nz, ReTau: reTau, Dt: fixedDt, Forcing: 1,
		PA: sp.pa, PB: sp.pb, Overlap: sp.overlap}
}

func (sp solverSpec) probeShape() probeShape {
	return probeShape{nx: sp.nx, ny: sp.ny, nz: sp.nz, pa: sp.pa, pb: sp.pb, tcp: sp.tcp, overlap: sp.overlap}
}

func (sp solverSpec) transport() string {
	if sp.tcp {
		return "tcp"
	}
	return "chan"
}

// world runs fn on every rank of the workload's world.
func (sp solverSpec) world(fn func(c *mpi.Comm)) {
	if sp.tcp {
		mpi.RunTCP(sp.ranks(), fn)
	} else {
		mpi.Run(sp.ranks(), fn)
	}
}

// icSeed derives the initial-condition seed the program receives from the
// benchmark seed.
func icSeed(seed int64) int64 { return rand.New(rand.NewSource(seed)).Int63n(1<<31) + 1 }

// setupTimes is what one world bring-up measured.
type setupTimes struct {
	total, rendezvous, construct, warmup float64
}

// setUp brings the world up, builds the workload, seeds it and warms it
// to steady state, timing each part; then it runs body (if any) on every
// rank before the world is torn down. rendezvous and construct are the
// slowest rank's times.
func setUp(sp solverSpec, cfg core.Config, seed int64, rec *spans, body func(c *mpi.Comm, wl core.Workload)) (setupTimes, error) {
	n := sp.ranks()
	enter := make([]float64, n)
	construct := make([]float64, n)
	errs := make([]error, n)
	var st setupTimes
	runtime.GC()
	debug.FreeOSMemory()
	sid := rec.begin("setup", 0, "")
	t0 := time.Now()
	sp.world(func(c *mpi.Comm) {
		r := c.Rank()
		t1 := time.Now()
		enter[r] = t1.Sub(t0).Seconds()
		rec.add("mpi.bringup", sid, "rank "+strconv.Itoa(r), t0, t1)
		wl, err := core.NewWorkload(c, cfg)
		t2 := time.Now()
		rec.add("core.NewWorkload", sid, "rank "+strconv.Itoa(r), t1, t2)
		construct[r] = t2.Sub(t1).Seconds()
		if err != nil {
			errs[r] = err
			return
		}
		wl.InitDefault(perturbAmp, seed)
		t3 := time.Now()
		wl.Advance(warmSteps)
		c.Barrier()
		t4 := time.Now()
		if r == 0 {
			rec.add("core.InitDefault", sid, "", t2, t3)
			rec.add("core.warmup", sid, "", t3, t4)
			st.warmup = t4.Sub(t3).Seconds()
			st.total = t4.Sub(t0).Seconds()
			rec.end(sid)
		}
		if body != nil {
			body(c, wl)
		}
	})
	for _, err := range errs {
		if err != nil {
			return st, fmt.Errorf("constructing %s workload: %w", cfg.Workload, err)
		}
	}
	st.rendezvous = slices.Max(enter)
	st.construct = slices.Max(construct)
	return st, nil
}

// loopData is what the timed loop leaves behind. A "job" on a solver
// workload is one status interval: an RK3 step followed by the collective
// status line and its check — the unit dnsserve streams one status event
// for at its default cadence.
type loopData struct {
	steps        [][]float64 // per rank, seconds of each StepOnce
	jobs, firsts []float64   // rank 0: interval wall time, time to its status line
	wall         float64
	badLines     []string
}

// alignedSteps returns the per-step time of the slowest rank.
func (d *loopData) alignedSteps() []float64 {
	out := append([]float64(nil), d.steps[0]...)
	for _, rs := range d.steps[1:] {
		for i := range out {
			out[i] = max(out[i], rs[i])
		}
	}
	return out
}

func (d *loopData) stepsPerSecond() float64 { return float64(len(d.steps[0])) / d.wall }

// timedLoop runs status intervals until seconds have passed on rank 0,
// which broadcasts the stop decision so every rank takes the same steps.
func timedLoop(c *mpi.Comm, wl core.Workload, seconds float64, d *loopData, rec *spans, parent int) {
	r := c.Rank()
	steps := make([]float64, 0, 1<<15)
	cont := []int{1}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for cont[0] == 1 {
		t0 := time.Now()
		wl.StepOnce()
		t1 := time.Now()
		steps = append(steps, t1.Sub(t0).Seconds())
		line := wl.StatusLine()
		t2 := time.Now()
		if r == 0 {
			if err := checkStatusLine(line, wl.CurrentStep()); err != nil {
				d.badLines = append(d.badLines, err.Error())
			}
			cont[0] = 0
			if t2.Before(deadline) {
				cont[0] = 1
			}
		}
		cont = mpi.Bcast(c, 0, cont)
		if r == 0 {
			d.jobs = append(d.jobs, time.Since(t0).Seconds())
			d.firsts = append(d.firsts, t2.Sub(t0).Seconds())
		}
		if rec != nil {
			key := fmt.Sprintf("rank %d step %d", r, wl.CurrentStep())
			rec.add("core.StepOnce", parent, key, t0, t1)
			rec.add("core.StatusLine", parent, key, t1, t2)
		}
	}
	d.steps[r] = steps
	if r == 0 {
		d.wall = time.Since(start).Seconds()
	}
}

// checkStatusLine verifies a channel status line: the step it reports,
// finite energy, friction and bulk velocity, and a boundary-condition
// residual under bcTol.
func checkStatusLine(line string, step int) error {
	fields := map[string]string{}
	parts := strings.Fields(line)
	for i, p := range parts {
		if k, v, ok := strings.Cut(p, "="); ok {
			if v == "" && i+1 < len(parts) {
				v = parts[i+1] // "t=  0.0060" splits after the '='
			}
			fields[k] = v
		}
	}
	if len(parts) < 2 || parts[1] != strconv.Itoa(step) {
		return fmt.Errorf("status line %q: want step %d", line, step)
	}
	for _, k := range []string{"E", "u_tau", "Ub", "BCres"} {
		v, err := strconv.ParseFloat(fields[k], 64)
		if err != nil || !finite(v) {
			return fmt.Errorf("status line %q: %s is not a finite number", line, k)
		}
		if k == "BCres" && v > bcTol {
			return fmt.Errorf("status line %q: BC residual above %g", line, bcTol)
		}
	}
	return nil
}

// runSolver runs a solver workload. Untraced, it sets the world up
// sp.setups times and measures the closed step loop in the last one.
func runSolver(rc runConfig, sp solverSpec) (*result, error) {
	res := newResult()
	seed := icSeed(rc.seed)
	fmt.Printf("grid %dx%dx%d, %d rank(s) %dx%d over %s, overlap=%v, initial-condition seed %d\n",
		sp.nx, sp.ny, sp.nz, sp.ranks(), sp.pa, sp.pb, sp.transport(), sp.overlap, seed)
	cfg := sp.config()
	prefixDir := filepath.Join(rc.scratch, "prefix")
	if !rc.traced {
		var setupS []float64
		var d *loopData
		var peak float64
		var checks []error
		for i := 0; i < sp.setups; i++ {
			var body func(c *mpi.Comm, wl core.Workload)
			if i == sp.setups-1 {
				d = &loopData{steps: make([][]float64, sp.ranks())}
				body = func(c *mpi.Comm, wl core.Workload) {
					prefixCheckpoint(c, wl, prefixDir)
					c.Barrier()
					var rss *rssSampler
					if c.Rank() == 0 {
						rss = startRSS()
					}
					c.Barrier()
					timedLoop(c, wl, rc.seconds, d, nil, 0)
					if c.Rank() == 0 {
						peak = rss.stop()
					}
					errs := endChecks(c, wl, cfg, rc.scratch, nil)
					if c.Rank() == 0 {
						checks = errs
					}
				}
			}
			st, err := setUp(sp, cfg, seed, nil, body)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, st.total)
		}
		recordLoop(res, d, checks)
		prefixChecks(res, sp, seed, prefixDir)
		if err := runProbes(res, sp.probeShape(), nil, false); err != nil {
			return nil, err
		}
		res.values["setup_s"] = median(setupS)
		res.values["peak_rss_mib"] = peak
		fmt.Printf("setup_s samples: %v\n", setupS)
		return res, nil
	}

	return runSolverTraced(rc, sp, res, seed, prefixDir)
}

// runSolverTraced measures the loop untraced for half the time, as the
// reference for the tracing overhead, and traced for the other half, then
// reads the per-layer numbers from the telemetry snapshot, the trace
// summary, a counted step window, the checkpoint round trip and the
// kernel probes.
func runSolverTraced(rc runConfig, sp solverSpec, res *result, seed int64, prefixDir string) (*result, error) {
	cfg := sp.config()
	ref := &loopData{steps: make([][]float64, sp.ranks())}
	if _, err := setUp(sp, cfg, seed, nil, func(c *mpi.Comm, wl core.Workload) {
		timedLoop(c, wl, rc.seconds/2, ref, nil, 0)
	}); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	trc := trace.New(traceCapacity)
	tcfg := cfg
	tcfg.Telemetry, tcfg.Trace = reg, trc
	d := &loopData{steps: make([][]float64, sp.ranks())}
	var snap telemetry.Snapshot
	var allocs, wireBytes, wireMsgs float64
	var ck ckptTimes
	var checks []error
	st, err := setUp(sp, tcfg, seed, rc.spans, func(c *mpi.Comm, wl core.Workload) {
		prefixCheckpoint(c, wl, prefixDir)
		c.Barrier()
		if c.Rank() == 0 {
			reg.Reset() // drop set-up samples
		}
		c.Barrier()
		lid := rc.spans.begin("timed_loop", 0, "")
		timedLoop(c, wl, rc.seconds/2, d, rc.spans, lid)
		c.Barrier()
		if c.Rank() == 0 {
			rc.spans.end(lid)
			snap = reg.Snapshot()
		}
		a, wb, wm := countStepWindow(c, wl, rc.spans)
		errs := endChecks(c, wl, cfg, rc.scratch, &ck)
		if c.Rank() == 0 {
			allocs, wireBytes, wireMsgs, checks = a, wb, wm, errs
		}
	})
	if err != nil {
		return nil, err
	}
	recordLoop(res, d, checks)
	prefixChecks(res, sp, seed, prefixDir)
	v := res.values
	stepsPerRank := float64(snap.Steps) / float64(max(snap.Ranks, 1))
	phase := func(p telemetry.Phase) *telemetry.PhaseStats {
		for i := range snap.Phases {
			if snap.Phases[i].Phase == p.String() {
				return &snap.Phases[i]
			}
		}
		return &telemetry.PhaseStats{}
	}
	perStep := func(p telemetry.Phase) float64 { return phase(p).MeanRankSeconds / stepsPerRank }
	v["fft.forward_s"] = perStep(telemetry.PhaseFFTForward)
	v["fft.inverse_s"] = perStep(telemetry.PhaseFFTInverse)
	v["banded.viscous_solve_s"] = perStep(telemetry.PhaseViscousSolve)
	v["banded.pressure_s"] = perStep(telemetry.PhasePressure)
	v["pencil.transpose_s"] = perStep(telemetry.PhaseTransposeAB)
	v["pencil.imbalance"] = phase(telemetry.PhaseTransposeAB).Imbalance
	v["core.nonlinear_s"] = perStep(telemetry.PhaseNonlinear)
	var tBytes, tCalls int64
	for _, cs := range snap.Comm {
		if cs.Op != telemetry.CommCollective.String() && cs.Op != telemetry.CommCheckpoint.String() {
			tBytes += cs.Bytes
			tCalls += cs.Calls
		}
	}
	v["pencil.bytes_per_step"] = float64(tBytes) / stepsPerRank
	v["pencil.calls_per_step"] = float64(tCalls) / stepsPerRank
	v["mpi.wire_bytes_per_step"] = wireBytes
	v["mpi.wire_msgs_per_step"] = wireMsgs
	v["mpi.rendezvous_s"] = st.rendezvous
	v["core.allocs_per_step"] = allocs
	flopsPerStep := float64(snap.Flops) / float64(max(snap.Steps, 1))
	v["core.flops_per_step"] = flopsPerStep
	v["core.gflops"] = flopsPerStep * stepsPerRank / d.wall / 1e9
	v["core.construct_s"] = st.construct
	v["core.warmup_s"] = st.warmup
	cover := snap.PhaseSecondsSum() / snap.MeanStepSeconds
	v["core.phase_cover_frac"] = cover
	if sp.ranks() == 1 {
		// A serial step is tiled by its leaf phases: the repository's
		// acceptance bound is 10% of the step time.
		res.check(math.Abs(cover-1) <= 0.1, fmt.Sprintf("leaf phases cover %.3f of the traced step time (want within 10%%)", cover))
	}
	v["ckpt.write_s"] = ck.write
	v["ckpt.restore_s"] = ck.restore
	v["ckpt.bytes"] = ck.bytes
	v["ckpt.writes_per_job"] = 0
	sum := trace.Summarize(trc)
	nsteps := float64(max(len(sum.Steps), 1))
	slack := 0.0
	for _, s := range sum.RankSlackSeconds {
		slack += s
	}
	v["mpi.rank_slack_s"] = slack / nsteps
	v["trace.events_per_step"] = float64(sum.Events) / nsteps
	v["trace.dropped"] = float64(sum.Dropped)
	v["trace.overhead_frac"] = 1 - d.stepsPerSecond()/ref.stepsPerSecond()
	fmt.Printf("traced %.4g steps/s vs untraced %.4g steps/s\n", d.stepsPerSecond(), ref.stepsPerSecond())
	for _, name := range []string{"server.submit_s", "server.queue_wait_s", "server.first_step_s", "server.finish_s",
		"server.report_get_s", "server.metrics_scrape_s", "server.events_per_job", "server.dropped_watchers",
		"server.step_s_channel", "server.step_s_isotropic", "server.step_s_scalar"} {
		v[name] = 0 // no service on the path
	}
	if err := runProbes(res, sp.probeShape(), rc.spans, true); err != nil {
		return nil, err
	}
	return res, nil
}

// recordLoop turns the timed loop into metrics and counts its checks.
func recordLoop(res *result, d *loopData, endErrs []error) {
	aligned := d.alignedSteps()
	res.values["steps_per_s"] = d.stepsPerSecond()
	res.values["jobs_per_s"] = float64(len(d.jobs)) / d.wall
	res.latency("step_s", aligned)
	res.latency("job_s", d.jobs)
	res.latency("first_status_s", d.firsts)
	fmt.Printf("timed %d steps in %.3fs\n", len(aligned), d.wall)
	res.attempted += len(d.jobs)
	res.failed += len(d.badLines)
	for _, l := range d.badLines {
		fmt.Printf("CHECK FAILED: %s\n", l)
	}
	for _, err := range endErrs {
		res.check(false, err.Error())
	}
	res.attempted += endCheckCount - len(endErrs)
}

// countStepWindow counts, over allocSteps steps, the process-wide heap
// allocations per step and the wire bytes and frames all ranks sent per
// step. Rank 0 reads the allocation counter with every rank parked at a
// barrier; a barrier-only window of the same shape is subtracted, and on
// more than one rank the result is rounded to the whole count per step
// (the barriers' own allocations can land either side of a read).
func countStepWindow(c *mpi.Comm, wl core.Workload, rec *spans) (allocs, wireBytes, wireMsgs float64) {
	var m0, m1, b0, b1 runtime.MemStats
	r := c.Rank()
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&m0)
	}
	c.Barrier()
	k := allocSteps
	if c.Size() > 1 {
		k = allocStepsMulti
	}
	w0, _ := c.WireStats()
	t0 := time.Now()
	wl.Advance(k)
	t1 := time.Now()
	w1, _ := c.WireStats()
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&m1)
		rec.add("core.Advance(count window)", 0, "", t0, t1)
	}
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&b0)
	}
	c.Barrier()
	c.Barrier()
	if r == 0 {
		runtime.ReadMemStats(&b1)
	}
	var bytes, msgs int64
	for p := range w1.Peers {
		bytes += w1.Peers[p].BytesOut - w0.Peers[p].BytesOut
		msgs += w1.Peers[p].FramesOut - w0.Peers[p].FramesOut
	}
	tot := mpi.Allreduce(c, mpi.OpSum, []int64{bytes, msgs})
	win := float64(int64(m1.Mallocs-m0.Mallocs)-int64(b1.Mallocs-b0.Mallocs)) / float64(k)
	if c.Size() > 1 {
		win = math.Round(win)
	}
	return win, float64(tot[0]) / float64(k), float64(tot[1]) / float64(k)
}
