package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step): every workload prints every end-to-end metric in an untraced run
// and every per-layer metric in a traced run.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"steps_per_s", "1/s"},
	{"step_s_p50", "s"},
	{"step_s_tail", "s"},
	{"jobs_per_s", "1/s"},
	{"job_s_p50", "s"},
	{"job_s_tail", "s"},
	{"first_status_s_p50", "s"},
	{"first_status_s_tail", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"ok_frac", "frac"},
}

var perLayer = []metricDef{
	{"fft.forward_s", "s"},
	{"fft.inverse_s", "s"},
	{"fft.kernel_real_s", "s"},
	{"fft.kernel_complex_s", "s"},
	{"fft.kernel_gflops", "GFLOP/s"},
	{"fft.kernel_flops_computed", "count"},
	{"fft.kernel_bytes_computed", "B"},
	{"banded.viscous_solve_s", "s"},
	{"banded.pressure_s", "s"},
	{"banded.kernel_solve_s", "s"},
	{"banded.kernel_mulvec_s", "s"},
	{"banded.kernel_flops_computed", "count"},
	{"banded.kernel_bytes_computed", "B"},
	{"pencil.transpose_s", "s"},
	{"pencil.bytes_per_step", "B"},
	{"pencil.calls_per_step", "count"},
	{"pencil.imbalance", "ratio"},
	{"parfft.cycle_s", "s"},
	{"parfft.cycle_bytes", "B"},
	{"parfft.cycle_flops_computed", "count"},
	{"mpi.wire_bytes_per_step", "B"},
	{"mpi.wire_msgs_per_step", "count"},
	{"mpi.rank_slack_s", "s"},
	{"mpi.rendezvous_s", "s"},
	{"core.nonlinear_s", "s"},
	{"core.allocs_per_step", "count"},
	{"core.flops_per_step", "count"},
	{"core.gflops", "GFLOP/s"},
	{"core.construct_s", "s"},
	{"core.warmup_s", "s"},
	{"core.phase_cover_frac", "frac"},
	{"ckpt.write_s", "s"},
	{"ckpt.restore_s", "s"},
	{"ckpt.bytes", "B"},
	{"ckpt.writes_per_job", "count"},
	{"server.submit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.first_step_s", "s"},
	{"server.finish_s", "s"},
	{"server.report_get_s", "s"},
	{"server.metrics_scrape_s", "s"},
	{"server.events_per_job", "count"},
	{"server.dropped_watchers", "count"},
	{"server.step_s_channel", "s"},
	{"server.step_s_isotropic", "s"},
	{"server.step_s_scalar", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.events_per_step", "count"},
	{"trace.dropped", "count"},
}

// result is what one workload run hands back to main: the operation
// tally behind correct/attempted/failed and the metric values by name.
type result struct {
	attempted, failed int
	values            map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// check counts one output check; a false ok is a failed operation.
func (r *result) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("CHECK FAILED: %s\n", what)
	}
}

// tailBeyond is the sample count a tail percentile must leave above it.
const tailBeyond = 10

// median returns the middle of xs (mean of the middle two for even n);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that still has
// at least tailBeyond samples above it, with that percentile. The sample
// at sorted index i is the 100*(i+1)/n percentile and has n-1-i samples
// beyond it, so the answer is index n-1-tailBeyond. When that percentile
// would not lie above the median (fewer than 2*tailBeyond+1 samples) it
// falls back to the maximum (percentile 100), which callers print so the
// reader sees the fallback.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := n - 1 - tailBeyond
	if n < 2*tailBeyond+1 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latency records name_p50 and name_tail from samples and prints which
// percentile the tail is and how many samples stand behind it.
func (r *result) latency(name string, xs []float64) {
	v, pct := tail(xs)
	r.values[name+"_p50"] = median(xs)
	r.values[name+"_tail"] = v
	fmt.Printf("%s_tail is p%.1f of %d samples\n", name, pct, len(xs))
}

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
