package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"channeldns/internal/server"
	"channeldns/internal/telemetry"
)

// serve-mix: an in-process job server with one worker, driven over HTTP
// by two closed-loop clients on one keep-alive connection each, so one
// job always waits in the queue. Each client submits a job, follows its
// SSE stream to the end event, fetches its report and scrapes /metrics.

const (
	serveClients = 2
	jobSteps     = 20
	jobCkptEvery = 10
	// serveSetups: a server starts in about a millisecond, so set-up is
	// repeated more often than a solver world's to steady its median.
	serveSetups = 101
)

// jobKinds are the three job types, in equal shares of the sequence.
var jobKinds = []server.JobSpec{
	{Workload: "channel", Nx: 16, Ny: 17, Nz: 16, Steps: jobSteps, CkptEvery: jobCkptEvery, Threads: 2, Overlap: true},
	{Workload: "isotropic", Nx: 16, Ny: 16, Nz: 16, Steps: jobSteps, CkptEvery: jobCkptEvery, PA: 2},
	{Workload: "scalar", Nx: 16, Ny: 17, Nz: 16, Steps: jobSteps, CkptEvery: jobCkptEvery},
}

// jobSequence generates the job sequence from the seed: the kinds cycle
// in the order of jobKinds from a seeded first kind, every job with its
// own IC seed. The one worker runs the jobs in sequence order and each
// waits for the one before it, so a job's latency is about the run time
// of the previous job plus its own. The fixed cycle gives every run the
// same (previous, own) pairs of kinds in equal shares; a shuffled order,
// or a cycle whose direction depends on the seed, would let the latency
// medians jump between the pairs' modes from seed to seed.
func jobSequence(seed int64, n int) []server.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(len(jobKinds))
	seq := make([]server.JobSpec, n)
	for i := range seq {
		seq[i] = jobKinds[(first+i)%len(jobKinds)]
		seq[i].Seed = rng.Int63n(1<<31) + 1
	}
	return seq
}

// jobRecord is what one client learned about one job. Times are seconds
// from the start of its POST.
type jobRecord struct {
	kind                         string
	ok                           bool
	why                          string
	submit, firstStatus, end     float64
	queueWait, firstStep, finish float64
	reportGet, metricsScrape     float64
	events, dropped              int
	checkpoints                  map[string]bool
	stepSeconds                  []float64
	rep                          *telemetry.Report
	lastStepStatus               time.Time
}

type serveServer struct {
	srv   *server.Server
	base  string
	done  chan error
	setup float64
}

// startServer times server.New (which recovers the store), Listen and
// the first answered /healthz.
func startServer(dir string) (*serveServer, error) {
	t0 := time.Now()
	srv, err := server.New(dir, server.Options{Parallel: 1})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveServer{srv: srv, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("server at %s never answered /healthz", addr)
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(t0).Seconds()
	return s, nil
}

// stop drains the server and waits for its HTTP loop to return.
func (s *serveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.srv.Close(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// driveJobs runs the closed client loops until seconds have passed and
// every client has finished its current job.
func driveJobs(base string, seq []server.JobSpec, next *atomic.Int64, seconds float64, traced bool, rec *spans) ([]jobRecord, float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var all []jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				spec := seq[int(i)%len(seq)]
				spec.Trace = traced
				jr := runJob(client, base, spec, rec, fmt.Sprintf("job %d", i))
				mu.Lock()
				all = append(all, jr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all, time.Since(start).Seconds()
}

// runJob submits one job and follows it to its report, recording the
// client-side timings and every reason the job counts as failed.
func runJob(client *http.Client, base string, spec server.JobSpec, rec *spans, key string) (jr jobRecord) {
	jr.kind = spec.Workload
	jr.checkpoints = map[string]bool{}
	fail := func(format string, args ...any) jobRecord {
		jr.ok = false
		jr.why = fmt.Sprintf(format, args...)
		return jr
	}
	jid := rec.begin("job", 0, key)
	defer rec.end(jid)
	t0 := time.Now()
	since := func() float64 { return time.Since(t0).Seconds() }

	body, _ := json.Marshal(spec) // a JobSpec always marshals
	sid := rec.begin("http.submit", jid, key)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var st server.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.end(sid)
	jr.submit = since()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return fail("submit: status %d (%v)", resp.StatusCode, err)
	}
	submitted := st.Submitted

	sid = rec.begin("http.stream", jid, key)
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return fail("stream: %v", err)
	}
	final, err := readStream(resp.Body, &jr, t0, submitted)
	resp.Body.Close()
	rec.end(sid)
	jr.end = since()
	switch {
	case resp.StatusCode != http.StatusOK:
		return fail("stream: status %d", resp.StatusCode)
	case err != nil:
		return fail("stream: %v", err)
	case jr.dropped > 0:
		return fail("stream: watcher dropped")
	case final != server.StateDone:
		return fail("job ended %q", final)
	case jr.firstStatus == 0:
		return fail("no status event reported a completed step")
	}
	jr.finish = jr.end - jr.lastStepStatus.Sub(t0).Seconds()

	sid = rec.begin("http.report", jid, key)
	r0 := time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		return fail("report: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.reportGet = time.Since(r0).Seconds()
	rec.end(sid)
	if resp.StatusCode != http.StatusOK || err != nil {
		return fail("report: status %d (%v)", resp.StatusCode, err)
	}
	if jr.rep, err = telemetry.ValidateJSON(raw); err != nil {
		return fail("report does not validate: %v", err)
	}

	sid = rec.begin("http.metrics", jid, key)
	m0 := time.Now()
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return fail("metrics: %v", err)
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.metricsScrape = time.Since(m0).Seconds()
	rec.end(sid)
	if resp.StatusCode != http.StatusOK || err != nil || !strings.Contains(string(raw), "dnsserve_jobs_total") {
		return fail("metrics: status %d (%v)", resp.StatusCode, err)
	}
	jr.ok = true
	return jr
}

// readStream consumes an SSE stream to its end event and returns the
// job's last lifecycle state. It records the first status event that
// reports a completed step, the last one, the queue wait, and each step's
// wall time from the telemetry deltas (the job's cumulative mean step
// seconds, differenced).
func readStream(body io.Reader, jr *jobRecord, t0 time.Time, submitted time.Time) (string, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var typ, data, final string
	var started time.Time
	prevMean := 0.0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if typ == "" {
				continue
			}
			jr.events++
			now := time.Now()
			switch typ {
			case "end":
				return final, nil
			case "dropped":
				jr.dropped++
			case server.EventState, server.EventStatus:
				var st server.Status
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return final, fmt.Errorf("%s event: %w", typ, err)
				}
				if typ == server.EventState {
					final = st.State
					if st.Started != nil && started.IsZero() {
						started = *st.Started
						jr.queueWait = started.Sub(submitted).Seconds()
					}
				} else if st.Step >= 1 {
					if st.Checkpoint != "" {
						jr.checkpoints[st.Checkpoint] = true
					}
					if jr.firstStatus == 0 {
						jr.firstStatus = now.Sub(t0).Seconds()
						jr.firstStep = now.Sub(started).Seconds()
					}
					jr.lastStepStatus = now
				}
			case server.EventTelemetry:
				var d telemetry.SnapshotDelta
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return final, fmt.Errorf("telemetry event: %w", err)
				}
				if d.DSteps > 0 {
					jr.stepSeconds = append(jr.stepSeconds, (d.MeanStepSeconds-prevMean)/float64(d.DSteps))
					prevMean = d.MeanStepSeconds
				}
			}
			typ, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, fmt.Errorf("stream closed before its end event")
}

// runServe runs the serve-mix workload.
func runServe(rc runConfig) (*result, error) {
	res := newResult()
	seq := jobSequence(rc.seed, 3*1024)
	fmt.Printf("job sequence from seed %d: first %s(seed %d) %s(seed %d) %s(seed %d)\n", rc.seed,
		seq[0].Workload, seq[0].Seed, seq[1].Workload, seq[1].Seed, seq[2].Workload, seq[2].Seed)
	var setupS []float64
	var s *serveServer
	for i := 0; i < serveSetups; i++ {
		var err error
		s, err = startServer(filepath.Join(rc.scratch, fmt.Sprintf("store-%d", i)))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setup)
		if i < serveSetups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	// Warm-up: a tenth of the run's time in jobs that are checked but
	// not timed, so the timed jobs meet a warm heap and run store.
	var next atomic.Int64
	warm, _ := driveJobs(s.base, seq, &next, rc.seconds/10, false, nil)
	rss := startRSS()
	var jobs []jobRecord
	var wall float64
	var ref []jobRecord
	var refWall float64
	if rc.traced {
		ref, refWall = driveJobs(s.base, seq, &next, rc.seconds/2, false, nil)
		jobs, wall = driveJobs(s.base, seq, &next, rc.seconds/2, true, rc.spans)
	} else {
		jobs, wall = driveJobs(s.base, seq, &next, rc.seconds, false, nil)
	}
	peak := rss.stop()
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	var jobS, firstS, stepS []float64
	done, steps := 0, 0
	for _, j := range slices.Concat(warm, ref, jobs) {
		res.check(j.ok, fmt.Sprintf("%s job: %s", j.kind, j.why))
	}
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		done++
		steps += jobSteps
		jobS = append(jobS, j.end)
		firstS = append(firstS, j.firstStatus)
		stepS = append(stepS, j.stepSeconds...)
	}
	v := res.values
	v["steps_per_s"] = float64(steps) / wall
	v["jobs_per_s"] = float64(done) / wall
	res.latency("step_s", stepS)
	res.latency("job_s", jobS)
	res.latency("first_status_s", firstS)
	v["setup_s"] = median(setupS)
	v["peak_rss_mib"] = peak
	fmt.Printf("completed %d of %d jobs in %.3fs after %d warm-up jobs; setup_s is the median of %d set-ups (%.3g..%.3g s)\n",
		done, len(jobs), wall, len(warm), len(setupS), slices.Min(setupS), slices.Max(setupS))
	if rc.traced {
		serveLayers(res, jobs, ref, refWall, wall)
	}
	// Probe shapes: the jobs' 16x17x16 grid on the isotropic jobs' two
	// chan ranks.
	if err := runProbes(res, probeShape{nx: 16, ny: 17, nz: 16, pa: 2, pb: 1}, rc.spans, rc.traced); err != nil {
		return nil, err
	}
	return res, nil
}

// serveLayers fills the per-layer metrics of a traced serve-mix run from
// the client timings and the jobs' own reports.
func serveLayers(res *result, jobs, ref []jobRecord, refWall, wall float64) {
	v := res.values
	ok := func(js []jobRecord) (n int) {
		for _, j := range js {
			if j.ok {
				n++
			}
		}
		return n
	}
	v["trace.overhead_frac"] = 1 - (float64(ok(jobs))/wall)/(float64(ok(ref))/refWall)
	mean := func(get func(j jobRecord) float64) float64 {
		sum, n := 0.0, 0
		for _, j := range jobs {
			if j.ok {
				sum += get(j)
				n++
			}
		}
		return sum / float64(max(n, 1))
	}
	v["server.submit_s"] = mean(func(j jobRecord) float64 { return j.submit })
	v["server.queue_wait_s"] = mean(func(j jobRecord) float64 { return j.queueWait })
	v["server.first_step_s"] = mean(func(j jobRecord) float64 { return j.firstStep })
	v["server.finish_s"] = mean(func(j jobRecord) float64 { return j.finish })
	v["server.report_get_s"] = mean(func(j jobRecord) float64 { return j.reportGet })
	v["server.metrics_scrape_s"] = mean(func(j jobRecord) float64 { return j.metricsScrape })
	v["server.events_per_job"] = mean(func(j jobRecord) float64 { return float64(j.events) })
	dropped := 0
	for _, j := range append(ref, jobs...) {
		dropped += j.dropped
	}
	v["server.dropped_watchers"] = float64(dropped)
	for _, kind := range []string{"channel", "isotropic", "scalar"} {
		var xs []float64
		for _, j := range jobs {
			if j.ok && j.kind == kind {
				xs = append(xs, j.stepSeconds...)
			}
		}
		v["server.step_s_"+kind] = median(xs)
	}

	// Phase, comm, checkpoint and trace numbers from the jobs' reports,
	// per step (phase seconds are mean-rank) or per job.
	phases := map[string]float64{}
	var steps, flops, ckptBytes, events, dropEvents, traceSteps, transBytes, transCalls float64
	var ckptSeconds, slack, ckptWrites, imbalance, imbalanceJobs float64
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		ckptWrites += float64(len(j.checkpoints))
		rep := j.rep
		perRank := float64(rep.Steps) / float64(max(rep.Ranks, 1))
		steps += perRank
		flops += float64(rep.Flops) / float64(max(rep.Ranks, 1))
		for _, p := range rep.Phases {
			phases[p.Phase] += p.MeanRankSeconds
			switch p.Phase {
			case telemetry.PhaseCheckpoint.String():
				ckptSeconds += p.MeanRankSeconds
			case telemetry.PhaseTransposeAB.String():
				imbalance += p.Imbalance
				imbalanceJobs++
			}
		}
		for _, cs := range rep.Comm {
			switch cs.Op {
			case telemetry.CommCheckpoint.String():
				ckptBytes += float64(cs.Bytes)
			case telemetry.CommCollective.String():
			default:
				transBytes += float64(cs.Bytes)
				transCalls += float64(cs.Calls)
			}
		}
		if rep.Trace != nil {
			events += float64(rep.Trace.Events)
			dropEvents += float64(rep.Trace.Dropped)
			traceSteps += float64(len(rep.Trace.Steps))
			for _, s := range rep.Trace.RankSlackSeconds {
				slack += s
			}
		}
	}
	steps = max(steps, 1)
	perStep := func(p telemetry.Phase) float64 { return phases[p.String()] / steps }
	v["fft.forward_s"] = perStep(telemetry.PhaseFFTForward)
	v["fft.inverse_s"] = perStep(telemetry.PhaseFFTInverse)
	v["banded.viscous_solve_s"] = perStep(telemetry.PhaseViscousSolve)
	v["banded.pressure_s"] = perStep(telemetry.PhasePressure)
	v["pencil.transpose_s"] = perStep(telemetry.PhaseTransposeAB)
	v["core.nonlinear_s"] = perStep(telemetry.PhaseNonlinear)
	v["pencil.bytes_per_step"] = transBytes / steps
	v["pencil.calls_per_step"] = transCalls / steps
	v["pencil.imbalance"] = imbalance / max(imbalanceJobs, 1)
	v["core.flops_per_step"] = flops / steps
	v["core.gflops"] = flops / wall / 1e9
	phaseSum := 0.0
	for name, s := range phases {
		if name != telemetry.PhaseCheckpoint.String() {
			phaseSum += s
		}
	}
	stepSum := 0.0
	for _, j := range jobs {
		if j.ok {
			for _, s := range j.stepSeconds {
				stepSum += s
			}
		}
	}
	v["core.phase_cover_frac"] = phaseSum / max(stepSum, 1e-12)
	n := float64(max(ok(jobs), 1))
	v["ckpt.writes_per_job"] = ckptWrites / n
	v["ckpt.write_s"] = ckptSeconds / max(ckptWrites, 1)
	v["ckpt.bytes"] = ckptBytes / max(ckptWrites, 1)
	v["ckpt.restore_s"] = 0 // no job resumes in this workload
	v["trace.events_per_step"] = events / max(traceSteps, 1)
	v["trace.dropped"] = dropEvents
	v["mpi.rank_slack_s"] = slack / max(traceSteps, 1)
	// In-process chan worlds: no wire, no rendezvous, no exact per-step
	// allocation window (jobs share the process with the HTTP side).
	for _, name := range []string{"mpi.wire_bytes_per_step", "mpi.wire_msgs_per_step", "mpi.rendezvous_s",
		"core.allocs_per_step", "core.construct_s", "core.warmup_s"} {
		v[name] = 0
	}
}
