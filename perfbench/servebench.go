package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/workloads"
)

// serveSpec defines the service workload.
type serveSpec struct {
	figure    string
	workloads []string
	// warmup and instrs override the server's Quick budgets when non-nil.
	warmup, instrs *uint64
	coldFills      int
	seed           int64
}

// point is one simulation point of the figure, named the way a run
// request names it.
type point struct{ workload, predictor, br string }

// figurePoints lists the Figure 10 points: the TAGE-SC-L 64KB baseline,
// the 80KB iso-storage predictor and the three Branch Runahead configs.
func (s serveSpec) figurePoints() []point {
	var ps []point
	for _, wl := range s.workloads {
		ps = append(ps,
			point{wl, "tage64", ""}, point{wl, "tage80", ""},
			point{wl, "tage64", "core-only"}, point{wl, "tage64", "mini"}, point{wl, "tage64", "big"})
	}
	return ps
}

func (s serveSpec) figureRequest() server.Request {
	return server.Request{Version: server.RequestVersion, Kind: "figure", Figure: s.figure,
		Workloads: s.workloads, Warmup: s.warmup, Instrs: s.instrs}
}

func (s serveSpec) runRequest(p point) server.Request {
	return server.Request{Version: server.RequestVersion, Kind: "run", Workload: p.workload,
		Predictor: p.predictor, BR: p.br, Warmup: s.warmup, Instrs: s.instrs}
}

// service is one in-process brserve over a cache directory, reached over
// loopback HTTP as a client would.
type service struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startService(dir string) (*service, error) {
	srv, err := server.New(server.Config{CacheDir: dir, Quick: true, MaxJobs: 2})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{srv: srv, ts: ts, hc: ts.Client()}, nil
}

// stop closes the listener, waits for in-flight requests and jobs, and
// returns once every goroutine the service started has ended.
func (s *service) stop() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.srv.Drain(ctx)
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.hc.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (s *service) status(id string) (server.Status, error) {
	var st server.Status
	b, err := s.get("/v1/jobs/" + id)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// reply is what one request returned.
type reply struct {
	body    []byte
	st      server.Status
	created bool // the submission registered a new job
	polls   int  // status reads needed after the submission
}

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCancelled
}

// do sends one request the way a client waits for a result: submit, wait on
// the job's event stream until it ends, read its status, download the body.
func (s *service) do(req server.Request) (reply, error) {
	var r reply
	b, err := json.Marshal(req)
	if err != nil {
		return r, err
	}
	resp, err := s.hc.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return r, err
	}
	b, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		r.created = true
	case http.StatusOK:
	default:
		return r, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, &r.st); err != nil {
		return r, err
	}
	for !terminal(r.st.State) {
		if _, err := s.get("/v1/jobs/" + r.st.ID + "/events"); err != nil {
			return r, err
		}
		if r.st, err = s.status(r.st.ID); err != nil {
			return r, err
		}
		r.polls++
	}
	if r.st.State != server.StateDone {
		return r, fmt.Errorf("job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	}
	r.body, err = s.get("/v1/jobs/" + r.st.ID + "/result")
	return r, err
}

// coldFill starts a service over an empty cache directory and submits the
// figure request once, which simulates every point and fills the cache.
func coldFill(spec serveSpec, dir string) (reply, time.Duration, error) {
	svc, err := startService(dir)
	if err != nil {
		return reply{}, 0, err
	}
	c0 := processCPU()
	r, err := svc.do(spec.figureRequest())
	d := processCPU() - c0
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err == nil && r.st.RunsExecuted == 0 {
		err = fmt.Errorf("cold figure request executed no simulations")
	}
	return r, d, err
}

// warmStats aggregates the closed-loop warm phase.
type warmStats struct {
	latMs   []float64 // wall-clock latency of each request
	polls   int
	created int
	cpu     time.Duration // CPU time of the whole process over the phase
}

// warmBlock is how long the warm client sends requests between two
// calibrations of the host's speed.
const warmBlock = 250 * time.Millisecond

// warmPhase runs one closed-loop client against a fresh service over the
// filled cache until the deadline. The client draws a seeded mix: mostly
// run requests for the figure's points (a disk-cache hit the first time a
// point is asked for, a registry hit after), plus repeats of the figure
// request. Every reply must be done, must have executed no simulation, and
// must repeat the bytes first seen for its request; the figure's must equal
// the cold fill's. One client, not one per CPU: more would saturate the
// host, and queueing behind each other doubles the run-to-run spread of the
// latencies. The phase runs with GOMAXPROCS 1, so client and server
// goroutines hand over on one thread. With more, each hand-over can wake
// an idle virtual CPU, which costs the hypervisor's wake-up latency: that
// put more than a tenth of the requests past 0.3 ms, twice the median, and
// the 90th percentile moved by a quarter between runs. Latency is wall-clock time, as the client sees
// it; a request is too short for the CPU clock (see measure.go). The client
// samples the host's speed every warmBlock (see calib.go).
func warmPhase(spec serveSpec, dir string, coldBody []byte, deadline time.Time, cal *calibrator, rep *report) (warmStats, map[point][]byte, error) {
	var ws warmStats
	svc, err := startService(dir)
	if err != nil {
		return ws, nil, err
	}
	points := spec.figurePoints()
	bodies := map[point][]byte{}
	check := func(p *point, r reply) error {
		if r.st.RunsExecuted != 0 {
			return fmt.Errorf("warm request %+v executed %d simulations", p, r.st.RunsExecuted)
		}
		if p == nil {
			if !bytes.Equal(r.body, coldBody) {
				return fmt.Errorf("warm figure %s bytes differ from the cold fill", spec.figure)
			}
			return nil
		}
		if prev, ok := bodies[*p]; !ok {
			bodies[*p] = r.body
		} else if !bytes.Equal(prev, r.body) {
			return fmt.Errorf("warm run %+v bytes changed between requests", *p)
		}
		return nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(spec.seed))
	for time.Now().Before(deadline) {
		blockEnd := time.Now().Add(warmBlock)
		c0 := processCPU()
		for now := time.Now(); now.Before(blockEnd) && now.Before(deadline); now = time.Now() {
			var p *point
			req := spec.figureRequest()
			if rng.Intn(8) != 0 {
				p = &points[rng.Intn(len(points))]
				req = spec.runRequest(*p)
			}
			r, err := svc.do(req)
			ws.latMs = append(ws.latMs, time.Since(now).Seconds()*1e3)
			if err == nil {
				err = check(p, r)
			}
			ws.polls += r.polls
			if r.created {
				ws.created++
			}
			rep.op(err)
		}
		ws.cpu += processCPU() - c0
		cal.sample()
	}
	return ws, bodies, svc.stop()
}

// pointProbe times direct experiments.Suite.RunNamed calls against the
// warm cache directory, one fresh suite per call as each brserve job has,
// and checks each result renders to the bytes the service returned.
func pointProbe(spec serveSpec, defaults server.Defaults, dir string, served map[point][]byte, passes int, rep *report) ([]float64, error) {
	var us []float64
	for pass := 0; pass < passes; pass++ {
		for _, p := range spec.figurePoints() {
			norm, err := server.NormalizeRequest(spec.runRequest(p), defaults)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			suite := experiments.NewSuite(experiments.Options{Scale: workloads.SmallScale(),
				Warmup: *norm.Warmup, Instrs: *norm.Instrs, CacheDir: dir})
			res, err := suite.RunNamed(p.workload, p.predictor, p.br)
			us = append(us, time.Since(t0).Seconds()*1e6)
			if err == nil && suite.RunsExecuted() != 0 {
				err = fmt.Errorf("direct warm point %+v executed a simulation", p)
			}
			if err == nil && pass == 0 {
				var body []byte
				body, err = server.ResultBody(server.RunResult{Request: norm, Result: res})
				if b, ok := served[p]; err == nil && ok && !bytes.Equal(b, body) {
					err = fmt.Errorf("served run %+v differs from a direct Suite.RunNamed", p)
				}
			}
			rep.op(err)
		}
	}
	return us, nil
}

// runServe runs the service workload: timed service start-up, cold fills of
// the run cache, the warm closed loop, then direct suite probes.
func runServe(spec serveSpec, o options, rep *report) error {
	var setups []float64
	o.cal.sample()
	for i := 0; i < o.setups; i++ {
		dir, err := os.MkdirTemp(o.scratch, "serve-setup-")
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		svc, err := startService(dir)
		if err == nil {
			_, err = svc.get("/v1/catalog")
			setups = append(setups, time.Since(t0).Seconds())
			if serr := svc.stop(); err == nil {
				err = serr
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		o.cal.sample()
	}

	deadline := time.Now().Add(o.seconds)
	var (
		fills    []float64
		sims     int
		coldBody []byte
		warmDir  string
		use      runtimeUse
	)
	// The budgets the service fills in for requests that leave them out.
	probe, err := server.New(server.Config{Quick: true})
	if err != nil {
		return err
	}
	defaults := probe.Defaults()
	norm, err := server.NormalizeRequest(spec.figureRequest(), defaults)
	if err != nil {
		return err
	}
	perSim := float64(*norm.Warmup + *norm.Instrs)
	// The live heap is watched over the cold fills, while the service
	// simulates; the warm phase holds little beyond the benchmark's own
	// latency record.
	heap := watchHeap()
	for i := 0; i < spec.coldFills; i++ {
		dir, err := os.MkdirTemp(o.scratch, "serve-cache-")
		if err != nil {
			heap.stopMB()
			return err
		}
		defer os.RemoveAll(dir)
		o.cal.sampleParallel()
		before := readRuntimeUse()
		r, d, err := coldFill(spec, dir)
		use = use.add(readRuntimeUse().sub(before))
		o.cal.sampleParallel()
		if err == nil && coldBody != nil && !bytes.Equal(r.body, coldBody) {
			err = fmt.Errorf("cold figure %s bytes differ between fills", spec.figure)
		}
		rep.op(err)
		if err != nil {
			continue
		}
		coldBody, warmDir = r.body, dir
		sims = r.st.RunsExecuted
		fills = append(fills, d.Seconds())
	}
	rep.set("live_heap_mb", heap.stopMB())
	rep.set("setup_s", median(setups)*o.cal.factor())
	if warmDir == "" {
		rep.set("ok_frac", 0)
		return nil // every cold fill failed; the failures are counted
	}
	// The warm phase gets the rest of the window, and at least a quarter of
	// it however long the cold fills took.
	warmEnd := deadline
	if floor := time.Now().Add(o.seconds / 4); warmEnd.Before(floor) {
		warmEnd = floor
	}
	ws, served, err := warmPhase(spec, warmDir, coldBody, warmEnd, o.cal, rep)
	if err != nil {
		return err
	}

	passes := 1
	if o.trace {
		passes = 3
	}
	pointUs, err := pointProbe(spec, defaults, warmDir, served, passes, rep)
	if err != nil {
		return err
	}

	// Every time is scaled to reference-host time (see calib.go). The cold
	// fills keep every CPU busy, so they are scaled by the kernel's speed
	// on every CPU at once.
	f, fp := o.cal.factor(), o.cal.parallelFactor()
	rep.set("setup_s", median(setups)*f)
	rep.set("sim_minstr_per_s", float64(sims*len(fills))*perSim/sum(fills)/1e6/fp)
	rep.set("cold_fill_s", mean(fills)*fp)
	rep.set("warm_req_p50_ms", quantile(ws.latMs, 0.50)*f)
	rep.set("warm_req_p90_ms", quantile(ws.latMs, 0.90)*f)
	rep.set("warm_req_per_s", ratio(float64(len(ws.latMs)), ws.cpu.Seconds()*f))
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(rep.attempted))

	n := float64(len(ws.latMs))
	warmPointMs := median(pointUs) / 1e3 * f
	var sumMs float64
	for _, l := range ws.latMs {
		sumMs += l * f
	}
	simulated := perSim * float64(sims*len(fills))
	rep.set("experiments.cold_s_per_sim", ratio(mean(fills)*fp, float64(sims)))
	rep.set("experiments.sims_executed", float64(sims))
	rep.set("experiments.warm_point_us", warmPointMs*1e3)
	rep.set("server.self_ms_per_req", ratio(sumMs-float64(ws.created)*warmPointMs, n))
	rep.set("server.polls_per_req", ratio(float64(ws.polls), n))
	rep.set("server.jobs_registered", float64(ws.created))
	rep.set("runtime.alloc_bytes_per_instr", ratio(use.allocBytes, simulated))
	rep.set("runtime.allocs_per_kinstr", 1000*ratio(use.allocObjects, simulated))
	rep.set("runtime.gc_cpu_frac", ratio(use.gcCPU, use.usedCPU))
	return nil
}
