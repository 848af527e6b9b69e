package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/serve"
	"mupod/internal/zoo"
)

// serveModel is the network every serve-mix request names.
const serveModel = zoo.SqueezeNet

// daemon is an in-process mupodd: a durable Manager behind its HTTP
// handler on a loopback listener.
type daemon struct {
	m      *serve.Manager
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

// startDaemon starts the daemon with its journal under dir and returns
// once /readyz answers 200.
func startDaemon(dir string) (*daemon, error) {
	m, err := serve.New(serve.Config{
		Workers:       runtime.NumCPU(),
		JobWorkers:    1,
		DataDir:       dir,
		TenantWeights: map[string]int{"t0": 1, "t1": 1},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		m:    m,
		srv:  &http.Server{Handler: serve.NewHandler(m)},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	go func() {
		d.srv.Serve(ln)
		close(d.done)
	}()
	resp, err := d.client.Get(d.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener and drains the manager, waiting for both.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
	d.m.Shutdown(ctx)
	d.client.CloseIdleConnections()
}

// serveRequest builds the request for one distinct job seed.
func serveRequest(seed uint64, tenant string, pareto bool) serve.JobRequest {
	r := serve.JobRequest{
		Tenant:    tenant,
		Model:     string(serveModel),
		Objective: "mac",
		Guard:     true,
		Profile:   profile.Config{Images: 16, Points: 8, Seed: seed},
		Search:    search.Options{RelDrop: relDrop, EvalImages: 100, Seed: seed ^ 0x5eed},
	}
	if pareto {
		r.Pareto = &serve.ParetoSpec{NSGA2: true, Seed: 7}
	}
	return r
}

// served is the client's record of one finished serve-mix job.
type served struct {
	kind      jobKind
	req       int
	latency   time.Duration // scheduled arrival → done
	late      time.Duration // generator lateness
	submit    time.Duration
	get       time.Duration
	queueWait time.Duration
	view      serve.JobView
	traced    bool
	err       error
}

// do submits one request and waits for its result, timing each call.
func (d *daemon) do(ctx context.Context, body serve.JobRequest, sched time.Time, tr *tracer, tid int64) served {
	var s served
	root := tr.start("job", 0, tid, sched)
	sent := time.Now()
	s.late = sent.Sub(sched)
	tr.record("gen.late", root, tid, sched, sent)
	path := "/v1/jobs"
	if body.Pareto != nil {
		path = "/pareto"
	}
	var id string
	tr.call("submit", root, tid, func() {
		b, _ := json.Marshal(body)
		var v serve.JobView
		if s.err = d.roundTrip(ctx, http.MethodPost, path, b, http.StatusAccepted, &v); s.err == nil {
			id = v.ID
		}
	})
	s.submit = time.Since(sent)
	if s.err != nil {
		tr.end(root, time.Now())
		return s
	}
	tr.call("wait", root, tid, func() {
		var j *serve.Job
		if j, s.err = d.m.Get(id); s.err == nil {
			s.err = j.Wait(ctx)
		}
	})
	done := time.Now()
	s.latency = done.Sub(sched)
	if s.err == nil {
		tr.call("get", root, tid, func() {
			s.err = d.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &s.view)
		})
		s.get = time.Since(done)
	}
	tr.end(root, time.Now())
	if s.err == nil && s.view.State != serve.StateDone {
		s.err = fmt.Errorf("job %s ended %s: %s", id, s.view.State, s.view.Error)
	}
	for _, e := range s.view.Timeline {
		if e.Event == "running" {
			s.queueWait = time.Duration(e.SinceMS * float64(time.Millisecond))
		}
	}
	return s
}

func (d *daemon) roundTrip(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}

// outcome is the part of a result every occurrence of one request must
// reproduce: the allocation, or the Pareto front.
func outcome(v serve.JobView) string {
	if v.Result == nil {
		return ""
	}
	var b []byte
	if v.Result.Pareto != nil {
		b, _ = json.Marshal(v.Result.Pareto.Front)
	} else {
		b, _ = json.Marshal(v.Result.Layers)
	}
	return string(b)
}

func layerXi(v serve.JobView) []float64 {
	var xi []float64
	if v.Result != nil {
		for _, l := range v.Result.Layers {
			xi = append(xi, l.Xi)
		}
	}
	return xi
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// runServeMix runs the open-loop serve-mix workload.
func runServeMix(cfg runConfig, rep *report) {
	if _, err := zoo.Load(serveModel); err != nil { // untimed cache fill
		rep.attempted++
		rep.fail("loading %s: %v", serveModel, err)
		return
	}
	setupS, loadS, err := measureSetup(cfg)
	if err != nil {
		rep.attempted++
		rep.fail("%v", err)
		return
	}
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d set-up processes", setupProbes))
	rep.set("zoo.load_s", loadS, fmt.Sprintf("median of %d set-up processes", setupProbes))

	dataDir := filepath.Join(cfg.scratch, "data")
	d, err := startDaemon(dataDir)
	if err != nil {
		rep.attempted++
		rep.fail("starting daemon: %v", err)
		return
	}
	defer d.close()
	ctx := context.Background()
	plan := planServe(cfg.seed, cfg.window)
	missShare, paretoShare := plan.shares()
	fmt.Printf("plan: %d arrivals, %d distinct requests, miss share %.3f, pareto share %.3f, rate %.2f/s\n",
		len(plan.Jobs), len(plan.ReqSeeds), missShare, paretoShare, serveRate)

	// Untimed warm-up: the first requests fill the profile cache,
	// submitted together as a burst; the last arrival repeats request 0.
	warm := make([]served, warmRequests)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range warm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warm[i] = d.do(ctx, serveRequest(plan.ReqSeeds[i], "t0", false), t0, nil, 0)
		}(i)
	}
	wg.Wait()
	rep.set("setup.warmup_s", time.Since(t0).Seconds(), fmt.Sprintf("untimed burst of %d profile-cache misses", warmRequests))
	first := map[string]string{}
	for i, w := range warm {
		if w.err != nil {
			rep.attempted++
			rep.fail("warm-up job %d: %v", i, w.err)
			return
		}
		first[fmt.Sprintf("%d/%v", i, false)] = outcome(w.view)
	}

	var tr *tracer
	var ctrs counters
	if cfg.traced {
		tr = &tracer{}
		ctrs = enableCounters() // replaces the daemon's own counter set
		defer exec.DisableMetrics()
		defer kernels.DisableMetrics()
	}
	journal0 := dirBytes(dataDir)
	results := make([]served, len(plan.Jobs))
	// A traced run traces every other arrival of each kind, so the
	// overhead ratio compares like with like.
	perKind := map[jobKind]int{}
	start := readUsage()
	for i, j := range plan.Jobs {
		sched := start.wall.Add(j.At)
		time.Sleep(time.Until(sched))
		var t *tracer
		if cfg.traced && perKind[j.Kind]%2 == 1 {
			t = tr
		}
		perKind[j.Kind]++
		wg.Add(1)
		go func(i int, j plannedJob, t *tracer) {
			defer wg.Done()
			body := serveRequest(plan.ReqSeeds[j.Req], j.Tenant, j.Kind == kindPareto)
			s := d.do(ctx, body, sched, t, int64(i+1))
			s.kind, s.req, s.traced = j.Kind, j.Req, t != nil
			results[i] = s
		}(i, j, t)
	}
	wg.Wait()
	win := since(start)
	journalPerJob := float64(dirBytes(dataDir)-journal0) / float64(len(plan.Jobs))

	// Correctness: every job done, Σξ = 1, and every occurrence of one
	// request (hits, and the final repeat of the warm-up request)
	// returns what its first occurrence returned.
	var lat, lates, tracedHit, untracedHit, effBits []float64
	var subs, gets, waits, profMiss, searches, paretos []float64
	var nonPareto, okAcc, hits, nPareto, frontHits int
	for i, s := range results {
		rep.attempted++
		if s.kind != kindPareto {
			nonPareto++
		}
		if s.err != nil {
			rep.fail("arrival %d (%s, request %d): %v", i, s.kind, s.req, s.err)
			continue
		}
		res := s.view.Result
		key := fmt.Sprintf("%d/%v", s.req, s.kind == kindPareto)
		if prev, ok := first[key]; !ok {
			first[key] = outcome(s.view)
		} else if prev != outcome(s.view) {
			rep.fail("arrival %d (%s, request %d): result differs from an earlier occurrence of the same request", i, s.kind, s.req)
			continue
		}
		if s.kind == kindPareto {
			nPareto++
			paretos = append(paretos, res.ParetoMS/1000)
			if res.Pareto.FrontCacheHit {
				frontHits++
			}
		} else {
			if err := checkXi(layerXi(s.view)); err != nil {
				rep.fail("arrival %d: %v", i, err)
				continue
			}
			okAcc++ // the daemon's guard failed the job otherwise
			effBits = append(effBits, res.EffectiveMACBits)
		}
		if res.ProfileCacheHit {
			hits++
		} else {
			profMiss = append(profMiss, res.ProfileMS/1000)
		}
		lat = append(lat, s.latency.Seconds())
		lates = append(lates, s.late.Seconds())
		subs = append(subs, s.submit.Seconds())
		gets = append(gets, s.get.Seconds())
		waits = append(waits, s.queueWait.Seconds())
		searches = append(searches, res.SearchMS/1000)
		if s.kind == kindHit {
			if s.traced {
				tracedHit = append(tracedHit, s.latency.Seconds())
			} else {
				untracedHit = append(untracedHit, s.latency.Seconds())
			}
		}
	}
	jobs := float64(len(lat))
	fmt.Printf("window %.2fs, %d jobs completed, steal %.3f\n", win.wall.Seconds(), len(lat), win.steal)
	if !cfg.traced {
		rep.set("job_p50_s", median(lat), fmt.Sprintf("scheduled arrival to done, n=%d", len(lat)))
		if p, ok := tailPercentile(len(lat)); ok {
			rep.set("job_tail_s", quantile(lat, float64(p)/100), fmt.Sprintf("p%d, n=%d", p, len(lat)))
		} else {
			rep.set("job_tail_s", median(lat), fmt.Sprintf("p50: n=%d leaves no higher percentile with 10 samples beyond it", len(lat)))
		}
		rep.set("jobs_per_s", jobs/win.wall.Seconds(), fmt.Sprintf("open loop: tracks the offered %.2f/s", serveRate))
		rep.set("cpu_s_per_job", win.cpu.Seconds()/jobs, "getrusage user+sys")
		rep.set("peak_rss_mb", peakRSSMB(), "")
		rep.set("eff_bits", mean(effBits), "mean effective MAC bits of non-Pareto jobs")
		rep.set("acc_ok_ratio", float64(okAcc)/math.Max(1, float64(nonPareto)), "non-Pareto jobs that passed the daemon's guard")
		return
	}

	self := tr.selfTimes()
	var layerSum, rootSum time.Duration
	for name, dur := range self {
		if name != "job" {
			layerSum += dur
		}
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			rootSum += s.dur()
		}
	}
	for _, name := range []string{"profile.s", "profile.layers", "profile.s_per_layer", "search.s", "search.evals",
		"search.s_per_eval", "solve.s", "solve.iters", "guard.s", "guard.retries", "validate.s", "wsearch.s",
		"fxnet.s", "accel.s"} {
		rep.set(name, 0, "n/a: pipeline workloads only")
	}
	c := ctrs.snap()
	rep.set("exec.forwards", float64(c.forwards)/jobs, "per job")
	rep.set("exec.eval_items", float64(c.items)/jobs, "per job")
	rep.set("exec.busy_ratio", c.busy/(float64(runtime.NumCPU())*win.wall.Seconds()),
		fmt.Sprintf("evaluator busy s / (%d job workers x window wall)", runtime.NumCPU()))
	rep.set("kernels.gemm_calls", float64(c.gemm)/jobs, "per job")
	rep.set("kernels.dwconv_calls", float64(c.dwconv)/jobs, "per job")
	net, _ := zoo.Load(serveModel)
	setKernelProbes(rep, net)
	rep.set("serve.submit_s", median(subs), "median POST")
	rep.set("serve.queue_wait_s", median(waits), "median timeline queued to running")
	rep.set("serve.profile_s", median(profMiss), fmt.Sprintf("median over %d profile-cache misses", len(profMiss)))
	rep.set("serve.search_s", median(searches), "median")
	rep.set("serve.pareto_s", median(paretos), fmt.Sprintf("median over %d Pareto jobs", len(paretos)))
	rep.set("serve.get_s", median(gets), "median GET")
	rep.set("serve.profile_hit_ratio", float64(hits)/jobs, "")
	rep.set("serve.front_hit_ratio", float64(frontHits)/math.Max(1, float64(nPareto)), fmt.Sprintf("of %d Pareto jobs", nPareto))
	rep.set("serve.journal_bytes_per_job", journalPerJob, "data-dir growth per arrival")
	rep.set("gen.late_p99_s", quantile(lates, 0.99), "")
	setRuntimeMetrics(rep, win, jobs)
	rep.set("trace.overhead_ratio", median(tracedHit)/median(untracedHit),
		fmt.Sprintf("median of %d traced / %d untraced hit jobs", len(tracedHit), len(untracedHit)))
	rep.set("trace.coverage_ratio", layerSum.Seconds()/rootSum.Seconds(), "sum of layer self times / job wall")
	if err := tr.write(cfg.tracePath); err != nil {
		fmt.Printf("writing trace: %v\n", err)
	} else {
		fmt.Printf("spans written to %s\n", cfg.tracePath)
	}
}

// setupOnce performs one workload set-up and returns its seconds and
// the zoo-load share of it. Called in a fresh process by measureSetup.
func setupOnce(workload, scratch string) (setupS, loadS float64, err error) {
	arch := serveModel
	if workload != "serve-mix" {
		arch = pipeConfigFor(workload).arch
	}
	t0 := time.Now()
	if _, err := zoo.Load(arch); err != nil {
		return 0, 0, err
	}
	loadS = time.Since(t0).Seconds()
	zoo.Data(arch)
	if workload == "serve-mix" {
		d, err := startDaemon(filepath.Join(scratch, "data"))
		if err != nil {
			return 0, 0, err
		}
		setupS = time.Since(t0).Seconds()
		d.close()
		return setupS, loadS, nil
	}
	return time.Since(t0).Seconds(), loadS, nil
}
