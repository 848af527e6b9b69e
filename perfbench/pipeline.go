package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"mupod/internal/accel"
	"mupod/internal/baseline"
	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fxnet"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/zoo"
)

// pipeConfig is a CLI-equivalent job: `mupod` defaults (-objective mac
// -drop 0.01 -images 30 -points 12 -eval 200, guard on) on one network.
type pipeConfig struct {
	arch    zoo.Arch
	scheme  search.Scheme
	workers int
}

func pipeConfigFor(workload string) pipeConfig {
	if workload == "mobilenet-s1" {
		return pipeConfig{arch: zoo.MobileNet, scheme: search.Scheme1Uniform, workers: 1}
	}
	return pipeConfig{arch: zoo.AlexNet, scheme: search.Scheme2Gaussian, workers: runtime.NumCPU()}
}

const (
	relDrop    = 0.01
	evalImages = 200
)

func (c pipeConfig) core(seed uint64) core.Config {
	return core.Config{
		Profile:   profile.Config{Images: 30, Points: 12, Seed: seed},
		Search:    search.Options{Scheme: c.scheme, RelDrop: relDrop, EvalImages: evalImages, Seed: seed ^ 0x5eed},
		Objective: core.MinimizeMACBits,
		Guard:     true,
		Workers:   c.workers,
	}
}

// jobOut is what one pipeline job produced.
type jobOut struct {
	wall    time.Duration
	bits    []int
	xi      []float64
	effMAC  float64
	accOK   bool
	layers  int
	evals   int
	iters   int
	retries int
	// noWeightWidth marks a job on which the uniform weight search
	// found no width meeting the constraint (fxnet then does not run).
	noWeightWidth bool
}

// runPipelineJob runs one CLI-equivalent job as a sequence of calls
// into the layers' public functions, each wrapped in a span when tr is
// non-nil. The job wall runs from the first layer call to the end of
// the last.
func runPipelineJob(ctx context.Context, c pipeConfig, net *nn.Network, test *dataset.Dataset, exactAcc float64, seed uint64, tr *tracer, tid int64) (jobOut, error) {
	cfg := c.core(seed)
	var out jobOut
	var err error
	start := time.Now()
	root := tr.start("job", 0, tid, start)
	step := func(name string, fn func() error) {
		if err == nil {
			tr.call(name, root, tid, func() { err = fn() })
		}
	}

	var prof *profile.Profile
	var sr *search.Result
	var al *core.Allocation
	var w int
	step("profile", func() (e error) {
		pc := cfg.Profile
		pc.Workers = c.workers
		prof, e = profile.RunContext(ctx, net, test, pc)
		return e
	})
	step("search", func() (e error) {
		so := cfg.Search
		so.Workers = c.workers
		sr, e = search.RunContext(ctx, net, prof, test, so)
		return e
	})
	if err == nil {
		// On traced jobs the program's existing solve and guard spans
		// split this call into its two layers.
		actx := ctx
		var otr *obs.Tracer
		if tr != nil {
			otr = obs.NewTracer(0)
			actx = obs.WithTracer(ctx, otr)
		}
		id := tr.start("allocate", root, tid, time.Now())
		al, _, out.retries, err = core.AllocateContext(actx, net, test, prof, sr, cfg)
		tr.end(id, time.Now())
		if otr != nil {
			for _, s := range otr.Spans() {
				if s.Name != "solve" && s.Name != "guard" {
					continue
				}
				tr.record(s.Name, id, tid, s.Start, s.Start.Add(s.Dur))
				for _, a := range s.Attrs {
					if a.Key == "iterations" {
						out.iters, _ = a.Value.(int)
					}
				}
			}
		}
	}
	step("validate", func() error {
		// Like the CLI: the whole test split, against the float
		// accuracy on that same split.
		out.accOK = al.Validate(net, test, 0) >= exactAcc*(1-relDrop)
		return nil
	})
	step("wsearch", func() error {
		// Like the CLI, a network on which no uniform weight width
		// meets the constraint is an outcome, not a failed job: it
		// skips the integer datapath.
		var e error
		if w, e = baseline.UniformWeightSearch(net, al, test, baseline.Options{RelDrop: relDrop, EvalImages: evalImages, Workers: c.workers}); e != nil {
			out.noWeightWidth = true
		}
		return nil
	})
	if !out.noWeightWidth {
		step("fxnet", func() error {
			n := min(evalImages, test.Len())
			_, _, e := fxnet.Accuracy(net, al, fxnet.Config{WeightBits: w, Workers: c.workers}, test.Batch(0, n), test.Labels[:n], 32)
			return e
		})
	}
	step("accel", func() error {
		_, e := accel.Simulate(al, accel.Config{})
		return e
	})
	end := time.Now()
	tr.end(root, end)
	if err != nil {
		return out, err
	}
	out.wall = end.Sub(start)
	out.bits = al.Bits()
	for _, l := range al.Layers {
		out.xi = append(out.xi, l.Xi)
	}
	out.effMAC = al.EffectiveMACBits()
	out.layers = prof.NumLayers()
	out.evals = sr.Evaluations
	return out, nil
}

// checkXi is the per-job allocation check: Σξ = 1 within 1e-9.
func checkXi(xi []float64) error {
	s := 0.0
	for _, x := range xi {
		s += x
	}
	if math.Abs(s-1) > 1e-9 || len(xi) == 0 {
		return fmt.Errorf("Σξ = %.12f over %d layers, want 1 within 1e-9", s, len(xi))
	}
	return nil
}

func sameAllocation(a, b jobOut) bool {
	if len(a.bits) != len(b.bits) || len(a.xi) != len(b.xi) {
		return false
	}
	for i := range a.bits {
		if a.bits[i] != b.bits[i] || math.Float64bits(a.xi[i]) != math.Float64bits(b.xi[i]) {
			return false
		}
	}
	return true
}

// counters reads the exec and kernel dispatch counters enabled for
// traced jobs.
type counters struct {
	exec *exec.Metrics
	kern *kernels.Metrics
}

type counterSnap struct {
	forwards, items, gemm, dwconv uint64
	busy                          float64
}

func (c counters) snap() counterSnap {
	var s counterSnap
	if c.exec != nil {
		s.forwards = c.exec.Forwards.Value()
		s.items = c.exec.EvalItems.Value()
		s.busy = c.exec.EvalBusy.Value()
	}
	if c.kern != nil {
		for _, impl := range kernels.Names() {
			if ctr := c.kern.Dispatch(impl, "gemm"); ctr != nil {
				s.gemm += ctr.Value()
			}
			if ctr := c.kern.Dispatch(impl, "dwconv"); ctr != nil {
				s.dwconv += ctr.Value()
			}
		}
	}
	return s
}

// enableCounters arms fresh exec and kernel counters process-wide;
// disarm them with exec.DisableMetrics and kernels.DisableMetrics.
func enableCounters() counters {
	reg := obs.NewRegistry()
	return counters{exec: exec.EnableMetrics(reg), kern: kernels.EnableMetrics(reg)}
}

func (a counterSnap) add(b counterSnap) counterSnap {
	return counterSnap{a.forwards + b.forwards, a.items + b.items, a.gemm + b.gemm, a.dwconv + b.dwconv, a.busy + b.busy}
}

// runPipeline runs a closed-loop pipeline workload with one client.
func runPipeline(cfg runConfig, rep *report) {
	pc := pipeConfigFor(cfg.workload)
	// Untimed: fills the on-disk zoo cache on the first run in a
	// checkout (training), which later set-ups then read.
	net, err := zoo.Load(pc.arch)
	if err != nil {
		rep.attempted++
		rep.fail("loading %s: %v", pc.arch, err)
		return
	}
	_, test := zoo.Data(pc.arch)
	exactAcc, err := zoo.TestAccuracy(pc.arch)
	if err != nil {
		rep.attempted++
		rep.fail("accuracy of %s: %v", pc.arch, err)
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

	ctx := context.Background()
	seeds := jobSeeds(cfg.seed, 1024)
	warm, err := runPipelineJob(ctx, pc, net, test, exactAcc, seeds[0], nil, 0)
	if err != nil {
		rep.attempted++
		rep.fail("warm-up job (seed %d): %v", seeds[0], err)
		return
	}
	rep.set("setup.warmup_s", warm.wall.Seconds(), "untimed first job")

	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	var walls, tracedWalls, untracedWalls, effBits []float64
	var okJobs, noWeightWidth int
	var sumEvals, sumIters, sumRetries, sumLayers int
	var cnt counterSnap
	var tracedWall time.Duration
	run := func(seed uint64, traced bool, tid int64) (jobOut, bool) {
		rep.attempted++
		var t *tracer
		var ctrs counters
		if traced {
			t = tr
			ctrs = enableCounters()
		}
		out, err := runPipelineJob(ctx, pc, net, test, exactAcc, seed, t, tid)
		if traced {
			cnt = cnt.add(ctrs.snap())
			exec.DisableMetrics()
			kernels.DisableMetrics()
		}
		if err != nil {
			rep.fail("job seed %d: %v", seed, err)
			return out, false
		}
		if err := checkXi(out.xi); err != nil {
			rep.fail("job seed %d: %v", seed, err)
			return out, false
		}
		walls = append(walls, out.wall.Seconds())
		effBits = append(effBits, out.effMAC)
		if out.accOK {
			okJobs++
		}
		if out.noWeightWidth {
			noWeightWidth++
		}
		if traced {
			tracedWalls = append(tracedWalls, out.wall.Seconds())
			tracedWall += out.wall
			sumEvals += out.evals
			sumIters += out.iters
			sumRetries += out.retries
			sumLayers += out.layers
		} else if cfg.traced {
			untracedWalls = append(untracedWalls, out.wall.Seconds())
		}
		return out, true
	}

	start := readUsage()
	deadline := start.wall.Add(cfg.window)
	var tid int64
	for i := 1; i < len(seeds) && time.Now().Before(deadline); i++ {
		if cfg.traced {
			// Each seed runs untraced, then traced: the pair's ratio
			// is the tracing overhead without seed-to-seed variation.
			run(seeds[i], false, 0)
			tid++
			run(seeds[i], true, tid)
		} else {
			run(seeds[i], false, 0)
		}
	}
	// The warm-up seed, re-run as the last timed job, must reproduce
	// its allocation bit for bit.
	tid++
	if last, ok := run(seeds[0], cfg.traced, tid); ok && !sameAllocation(warm, last) {
		rep.fail("seed %d: re-run allocation differs from the warm-up's", seeds[0])
	}
	win := since(start)
	jobs := float64(len(walls))
	fmt.Printf("window %.2fs, %d jobs completed (%d without a uniform weight width meeting the constraint), steal %.3f\n",
		win.wall.Seconds(), len(walls), noWeightWidth, win.steal)

	if !cfg.traced {
		p50 := median(walls)
		rep.set("job_p50_s", p50, fmt.Sprintf("n=%d", len(walls)))
		if p, ok := tailPercentile(len(walls)); ok {
			rep.set("job_tail_s", quantile(walls, float64(p)/100), fmt.Sprintf("p%d, n=%d", p, len(walls)))
		} else {
			rep.set("job_tail_s", p50, fmt.Sprintf("p50: n=%d leaves no higher percentile with 10 samples beyond it", len(walls)))
		}
		rep.set("jobs_per_s", jobs/win.wall.Seconds(), "")
		rep.set("cpu_s_per_job", win.cpu.Seconds()/jobs, "getrusage user+sys")
		rep.set("peak_rss_mb", peakRSSMB(), "")
		rep.set("eff_bits", mean(effBits), "mean effective MAC bits")
		rep.set("acc_ok_ratio", float64(okJobs)/jobs, "real quantized accuracy on the test split vs the constraint")
		return
	}

	// Traced run: per-layer metrics per traced job.
	nt := float64(len(tracedWalls))
	self := tr.selfTimes()
	layerSum := time.Duration(0)
	for name, d := range self {
		if name != "job" {
			layerSum += d
		}
	}
	perJob := func(name string) float64 { return self[name].Seconds() / nt }
	rep.set("profile.s", perJob("profile"), "self time per traced job")
	rep.set("profile.layers", float64(sumLayers)/nt, "")
	rep.set("profile.s_per_layer", self["profile"].Seconds()/float64(sumLayers), "")
	rep.set("search.s", perJob("search"), "")
	rep.set("search.evals", float64(sumEvals)/nt, "per job")
	rep.set("search.s_per_eval", self["search"].Seconds()/float64(sumEvals), "")
	rep.set("solve.s", perJob("solve"), "program span, read back")
	rep.set("solve.iters", float64(sumIters)/nt, "per job")
	rep.set("guard.s", perJob("guard"), "program span, read back")
	rep.set("guard.retries", float64(sumRetries)/nt, "per job")
	rep.set("validate.s", perJob("validate"), "")
	rep.set("wsearch.s", perJob("wsearch"), "")
	rep.set("fxnet.s", perJob("fxnet"), "")
	rep.set("accel.s", perJob("accel"), "")
	rep.set("exec.forwards", float64(cnt.forwards)/nt, "per job")
	rep.set("exec.eval_items", float64(cnt.items)/nt, "per job")
	rep.set("exec.busy_ratio", cnt.busy/(float64(pc.workers)*tracedWall.Seconds()),
		fmt.Sprintf("evaluator busy s / (%d workers x job wall)", pc.workers))
	rep.set("kernels.gemm_calls", float64(cnt.gemm)/nt, "per job")
	rep.set("kernels.dwconv_calls", float64(cnt.dwconv)/nt, "per job")
	setKernelProbes(rep, net)
	for _, name := range []string{"serve.submit_s", "serve.queue_wait_s", "serve.profile_s", "serve.search_s",
		"serve.pareto_s", "serve.get_s", "serve.profile_hit_ratio", "serve.front_hit_ratio",
		"serve.journal_bytes_per_job", "gen.late_p99_s"} {
		rep.set(name, 0, "n/a: serve-mix only")
	}
	setRuntimeMetrics(rep, win, jobs)
	rep.set("trace.overhead_ratio", median(tracedWalls)/median(untracedWalls),
		fmt.Sprintf("median of %d traced / %d untraced jobs, same seeds", len(tracedWalls), len(untracedWalls)))
	rep.set("trace.coverage_ratio", layerSum.Seconds()/tracedWall.Seconds(), "sum of layer self times / job wall")
	if err := tr.write(cfg.tracePath); err != nil {
		fmt.Printf("writing trace: %v\n", err)
	} else {
		fmt.Printf("spans written to %s\n", cfg.tracePath)
	}
}

func setKernelProbes(rep *report, net *nn.Network) {
	g, dw := probeKernels(net, 300*time.Millisecond)
	rep.set("kernels.gemm_gflops", g.gflops, fmt.Sprintf("%s; %.3g flop, %.3g B computed from shape", g.label, g.flops, g.bytes))
	if dw == nil {
		rep.set("kernels.dwconv_gflops", 0, "n/a: no depthwise layer in "+net.Name)
		return
	}
	rep.set("kernels.dwconv_gflops", dw.gflops, fmt.Sprintf("%s; %.3g flop, %.3g B computed from shape", dw.label, dw.flops, dw.bytes))
}

func setRuntimeMetrics(rep *report, win window, jobs float64) {
	rep.set("go.alloc_mb_per_job", win.allocMB/jobs, "")
	rep.set("go.gc_cpu_s_per_job", win.gcCPU/jobs, "runtime/metrics estimate")
	rep.set("host.steal_ratio", win.steal, "/proc/stat; diagnostic only")
}
