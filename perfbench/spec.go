package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is how long one run measures; BENCHMARK.json records it.
const runSeconds = 25

// workloadSpec names one workload and records why it was chosen, with
// its loop type and client count or arrival rate.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"alexnet-s2", "closed loop, 1 client, workers=nproc: CLI-default AlexNet jobs with Scheme 2; GEMM-bound headline net where the per-probe clean forward of the sigma search shows"},
	{"mobilenet-s1", "closed loop, 1 client, GOMAXPROCS 1: CLI-default MobileNet jobs with Scheme 1; DWConv-bound, profiling is most of the job; Scheme-2 or scheduling changes must not move it"},
	{"serve-mix", "open loop, 2 jobs/s, 2 tenants, <=nproc conns: durable in-process mupodd on SqueezeNet; per 8 arrivals 1 profile-cache miss, 1 NSGA-II front, 6 hits; HTTP, journal, DRR"},
}

// metricSpec is one reported metric. Bound is the end-to-end
// regression bound (share of the parent's median); Moves records, for a
// per-layer metric, which end-to-end metric on which workload it should
// move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_job", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "eff_bits", Unit: "bits", Better: "lower", Bound: 0.1},
	{Name: "acc_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.2},
}

var perLayer = []metricSpec{
	{Name: "zoo.load_s", Unit: "s", Better: "lower", Moves: "setup_s on all workloads"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower", Moves: "diagnostic only (the untimed first job)"},
	{Name: "profile.s", Unit: "s", Better: "lower", Moves: "job_p50_s, cpu_s_per_job on mobilenet-s1 (most of the job); minor on alexnet-s2; job_tail_s on serve-mix (misses)"},
	{Name: "profile.layers", Unit: "count", Better: "lower", Moves: "count of profiled layers; context for profile.s_per_layer"},
	{Name: "profile.s_per_layer", Unit: "s", Better: "lower", Moves: "as profile.s"},
	{Name: "search.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2; must not move on mobilenet-s1 for Scheme-2-only changes"},
	{Name: "search.evals", Unit: "count", Better: "lower", Moves: "as search.s (an exact count for a fixed seed list)"},
	{Name: "search.s_per_eval", Unit: "s", Better: "lower", Moves: "as search.s"},
	{Name: "solve.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2"},
	{Name: "solve.iters", Unit: "count", Better: "lower", Moves: "as solve.s"},
	{Name: "guard.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2"},
	{Name: "guard.retries", Unit: "count", Better: "lower", Moves: "as guard.s"},
	{Name: "validate.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2 and mobilenet-s1"},
	{Name: "wsearch.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2 and mobilenet-s1"},
	{Name: "fxnet.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2 and mobilenet-s1"},
	{Name: "accel.s", Unit: "s", Better: "lower", Moves: "job_p50_s on alexnet-s2 and mobilenet-s1"},
	{Name: "exec.forwards", Unit: "count", Better: "lower", Moves: "job_p50_s, jobs_per_s on alexnet-s2 (per job)"},
	{Name: "exec.eval_items", Unit: "count", Better: "lower", Moves: "job_p50_s, jobs_per_s on alexnet-s2 (per job)"},
	{Name: "exec.busy_ratio", Unit: "ratio", Better: "higher", Moves: "job_p50_s, jobs_per_s on alexnet-s2; stays near 1 on mobilenet-s1"},
	{Name: "kernels.gemm_calls", Unit: "count", Better: "lower", Moves: "cpu_s_per_job on alexnet-s2 (per job)"},
	{Name: "kernels.dwconv_calls", Unit: "count", Better: "lower", Moves: "cpu_s_per_job on mobilenet-s1 (per job)"},
	{Name: "kernels.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cpu_s_per_job on alexnet-s2"},
	{Name: "kernels.dwconv_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "cpu_s_per_job on mobilenet-s1 (0 on nets without dwconv)"},
	{Name: "serve.submit_s", Unit: "s", Better: "lower", Moves: "job_p50_s, job_tail_s on serve-mix"},
	{Name: "serve.queue_wait_s", Unit: "s", Better: "lower", Moves: "job_p50_s, job_tail_s on serve-mix"},
	{Name: "serve.profile_s", Unit: "s", Better: "lower", Moves: "job_tail_s on serve-mix (misses)"},
	{Name: "serve.search_s", Unit: "s", Better: "lower", Moves: "job_p50_s on serve-mix"},
	{Name: "serve.pareto_s", Unit: "s", Better: "lower", Moves: "job_p50_s, job_tail_s on serve-mix (Pareto jobs)"},
	{Name: "serve.get_s", Unit: "s", Better: "lower", Moves: "job_p50_s on serve-mix"},
	{Name: "serve.profile_hit_ratio", Unit: "ratio", Better: "higher", Moves: "job_p50_s, job_tail_s on serve-mix"},
	{Name: "serve.front_hit_ratio", Unit: "ratio", Better: "higher", Moves: "job_tail_s on serve-mix"},
	{Name: "serve.journal_bytes_per_job", Unit: "B", Better: "lower", Moves: "job_p50_s on serve-mix (fsynced appends)"},
	{Name: "gen.late_p99_s", Unit: "s", Better: "lower", Moves: "diagnostic for serve-mix latency (how late the generator fired)"},
	{Name: "go.alloc_mb_per_job", Unit: "MB", Better: "lower", Moves: "cpu_s_per_job, peak_rss_mb on all workloads"},
	{Name: "go.gc_cpu_s_per_job", Unit: "s", Better: "lower", Moves: "cpu_s_per_job on all workloads"},
	{Name: "host.steal_ratio", Unit: "ratio", Better: "lower", Moves: "diagnostic only; never used to drop samples"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced / untraced job_p50_s in the same process"},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher", Moves: "sum of layer self times / job wall; within 5% of 1 on pipeline workloads"},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Moves: "(failed + refused + failed checks) / attempted on every workload"},
}

// benchmarkFile is the BENCHMARK.json document, in key order.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
