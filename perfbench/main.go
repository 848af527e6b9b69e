// Command perfbench is the repository benchmark. One process runs one
// workload: it sets up, runs an untimed warm-up job, then measures
// jobs for --seconds and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 the run alternates untraced and traced jobs and
// reports the per-layer set from benchmark-side spans and the exec and
// kernels counters.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload alexnet-s2 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --write-benchmark-json BENCHMARK.json
//
// The command exits non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report accumulates one run's metrics and correctness outcome.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	notes     map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a failed job or correctness check; both count in
// error_rate and make the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the metrics of specs as a table and then the result line,
// and returns the exit code.
func (r *report) emit(specs []metricSpec) int {
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "")
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s was not measured", m.Name))
			line.Correct = false
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		note := r.notes[m.Name]
		if m.Moves != "" {
			note += " [moves: " + m.Moves + "]"
		}
		fmt.Printf("  %-28s %14.6g %-8s %s\n", m.Name, v, m.Unit, note)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Correct = false
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; it fixes every generated input")
	seconds := flag.Int("seconds", runSeconds, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace files and scratch data")
	probe := flag.Bool("setup-probe", false, "time one set-up of --workload and print it (used by the driver itself)")
	writeJSON := flag.String("write-benchmark-json", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	if *writeJSON != "" {
		b, err := benchmarkJSON()
		if err == nil {
			err = os.WriteFile(*writeJSON, b, 0o644)
		}
		if err != nil {
			fatal("%v", err)
		}
		return
	}
	if !knownWorkload(*workload) {
		fatal("unknown workload %q (choose from %s)", *workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		fatal("--trace must be 0 or 1")
	}
	if pipeConfigFor(*workload).workers == 1 {
		runtime.GOMAXPROCS(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fatal("%v", err)
	}
	if *probe {
		setupS, loadS, err := setupOnce(*workload, scratch)
		os.RemoveAll(scratch)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("{\"setup_s\":%g,\"load_s\":%g}\n", setupS, loadS)
		return
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		scratch:  scratch,
	}
	if cfg.traced {
		cfg.tracePath = filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host %s\n", fingerprint())
	rep := newReport()
	if *workload == "serve-mix" {
		runServeMix(cfg, rep)
	} else {
		runPipeline(cfg, rep)
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	code := rep.emit(specs)
	os.RemoveAll(scratch)
	os.Exit(code)
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      uint64
	window    time.Duration
	traced    bool
	scratch   string // removed at exit
	tracePath string // traced runs write their spans here
}

// setupProbes is how many separate processes time the set-up; setup_s
// is their median.
const setupProbes = 9

// measureSetup times the workload's set-up in fresh processes of this
// binary, so that no in-memory cache of the measuring process is
// reused, and returns the median set-up and zoo-load seconds.
func measureSetup(cfg runConfig) (setupS, loadS float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var setups, loads []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", cfg.workload, "--out", cfg.scratch)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, 0, fmt.Errorf("setup probe: %w", err)
		}
		var p struct {
			SetupS float64 `json:"setup_s"`
			LoadS  float64 `json:"load_s"`
		}
		if err := json.Unmarshal(b, &p); err != nil {
			return 0, 0, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		setups = append(setups, p.SetupS)
		loads = append(loads, p.LoadS)
	}
	return median(setups), median(loads), nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
