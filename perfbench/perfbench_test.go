package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestMain lets measureSetup re-execute the test binary as a set-up
// probe, as it does the perfbench binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestJobSeedsDeterministic(t *testing.T) {
	a, b := jobSeeds(7, 64), jobSeeds(7, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same workload seed gave different job seeds")
	}
	if reflect.DeepEqual(a, jobSeeds(8, 64)) {
		t.Fatal("different workload seeds gave the same job seeds")
	}
}

func TestServePlanDeterministic(t *testing.T) {
	a, b := planServe(7, runSeconds*time.Second), planServe(7, runSeconds*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same workload seed gave different serve-mix plans")
	}
	if reflect.DeepEqual(a, planServe(8, runSeconds*time.Second)) {
		t.Fatal("different workload seeds gave the same plan")
	}
}

// TestServePlanShares checks that the planned miss and Pareto shares
// match the sequence: one of each per block, repeats only of requests
// old enough, and the warm-up request repeated last.
func TestServePlanShares(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := planServe(seed, runSeconds*time.Second)
		timed := p.Jobs[:len(p.Jobs)-1]
		firstSeen := map[int]int{}
		for req := 0; req < warmRequests; req++ {
			firstSeen[req] = -minRepeatGap
		}
		var misses, paretos int
		for i, j := range timed {
			switch j.Kind {
			case kindMiss:
				misses++
				if _, ok := firstSeen[j.Req]; ok {
					t.Fatalf("seed %d arrival %d: a miss reuses request %d", seed, i, j.Req)
				}
				firstSeen[j.Req] = i
			default:
				if j.Kind == kindPareto {
					paretos++
				}
				first, ok := firstSeen[j.Req]
				if !ok || i-first < minRepeatGap {
					t.Fatalf("seed %d arrival %d: repeat of request %d introduced at %d", seed, i, j.Req, first)
				}
			}
			if i%blockLen == blockLen-1 && (misses != (i+1)/blockLen || paretos != (i+1)/blockLen) {
				t.Fatalf("seed %d: after %d arrivals %d misses and %d Pareto jobs, want %d each",
					seed, i+1, misses, paretos, (i+1)/blockLen)
			}
		}
		if last := p.Jobs[len(p.Jobs)-1]; last.Req != 0 || last.Kind != kindHit {
			t.Fatalf("seed %d: last arrival %+v does not repeat the warm-up request", seed, last)
		}
		if len(p.ReqSeeds) != misses+warmRequests {
			t.Fatalf("seed %d: %d distinct requests for %d misses", seed, len(p.ReqSeeds), misses)
		}
		miss, par := p.shares()
		n := float64(len(p.Jobs))
		if miss != float64(misses)/n || par != float64(paretos)/n {
			t.Fatalf("seed %d: shares %.3f/%.3f, sequence has %d/%d of %d", seed, miss, par, misses, paretos, len(p.Jobs))
		}
		if miss < 0.08 || miss > 0.2 || par < 0.08 || par > 0.2 {
			t.Fatalf("seed %d: shares %.3f/%.3f stray from 1/8", seed, miss, par)
		}
	}
}

// TestBenchmarkJSON checks that the committed BENCHMARK.json is the one
// the metric tables generate, and that it keeps the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with bash perfbench/run.sh --write-benchmark-json BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
}

// TestEmitNames checks that the result line carries exactly the metric
// names of BENCHMARK.json, and that a missing metric fails the run.
func TestEmitNames(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		r := newReport()
		r.attempted = 1
		for _, m := range specs {
			r.set(m.Name, 1, "")
		}
		line, code := emitTo(t, r, specs)
		if code != 0 || !line.Correct {
			t.Fatalf("complete report failed: code %d", code)
		}
		if len(line.Metrics) != len(specs) {
			t.Fatalf("%d metrics printed, want %d", len(line.Metrics), len(specs))
		}
		for _, m := range specs {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Fatalf("metric %s missing or with unit %q", m.Name, got.Unit)
			}
		}
	}
	r := newReport()
	r.attempted = 1
	if line, code := emitTo(t, r, endToEnd); code == 0 || line.Correct {
		t.Fatal("a report missing its metrics passed")
	}
}

// emitTo runs r.emit with standard output captured and parses its last
// line.
func emitTo(t *testing.T, r *report, specs []metricSpec) (resultLine, int) {
	t.Helper()
	old := os.Stdout
	rd, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := r.emit(specs)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	buf.ReadFrom(rd)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line, code
}

// TestSmoke runs every workload for one timed job (a zero-second
// window), the same as `run.sh --seconds 0`. The first run in a fresh
// zoo cache trains the networks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline and the daemon")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{workload: w.Name, seed: 3, scratch: t.TempDir()}
			rep := newReport()
			if w.Name == "serve-mix" {
				runServeMix(cfg, rep)
			} else {
				runPipeline(cfg, rep)
			}
			if rep.attempted != 1 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.problems)
			}
			if line, code := emitTo(t, rep, endToEnd); code != 0 || !line.Correct {
				t.Fatalf("smoke run incorrect: %v", rep.problems)
			}
		})
	}
}
