package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.", "kind", "a")
	c2 := r.Counter("test_events_total", "Events.", "kind", "b")
	g := r.Gauge("test_depth", "Depth.")
	fc := r.FloatCounter("test_busy_seconds_total", "Busy.")
	r.GaugeFunc("test_live", "Live.", func() float64 { return 3 })

	c.Add(2)
	c.Inc()
	c2.Inc()
	g.Set(7)
	g.Add(-2)
	fc.Add(0.25)
	fc.Add(0.25)

	var sb strings.Builder
	r.Write(&sb)
	want := `# HELP test_events_total Events.
# TYPE test_events_total counter
test_events_total{kind="a"} 3
test_events_total{kind="b"} 1
# HELP test_depth Depth.
# TYPE test_depth gauge
test_depth 5
# HELP test_busy_seconds_total Busy.
# TYPE test_busy_seconds_total counter
test_busy_seconds_total 0.5
# HELP test_live Live.
# TYPE test_live gauge
test_live 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n got: %q\nwant: %q", sb.String(), want)
	}
}

func TestSameSeriesReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", "k", "v")
	b := r.Counter("x_total", "X.", "k", "v")
	if a != b {
		t.Fatal("same name+labels must return the same series")
	}
	h1 := r.LatencyHistogram("h", "H.", "k", "v")
	h2 := r.LatencyHistogram("h", "H.", "k", "v")
	if h1 != h2 {
		t.Fatal("same histogram series expected")
	}
}

// parseHistogram pulls the bucket counts, sum and count for one
// histogram series out of exposition text.
func parseHistogram(t *testing.T, text, name, labels string) (les []float64, cum []uint64, sum float64, count uint64) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, prefix):
			rest := strings.TrimPrefix(line, prefix)
			var leStr string
			if _, err := fmt.Sscanf(rest, "le=%q", &leStr); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", leStr, err)
				}
			}
			fields := strings.Fields(line)
			n, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			les = append(les, le)
			cum = append(cum, n)
		case strings.HasPrefix(line, name+"_sum"):
			fields := strings.Fields(line)
			var err error
			sum, err = strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
		case strings.HasPrefix(line, name+"_count"):
			fields := strings.Fields(line)
			var err error
			count, err = strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
		}
	}
	if len(les) == 0 {
		t.Fatalf("no buckets found for %s in:\n%s", name, text)
	}
	return les, cum, sum, count
}

func TestHistogramExpositionCorrectness(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_latency_seconds", "Latency.")
	// Each value sits more than one sub-bucket width (1/32) below the
	// next DefaultLatencyBuckets bound, so its coarse bucket is exact.
	obs := []float64{0.003, 0.007, 0.03, 0.3, 2, 3}
	wantSum := 0.0
	for _, v := range obs {
		h.ObserveSeconds(v)
		wantSum += v
	}

	var sb strings.Builder
	r.Write(&sb)
	les, cum, sum, count := parseHistogram(t, sb.String(), "test_latency_seconds", "")

	// Cumulative buckets must be monotone non-decreasing in le order.
	for i := 1; i < len(cum); i++ {
		if les[i] <= les[i-1] {
			t.Errorf("le bounds not increasing: %v", les)
		}
		if cum[i] < cum[i-1] {
			t.Errorf("cumulative counts not monotone: %v", cum)
		}
	}
	// +Inf bucket equals _count.
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("last bucket is %v, want +Inf", les[len(les)-1])
	}
	if cum[len(cum)-1] != count {
		t.Errorf("+Inf bucket %d != _count %d", cum[len(cum)-1], count)
	}
	if count != uint64(len(obs)) {
		t.Errorf("_count = %d, want %d", count, len(obs))
	}
	// _sum matches the observations (recorded in whole nanoseconds).
	if math.Abs(sum-wantSum) > 1e-8 {
		t.Errorf("_sum = %v, want %v", sum, wantSum)
	}
	// Spot-check bucket placement against the default bounds.
	want := map[float64]uint64{0.005: 1, 0.01: 2, 0.05: 3, 0.5: 4, 2.5: 5, 5: 6}
	for i, le := range les {
		if w, ok := want[le]; ok && cum[i] != w {
			t.Errorf("le=%g bucket = %d, want %d", le, cum[i], w)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_hammer_seconds", "Hammered.")
	const goroutines = 16
	const perG = 2000
	// One goroutine keeps rendering while the others observe, so the
	// race detector sees exposition racing against updates too.
	stop := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				r.Write(&sb)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.ObserveSeconds(float64(i*perG+j) * 1e-5)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-rendered

	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var sb strings.Builder
	r.Write(&sb)
	_, cum, _, count := parseHistogram(t, sb.String(), "test_hammer_seconds", "")
	if cum[len(cum)-1] != count || count != goroutines*perG {
		t.Fatalf("+Inf=%d _count=%d want %d", cum[len(cum)-1], count, goroutines*perG)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var fc *FloatCounter
	var g *Gauge
	var h *LatencyHistogram
	c.Add(1)
	c.Inc()
	fc.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Snapshot().SumNS != 0 {
		t.Fatal("nil receivers must read as zero")
	}
}

func TestHistogramLabelled(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_stage_seconds", "Stage.", "stage", "solve")
	h.ObserveSeconds(1.5)
	var sb strings.Builder
	r.Write(&sb)
	for _, want := range []string{
		`test_stage_seconds_bucket{stage="solve",le="1"} 0`,
		`test_stage_seconds_bucket{stage="solve",le="2.5"} 1`,
		`test_stage_seconds_bucket{stage="solve",le="+Inf"} 1`,
		`test_stage_seconds_sum{stage="solve"} 1.5`,
		`test_stage_seconds_count{stage="solve"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, sb.String())
		}
	}
}
