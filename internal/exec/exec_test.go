package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/refcheck"
	"mupod/internal/rng"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

// branchy builds a small DAG with a residual branch and a concat so
// the downstream sets are non-trivial (not every successor is
// affected by every node).
func branchy() *nn.Network {
	net := nn.NewNetwork("branchy", []int{2, 8, 8}, 3)
	r := rng.New(7)
	c1 := nn.NewConv2D(2, 4, 3, 1, 1)
	c1.InitHe(r, 1)
	a := net.AddNode("conv1", c1, 0)
	a = net.AddNode("relu1", nn.ReLU{}, a)
	// Two independent branches off relu1.
	cb1 := nn.NewConv2D(4, 4, 3, 1, 1)
	cb1.InitHe(r, 1)
	b1 := net.AddNode("branch1", cb1, a)
	cb2 := nn.NewConv2D(4, 4, 3, 1, 1)
	cb2.InitHe(r, 1)
	b2 := net.AddNode("branch2", cb2, a)
	sum := net.AddNode("add", nn.Add{}, b1, b2)
	cat := net.AddNode("concat", nn.Concat{}, sum, a)
	g := net.AddNode("gap", nn.GlobalAvgPool{}, cat)
	fc := nn.NewDense(8, 3)
	fc.InitHe(r, 1)
	net.AddNode("fc", fc, g)
	return net
}

func TestPlanDownstreamMatchesBruteForce(t *testing.T) {
	net := branchy()
	p := exec.NewPlan(net)
	for start := 1; start < len(net.Nodes); start++ {
		// Brute force: scan every successor for a dirty input.
		dirty := make([]bool, len(net.Nodes))
		dirty[start] = true
		var want []int
		for id := start + 1; id < len(net.Nodes); id++ {
			for _, in := range net.Nodes[id].Inputs {
				if dirty[in] {
					dirty[id] = true
					want = append(want, id)
					break
				}
			}
		}
		got := p.Downstream(start)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("node %d: downstream %v, want %v", start, got, want)
		}
	}
	// branch1's perturbation must skip branch2 but hit add/concat/gap/fc.
	b1 := net.NodeByName("branch1").ID
	b2 := net.NodeByName("branch2").ID
	for _, id := range p.Downstream(b1) {
		if id == b2 {
			t.Fatal("independent branch marked downstream")
		}
	}
}

func TestPlanOutSize(t *testing.T) {
	net := branchy()
	p := exec.NewPlan(net)
	x := tensor.New(2, 2, 8, 8)
	acts := exec.NewSession(p).ForwardAll(x)
	for id, a := range acts {
		if a.Len() != 2*p.OutSize(id) {
			t.Errorf("node %d: OutSize %d, activation %d elems for batch 2", id, p.OutSize(id), a.Len())
		}
	}
}

// randInput returns a deterministic uniform [-1, 1) batch.
func randInput(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	r := rng.New(seed)
	for i := range x.Data {
		x.Data[i] = r.Uniform(-1, 1)
	}
	return x
}

// TestSessionReplayMatchesForwardInject verifies the suffix replay is
// bit-identical to a full injected forward with the same single
// injection, for every analyzable node, on both the branchy DAG and
// the shared trained fixture. The cached activations come from a
// separate clean session and must survive the replays untouched.
func TestSessionReplayMatchesForwardInject(t *testing.T) {
	tn, _, te := testnet.Trained()
	cases := []struct {
		name string
		net  *nn.Network
		x    *tensor.Tensor
	}{
		{"branchy", branchy(), randInput(11, 3, 2, 8, 8)},
		{"testnet", tn, te.Batch(0, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := exec.NewPlan(tc.net)
			acts := exec.NewSession(plan).ForwardAll(tc.x)
			snapshot := cloneAll(acts)
			replay, full := exec.NewSession(plan), exec.NewSession(plan)
			for _, id := range tc.net.AnalyzableNodes() {
				for trial := 0; trial < 3; trial++ {
					seed := uint64(id*100 + trial)
					inj := func() nn.Injector {
						return profile.UniformInjector(rng.New(seed), 0.05, false)
					}
					got := replay.Replay(acts, id, inj())
					want := full.ForwardInject(tc.x, map[int]nn.Injector{id: inj()})
					if len(got.Data) != len(want.Data) {
						t.Fatalf("node %d: length %d vs %d", id, len(got.Data), len(want.Data))
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("node %d trial %d: replay logit[%d] = %v, full forward %v", id, trial, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
			assertUnchanged(t, acts, snapshot)
		})
	}
}

// TestSessionForwardMatchesRefcheck pins the pooled forward pass to
// the independent reference kernels, including after a batch-size
// change; a reused session's injected forward must stay bit-identical
// to a fresh session's across the same resizes.
func TestSessionForwardMatchesRefcheck(t *testing.T) {
	net, _, te := testnet.Trained()
	plan := exec.NewPlan(net)
	sess := exec.NewSession(plan)
	injPlan := func() map[int]nn.Injector {
		m := map[int]nn.Injector{}
		for _, id := range net.AnalyzableNodes() {
			m[id] = profile.UniformInjector(rng.New(uint64(id)), 0.02, false)
		}
		return m
	}
	for _, bs := range []int{8, 8, 3} { // repeat + shrink exercises arena reuse/resize
		x := te.Batch(0, bs)
		diff, err := refcheck.CompareTensors(sess.Forward(x), refcheck.ForwardNetwork(net, x))
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		if diff > refcheck.ForwardTol {
			t.Fatalf("batch %d: forward diverges from reference by %g", bs, diff)
		}
		got := sess.ForwardInject(x, injPlan())
		want := exec.NewSession(plan).ForwardInject(x, injPlan())
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: reused-session injected forward diverges at %d", bs, i)
			}
		}
	}
}

// TestSessionReplayMatchesFullForward checks the suffix replay against
// an independent full forward: the reference kernels walk every node,
// with the same fixed perturbation applied to a copy of the injected
// node's first input.
func TestSessionReplayMatchesFullForward(t *testing.T) {
	net := branchy()
	plan := exec.NewPlan(net)
	x := randInput(7, 2, 2, 8, 8)
	acts := exec.NewSession(plan).ForwardAll(x)
	sess := exec.NewSession(plan)
	bump := func(t_ *tensor.Tensor) {
		for i := range t_.Data {
			t_.Data[i] += 0.01 * float64(i%3)
		}
	}
	for _, id := range net.AnalyzableNodes() {
		ref := make([]*tensor.Tensor, len(net.Nodes))
		ref[0] = x
		for _, nd := range net.Nodes[1:] {
			ins := make([]*tensor.Tensor, len(nd.Inputs))
			for i, in := range nd.Inputs {
				ins[i] = ref[in]
			}
			if nd.ID == id {
				ins[0] = ins[0].Clone()
				bump(ins[0])
			}
			ref[nd.ID] = refcheck.ForwardLayer(nd.Layer, ins)
		}
		diff, err := refcheck.CompareTensors(sess.Replay(acts, id, bump), ref[len(ref)-1])
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		if diff > refcheck.ForwardTol {
			t.Fatalf("node %d: replay diverges from reference full forward by %g", id, diff)
		}
	}
}

func TestSessionReplayNoopInjection(t *testing.T) {
	net := branchy()
	plan := exec.NewPlan(net)
	acts := exec.NewSession(plan).ForwardAll(randInput(3, 1, 2, 8, 8))
	exact := acts[len(acts)-1]
	out := exec.NewSession(plan).Replay(acts, net.AnalyzableNodes()[0], func(*tensor.Tensor) {})
	for i := range out.Data {
		if out.Data[i] != exact.Data[i] {
			t.Fatal("no-op injection changed the output")
		}
	}
}

// TestSessionReplayDoesNotMutateCache: the ForwardAll activations of
// session A are the profiler's cache; replays on session B, injected
// at every node, must leave every one of them untouched.
func TestSessionReplayDoesNotMutateCache(t *testing.T) {
	net := branchy()
	plan := exec.NewPlan(net)
	x := tensor.New(1, 2, 8, 8)
	x.Fill(0.5)
	acts := exec.NewSession(plan).ForwardAll(x)
	snapshot := cloneAll(acts)
	b := exec.NewSession(plan)
	for id := 1; id < len(net.Nodes); id++ {
		b.Replay(acts, id, func(t_ *tensor.Tensor) { t_.Fill(99) })
	}
	assertUnchanged(t, acts, snapshot)
}

func TestSessionReplayPanicsOnBadNode(t *testing.T) {
	net := branchy()
	plan := exec.NewPlan(net)
	a := exec.NewSession(plan)
	acts := a.ForwardAll(tensor.New(1, 2, 8, 8))
	noop := func(*tensor.Tensor) {}
	b := exec.NewSession(plan)
	mustPanic(t, "node 0", func() { b.Replay(acts, 0, noop) })
	mustPanic(t, "node 99", func() { b.Replay(acts, 99, noop) })
	// Replaying a session's own view would write into the cache.
	mustPanic(t, "own activations", func() { a.Replay(acts, 1, noop) })
}

// TestSessionForwardInjectIsolatesSharedTensors: branch1 and branch2
// share relu1's output; zeroing branch1's input must leave what
// branch2 sees untouched.
func TestSessionForwardInjectIsolatesSharedTensors(t *testing.T) {
	net := branchy()
	plan := exec.NewPlan(net)
	x := randInput(6, 1, 2, 8, 8)
	shared := exec.NewSession(plan).ForwardAll(x)[net.NodeByName("relu1").ID].Clone()
	var seen *tensor.Tensor
	exec.NewSession(plan).ForwardInject(x, map[int]nn.Injector{
		net.NodeByName("branch1").ID: func(t_ *tensor.Tensor) { t_.Fill(0) },
		net.NodeByName("branch2").ID: func(t_ *tensor.Tensor) { seen = t_.Clone() },
	})
	if shared.MaxAbs() == 0 {
		t.Fatal("degenerate fixture: shared activation is all zero")
	}
	for i := range shared.Data {
		if seen.Data[i] != shared.Data[i] {
			t.Fatalf("branch2 saw branch1's injection at element %d", i)
		}
	}
}

func cloneAll(acts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(acts))
	for i, a := range acts {
		out[i] = a.Clone()
	}
	return out
}

func assertUnchanged(t *testing.T, acts, snapshot []*tensor.Tensor) {
	t.Helper()
	for id := range acts {
		for i := range acts[id].Data {
			if acts[id].Data[i] != snapshot[id].Data[i] {
				t.Fatalf("replay mutated cached activation of node %d", id)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
}

// TestConcurrentSessionsShareOnePlan is the race-detector coverage:
// many sessions replay and forward concurrently against one Plan and
// one Network, asserting bit-identical results per goroutine.
func TestConcurrentSessionsShareOnePlan(t *testing.T) {
	net, _, te := testnet.Trained()
	p := exec.NewPlan(net)
	x := te.Batch(0, 4)
	acts := exec.NewSession(p).ForwardAll(x)
	ids := net.AnalyzableNodes()

	// Reference outputs, computed sequentially.
	ref := make(map[int][]float64, len(ids))
	seq := exec.NewSession(p)
	for _, id := range ids {
		out := seq.Replay(acts, id, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
		ref[id] = append([]float64(nil), out.Data...)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := exec.NewSession(p)
			for rep := 0; rep < 5; rep++ {
				id := ids[(g+rep)%len(ids)]
				out := sess.Replay(acts, id, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
				for i, v := range ref[id] {
					if out.Data[i] != v {
						errc <- fmt.Errorf("goroutine %d: node %d diverged under concurrency", g, id)
						return
					}
				}
				sess.Forward(x)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestEvaluatorDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 97
	run := func(workers int) []float64 {
		// Pre-split one RNG per item, as real callers do.
		base := rng.New(42)
		rngs := make([]*rng.RNG, n)
		for i := range rngs {
			rngs[i] = base.Split()
		}
		out := make([]float64, n)
		err := exec.NewEvaluator(workers).Map(context.Background(), n, func(_ context.Context, _, i int) error {
			out[i] = rngs[i].Uniform(-1, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs", w, i)
			}
		}
	}
}

func TestEvaluatorWorkerIndexBounded(t *testing.T) {
	e := exec.NewEvaluator(3)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := e.Map(context.Background(), 50, func(_ context.Context, w, _ int) error {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range seen {
		if w < 0 || w >= 3 {
			t.Fatalf("worker index %d out of [0,3)", w)
		}
	}
}

func TestEvaluatorReportsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := exec.NewEvaluator(workers).Map(context.Background(), 20, func(_ context.Context, _, i int) error {
			if i == 7 {
				return fmt.Errorf("item %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestEvaluatorHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := exec.NewEvaluator(workers).Map(ctx, 100, func(ctx context.Context, _, _ int) error {
			return ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestEvaluatorDefaultsToGOMAXPROCS(t *testing.T) {
	if exec.NewEvaluator(0).Workers() < 1 {
		t.Fatal("default worker count < 1")
	}
	if exec.NewEvaluator(-3).Workers() < 1 {
		t.Fatal("negative worker count not clamped")
	}
}
