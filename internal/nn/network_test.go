package nn

import (
	"bytes"
	"path/filepath"
	"testing"

	"mupod/internal/kernels"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// buildBranchy returns a small DAG exercising every structural feature:
// conv → relu → {branch A conv, branch B conv} → concat → conv →
// residual add → gap → fc.
func buildBranchy(seed uint64) *Network {
	r := rng.New(seed)
	n := NewNetwork("branchy", []int{2, 4, 4}, 3)
	c0 := NewConv2D(2, 4, 3, 1, 1)
	c0.InitHe(r, 1)
	x := n.AddNode("stem", c0, 0)
	x = n.AddNode("relu0", ReLU{}, x)
	a := NewConv2D(4, 2, 1, 1, 0)
	a.InitHe(r, 1)
	ba := n.AddNode("branchA", a, x)
	b := NewConv2D(4, 2, 3, 1, 1)
	b.InitHe(r, 1)
	bb := n.AddNode("branchB", b, x)
	cc := n.AddNode("concat", Concat{}, ba, bb)
	c1 := NewConv2D(4, 4, 1, 1, 0)
	c1.InitHe(r, 1)
	main := n.AddNode("proj", c1, cc)
	add := n.AddNode("residual", Add{}, main, x)
	gap := n.AddNode("gap", GlobalAvgPool{}, add)
	fc := NewDense(4, 3)
	fc.InitHe(r, 1)
	n.AddNode("fc", fc, gap)
	return n
}

// forwardAll walks n in node order with Apply — all the graph tests
// here need; pooled execution and injection live in internal/exec.
func forwardAll(n *Network, x *tensor.Tensor) []*tensor.Tensor {
	acts := make([]*tensor.Tensor, len(n.Nodes))
	acts[0] = x
	for _, nd := range n.Nodes[1:] {
		ins := make([]*tensor.Tensor, len(nd.Inputs))
		for i, in := range nd.Inputs {
			ins[i] = acts[in]
		}
		acts[nd.ID] = Apply(kernels.Default(), nd.Layer, ins)
	}
	return acts
}

func TestNetworkForwardShapes(t *testing.T) {
	n := buildBranchy(1)
	x := tensor.New(2, 2, 4, 4)
	acts := forwardAll(n, x)
	out := acts[len(acts)-1]
	if out.Shape[0] != 2 || out.Shape[1] != 3 {
		t.Fatalf("output shape %v", out.Shape)
	}
}

func TestForwardAllMatchesNodeShapes(t *testing.T) {
	n := buildBranchy(1)
	acts := forwardAll(n, tensor.New(3, 2, 4, 4))
	for _, nd := range n.Nodes {
		got := acts[nd.ID].Shape
		if got[0] != 3 {
			t.Fatalf("node %s batch %d", nd.Name, got[0])
		}
		for i, d := range nd.Shape {
			if got[i+1] != d {
				t.Fatalf("node %s shape %v vs declared %v", nd.Name, got, nd.Shape)
			}
		}
	}
}

func TestAnalyzableNodes(t *testing.T) {
	n := buildBranchy(1)
	ids := n.AnalyzableNodes()
	// stem, branchA, branchB, proj, fc = 5 dot-product layers.
	if len(ids) != 5 {
		t.Fatalf("analyzable = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("analyzable nodes not in topological order")
		}
	}
	// Clearing the flag removes a node from the list.
	n.NodeByName("fc").Analyzable = false
	if len(n.AnalyzableNodes()) != 4 {
		t.Fatal("Analyzable flag not honored")
	}
}

func TestAddNodeValidation(t *testing.T) {
	n := NewNetwork("x", []int{1, 2, 2}, 2)
	mustPanic(t, func() { n.AddNode("bad", ReLU{}) })     // no inputs
	mustPanic(t, func() { n.AddNode("bad", ReLU{}, 5) })  // out of range
	mustPanic(t, func() { n.AddNode("bad", ReLU{}, -1) }) // negative
}

func TestInputAndMACCounts(t *testing.T) {
	n := buildBranchy(7)
	stem := n.NodeByName("stem").ID
	if got := n.InputCount(stem); got != 2*4*4 {
		t.Fatalf("InputCount(stem) = %d", got)
	}
	if got := n.MACCount(stem); got != 4*4*4*2*9 {
		t.Fatalf("MACCount(stem) = %d", got)
	}
	if got := n.MACCount(n.NodeByName("gap").ID); got != 0 {
		t.Fatalf("MACCount(gap) = %d", got)
	}
	// TotalMACs includes non-analyzable dot layers.
	n.NodeByName("fc").Analyzable = false
	withFC := n.TotalMACs()
	if withFC <= 0 {
		t.Fatal("TotalMACs not positive")
	}
	sum := 0
	for _, id := range n.AnalyzableNodes() {
		sum += n.MACCount(id)
	}
	if withFC != sum+n.MACCount(n.NodeByName("fc").ID) {
		t.Fatal("TotalMACs miscounts excluded FC layers")
	}
}

func TestParamsAndZeroGrads(t *testing.T) {
	n := buildBranchy(8)
	ps := n.Params()
	if len(ps) != 10 { // 5 dot layers × (W, B)
		t.Fatalf("%d params", len(ps))
	}
	for _, p := range ps {
		p.Grad.Fill(1)
	}
	n.ZeroGrads()
	for _, p := range ps {
		if p.Grad.MaxAbs() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
	if n.NumParams() <= 0 {
		t.Fatal("NumParams not positive")
	}
}

func TestSummaryMentionsEveryNode(t *testing.T) {
	n := buildBranchy(9)
	s := n.Summary()
	for _, nd := range n.Nodes[1:] {
		if !bytes.Contains([]byte(s), []byte(nd.Name)) {
			t.Fatalf("summary missing node %s", nd.Name)
		}
	}
}

func TestSaveLoadParamsRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.params.gz")
	a := buildBranchy(10)
	if err := a.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	b := buildBranchy(11) // different init, same topology
	if err := b.LoadParams(path); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("loaded params differ")
			}
		}
	}
}

func TestLoadParamsRejectsMismatchedTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.params.gz")
	a := buildBranchy(12)
	if err := a.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	other := NewNetwork("other", []int{2, 4, 4}, 3)
	c := NewConv2D(2, 1, 1, 1, 0)
	other.AddNode("conv1", c, 0)
	if err := other.LoadParams(path); err == nil {
		t.Fatal("mismatched topology loaded without error")
	}
}

func TestLoadParamsMissingFile(t *testing.T) {
	n := buildBranchy(13)
	if err := n.LoadParams(filepath.Join(t.TempDir(), "nope.gz")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}
