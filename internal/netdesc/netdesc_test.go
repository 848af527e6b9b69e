package netdesc

import (
	"bytes"
	"strings"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/tensor"
	"mupod/internal/zoo"
)

const sample = `
# a small branchy network
network demo input=3x8x8 classes=10 seed=7

conv    stem   in=input inc=3 outc=8 k=3 stride=1 pad=1
relu    r1     in=stem
maxpool p1     in=r1 k=2 stride=2
conv    a      in=p1 inc=8 outc=4 k=1
conv    b      in=p1 inc=8 outc=4 k=3 pad=1
concat  cc     in=a,b
add     res    in=cc,p1
gap     g      in=res
fc      logits in=g infeatures=8 outfeatures=10 analyzable=false
`

func TestParseBuildsNetwork(t *testing.T) {
	net, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "demo" || net.NumClasses != 10 {
		t.Fatalf("header parsed wrong: %s/%d", net.Name, net.NumClasses)
	}
	if len(net.Nodes) != 10 { // input + 9 layers
		t.Fatalf("%d nodes", len(net.Nodes))
	}
	// fc marked not analyzable, convs analyzable → 3 analyzable layers.
	if got := len(net.AnalyzableNodes()); got != 3 {
		t.Fatalf("%d analyzable layers", got)
	}
	// The seed must have initialized weights.
	if net.Params()[0].Value.MaxAbs() == 0 {
		t.Fatal("seeded parse left zero weights")
	}
	// And the network must actually run.
	out := exec.NewSession(exec.NewPlan(net)).Forward(tensor.New(2, 3, 8, 8))
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("forward shape %v", out.Shape)
	}
}

func TestParseWithoutSeedLeavesZeroWeights(t *testing.T) {
	desc := strings.Replace(sample, " seed=7", "", 1)
	net, err := Parse(strings.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	if net.Params()[0].Value.MaxAbs() != 0 {
		t.Fatal("unseeded parse initialized weights")
	}
}

func TestRoundTrip(t *testing.T) {
	net, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, net); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-parsing serialized network: %v\n%s", err, buf.String())
	}
	if len(again.Nodes) != len(net.Nodes) {
		t.Fatalf("round trip changed node count %d → %d", len(net.Nodes), len(again.Nodes))
	}
	for i, nd := range net.Nodes {
		if again.Nodes[i].Name != nd.Name || again.Nodes[i].Analyzable != nd.Analyzable {
			t.Fatalf("node %d changed: %+v vs %+v", i, nd, again.Nodes[i])
		}
		for j, in := range nd.Inputs {
			if again.Nodes[i].Inputs[j] != in {
				t.Fatalf("node %d inputs changed", i)
			}
		}
	}
}

func TestWriteZooNetworksRoundTrip(t *testing.T) {
	// Every zoo topology must survive a serialize→parse round trip —
	// the DSL must cover everything the repository builds.
	for _, a := range zoo.All {
		net := zoo.Build(a, 1)
		var buf bytes.Buffer
		if err := Write(&buf, net); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if len(again.Nodes) != len(net.Nodes) {
			t.Fatalf("%s: node count %d → %d", a, len(net.Nodes), len(again.Nodes))
		}
		if len(again.AnalyzableNodes()) != len(net.AnalyzableNodes()) {
			t.Fatalf("%s: analyzable count changed", a)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "conv c in=input inc=1 outc=1 k=1",
		"duplicate header": "network a input=1x2x2 classes=2\nnetwork b input=1x2x2 classes=2",
		"bad shape":        "network a input=1x2 classes=2",
		"bad classes":      "network a input=1x2x2 classes=x",
		"unknown kind":     "network a input=1x2x2 classes=2\nwarp w in=input",
		"unknown input":    "network a input=1x2x2 classes=2\nrelu r in=nope",
		"missing in":       "network a input=1x2x2 classes=2\nrelu r",
		"duplicate name":   "network a input=1x2x2 classes=2\nrelu r in=input\nrelu r in=input",
		"missing attr":     "network a input=1x2x2 classes=2\nconv c in=input inc=1 k=1",
		"malformed attr":   "network a input=1x2x2 classes=2\nrelu r in=input =3",
		"bad analyzable":   "network a input=1x2x2 classes=2\nconv c in=input inc=1 outc=1 k=1 analyzable=maybe",
		"empty":            "# nothing here",
		"no layers":        "network a input=1x2x2 classes=2",
	}
	for name, desc := range cases {
		if _, err := Parse(strings.NewReader(desc)); err == nil {
			t.Errorf("%s: parse accepted invalid input", name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	desc := `network a input=2x4x4 classes=2 seed=1
conv c in=input inc=2 outc=2 k=3 pad=1
maxpool p in=c k=2
gap g in=p
`
	net, err := Parse(strings.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	// maxpool stride defaults to k.
	out := exec.NewSession(exec.NewPlan(net)).Forward(tensor.New(1, 2, 4, 4))
	if out.Shape[1] != 2 {
		t.Fatalf("forward shape %v", out.Shape)
	}
}
