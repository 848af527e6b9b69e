package testnet

import (
	"testing"

	"mupod/internal/exec"
	"mupod/internal/nn"
)

// Every layer kind the execution engine runs must be reachable through
// some zoo fixture, or the differential self-check has a blind spot.
func TestZooCoversAllLayerKinds(t *testing.T) {
	want := map[string]bool{
		"conv": false, "dwconv": false, "fc": false, "flatten": false,
		"relu": false, "maxpool": false, "avgpool": false, "gap": false,
		"add": false, "concat": false,
	}
	for _, f := range Zoo() {
		for _, node := range f.Net.Nodes {
			if node.Layer == nil { // the input placeholder node
				continue
			}
			kind := node.Layer.Kind()
			if _, ok := want[kind]; ok {
				want[kind] = true
			}
		}
	}
	for kind, seen := range want {
		if !seen {
			t.Errorf("no zoo fixture contains a %q layer", kind)
		}
	}
}

func TestZooNetsForwardAndClassify(t *testing.T) {
	for _, f := range Zoo() {
		sess := exec.NewSession(exec.NewPlan(f.Net))
		out := sess.Forward(f.Test.Batch(0, 16))
		preds := nn.Argmax(out)
		if len(preds) != 16 {
			t.Fatalf("%s: %d predictions for 16 images", f.Name, len(preds))
		}
		correct := 0
		n := f.Test.Len()
		for start := 0; start < n; start += 32 {
			size := 32
			if start+size > n {
				size = n - start
			}
			for i, p := range nn.Argmax(sess.Forward(f.Test.Batch(start, size))) {
				if p == f.Test.Labels[start+i] {
					correct++
				}
			}
		}
		if acc := float64(correct) / float64(n); acc < 0.5 {
			t.Errorf("%s: trained fixture accuracy %.2f (should beat chance comfortably)", f.Name, acc)
		}
	}
}

func TestZooDeterministic(t *testing.T) {
	net, _, te := ZooNet("dwsep")
	sess := exec.NewSession(exec.NewPlan(net))
	a := nn.Argmax(sess.Forward(te.Batch(0, 8)))
	b := nn.Argmax(sess.Forward(te.Batch(0, 8)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated forward passes disagree")
		}
	}
	if _, _, third := ZooNet("dwsep"); third != te {
		t.Fatal("ZooNet must memoize the shared splits")
	}
}
