package nn

import (
	"fmt"

	"mupod/internal/tensor"
)

// Node is one vertex of a Network DAG.
type Node struct {
	ID     int
	Name   string
	Layer  Layer // nil for the input placeholder (node 0)
	Inputs []int // predecessor node IDs, all < ID

	// Analyzable marks the dot-product layers whose INPUT bitwidth the
	// paper's method allocates (conv / dwconv / fc). The zoo clears it
	// on fully connected layers for the four networks where the paper
	// follows Stripes and ignores FC layers.
	Analyzable bool

	// Shape is the per-image output shape (batch dimension omitted),
	// fixed at construction time.
	Shape []int
}

// Injector perturbs (in place) a copy of the input tensor of an
// analyzable node during a forward pass — the paper's error-injection
// primitive (Sec. V-A step 3).
//
// Contract: injection applies to Inputs[0] of the target node ONLY.
// Every analyzable (dot-product) layer in this repository consumes a
// single input, so this covers the full operand stream the paper
// quantizes; AddNode rejects any future multi-input dot-product layer
// at construction time rather than letting its extra operands escape
// injection silently.
type Injector func(t *tensor.Tensor)

// Network is a feed-forward DAG of layers. Nodes are stored in
// topological order (construction order); node 0 is the input, the last
// node is the output (pre-softmax logits — the paper's layer Ł).
type Network struct {
	Name       string
	InputShape []int // per-image [C, H, W]
	NumClasses int
	Nodes      []*Node

	// byName indexes nodes by their (first-registered) name; maintained
	// by NewNetwork/AddNode so NodeByName is O(1). Nil for networks
	// assembled outside those constructors — lookups then fall back to
	// a linear scan.
	byName map[string]*Node
}

// NewNetwork creates a network with the given per-image input shape.
func NewNetwork(name string, inputShape []int, numClasses int) *Network {
	in := &Node{ID: 0, Name: "input", Shape: append([]int(nil), inputShape...)}
	return &Network{
		Name:       name,
		InputShape: append([]int(nil), inputShape...),
		NumClasses: numClasses,
		Nodes:      []*Node{in},
		byName:     map[string]*Node{"input": in},
	}
}

// AddNode appends a layer consuming the outputs of the given
// predecessor nodes and returns its node ID. Dot-product layers are
// marked analyzable by default.
func (n *Network) AddNode(name string, l Layer, inputs ...int) int {
	if len(inputs) == 0 {
		panic("nn: AddNode requires at least one input")
	}
	id := len(n.Nodes)
	inShapes := make([][]int, len(inputs))
	for i, in := range inputs {
		if in < 0 || in >= id {
			panic(fmt.Sprintf("nn: AddNode(%s): input %d out of range [0,%d)", name, in, id))
		}
		// Prepend a unit batch dimension for shape computation.
		inShapes[i] = append([]int{1}, n.Nodes[in].Shape...)
	}
	outShape := l.OutShape(inShapes)
	_, isDot := l.(DotProduct)
	if isDot && len(inputs) > 1 {
		// Injection (and therefore profiling) perturbs Inputs[0] only —
		// see the Injector contract. A multi-input dot-product layer
		// would have operands the analysis silently never covers.
		panic(fmt.Sprintf("nn: AddNode(%s): dot-product layer %q has %d inputs; analyzable layers must be single-input (injection covers Inputs[0] only)",
			name, l.Kind(), len(inputs)))
	}
	nd := &Node{
		ID:         id,
		Name:       name,
		Layer:      l,
		Inputs:     append([]int(nil), inputs...),
		Analyzable: isDot,
		Shape:      append([]int(nil), outShape[1:]...),
	}
	n.Nodes = append(n.Nodes, nd)
	if n.byName != nil {
		if _, dup := n.byName[name]; !dup {
			n.byName[name] = nd
		}
	}
	return id
}

// Output returns the ID of the output node.
func (n *Network) Output() int { return len(n.Nodes) - 1 }

// AnalyzableNodes returns the IDs of all analyzable layers in
// topological order — the layers 1..Ł the paper allocates bitwidths to.
func (n *Network) AnalyzableNodes() []int {
	var out []int
	for _, nd := range n.Nodes {
		if nd.Analyzable {
			out = append(out, nd.ID)
		}
	}
	return out
}

// NodeByName returns the first node with the given name, or nil. With
// a constructor-built network this is a map lookup; hand-assembled
// Network literals fall back to a linear scan.
func (n *Network) NodeByName(name string) *Node {
	if n.byName != nil {
		return n.byName[name]
	}
	for _, nd := range n.Nodes {
		if nd.Name == name {
			return nd
		}
	}
	return nil
}

// Params returns every trainable parameter in node order.
func (n *Network) Params() []Param {
	var out []Param
	for _, nd := range n.Nodes {
		if p, ok := nd.Layer.(Parameterized); ok {
			for _, pr := range p.Params() {
				pr.Name = fmt.Sprintf("%s.%s", nd.Name, pr.Name)
				out = append(out, pr)
			}
		}
	}
	return out
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// InputCount returns the number of input elements one image feeds into
// the given node (the paper's #Input row: for AlexNet conv1 this is
// C·H·W of the layer input).
func (n *Network) InputCount(nodeID int) int {
	nd := n.Nodes[nodeID]
	return shapeSize(n.Nodes[nd.Inputs[0]].Shape)
}

// MACCount returns the number of MAC operations the node performs per
// image (the paper's #MAC row); 0 for non-dot-product layers.
func (n *Network) MACCount(nodeID int) int {
	nd := n.Nodes[nodeID]
	dp, ok := nd.Layer.(DotProduct)
	if !ok {
		return 0
	}
	inShapes := make([][]int, len(nd.Inputs))
	for i, in := range nd.Inputs {
		inShapes[i] = append([]int{1}, n.Nodes[in].Shape...)
	}
	return dp.MACs(inShapes)
}

// TotalMACs returns the per-image MAC count across all dot-product
// layers.
func (n *Network) TotalMACs() int {
	total := 0
	for _, id := range n.AnalyzableNodes() {
		total += n.MACCount(id)
	}
	// Include non-analyzable dot-product layers (e.g. FC layers the
	// paper excludes from bitwidth analysis still execute MACs).
	for _, nd := range n.Nodes {
		if nd.Analyzable {
			continue
		}
		if _, ok := nd.Layer.(DotProduct); ok {
			total += n.MACCount(nd.ID)
		}
	}
	return total
}

// Summary renders a one-line-per-node description of the network.
func (n *Network) Summary() string {
	s := fmt.Sprintf("%s: input %v, %d classes, %d params\n",
		n.Name, n.InputShape, n.NumClasses, n.NumParams())
	for _, nd := range n.Nodes[1:] {
		mark := " "
		if nd.Analyzable {
			mark = "*"
		}
		s += fmt.Sprintf("%s %3d %-18s %-8s in=%v out=%v\n",
			mark, nd.ID, nd.Name, nd.Layer.Kind(), nd.Inputs, nd.Shape)
	}
	return s
}
