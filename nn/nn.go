// Package nn is the deep-learning substrate of the reproduction: dense
// float32 layers with hand-written backpropagation, assembled into the
// convolutional and recurrent networks whose training accuracy the paper
// measures under low-precision gradient exchange.
//
// The package plays the role CNTK's computation graph plays in the
// original artefact. Parameters expose their gradients as flat float32
// matrices together with a CNTK-layout wire shape (first tensor dimension
// = rows), because classic 1bitSGD quantises per column of exactly that
// layout — the source of the paper's reshaping discussion (§3.2).
//
// A product that feeds an addition is wrapped in float32(...) (or
// float64(...)): the conversion forbids the compiler to fuse the two
// into one FMA, which arm64 would otherwise do, rounding once where
// amd64 rounds twice. Ranks on different architectures thus compute the
// same bits; scripts/check_nofma.sh keeps it so.
package nn

import (
	"fmt"

	"repro/quant"
	"repro/tensor"
)

// Param is one learnable tensor and its gradient accumulator.
type Param struct {
	// Name identifies the tensor (e.g. "conv1.W").
	Name string
	// Value holds the current weights.
	Value *tensor.Matrix
	// Grad accumulates the gradient of the minibatch loss with respect
	// to Value. Layers add into it; the trainer zeroes it between steps.
	Grad *tensor.Matrix
	// WireShape is the CNTK tensor layout used by the quantisation
	// codecs: Rows is the first tensor dimension, Cols the flattened
	// rest. For a conv kernel stored as [kW][kH·inC·outC] this makes
	// Rows the kernel width — the tiny-column case 1bitSGD trips over.
	WireShape quant.Shape
}

// newParam allocates a parameter with matching gradient storage.
func newParam(name string, rows, cols int, wire quant.Shape) *Param {
	return &Param{
		Name:      name,
		Value:     tensor.New(rows, cols),
		Grad:      tensor.New(rows, cols),
		WireShape: wire,
	}
}

// Info returns the quant.TensorInfo describing this parameter.
func (p *Param) Info() quant.TensorInfo {
	return quant.TensorInfo{Name: p.Name, Shape: p.WireShape}
}

// Layer is one differentiable block. Forward consumes a batch-major
// activation matrix (one sample per row) and returns the output batch;
// Backward consumes the gradient with respect to the output and returns
// the gradient with respect to the input, accumulating parameter
// gradients as a side effect. A Backward call must follow the Forward
// call whose activations it differentiates.
type Layer interface {
	// Name returns a short identifier used in parameter names.
	Name() string
	// Forward runs the layer. train toggles training-only behaviour
	// (dropout masks, batch-norm statistics).
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward propagates dout back through the most recent Forward.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's learnable tensors (possibly empty).
	Params() []*Param
}

// Network is an ordered stack of layers.
type Network struct {
	Layers []Layer
	params []*Param
}

// NewNetwork builds a network from the given layers and validates that
// parameter names are unique.
func NewNetwork(layers ...Layer) (*Network, error) {
	n := &Network{Layers: layers}
	seen := map[string]bool{}
	for _, l := range layers {
		for _, p := range l.Params() {
			if seen[p.Name] {
				return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
			}
			seen[p.Name] = true
			n.params = append(n.params, p)
		}
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error, for static model
// definitions.
func MustNetwork(layers ...Layer) *Network {
	n, err := NewNetwork(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// Forward runs the full stack.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the full stack.
func (n *Network) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// Params returns every learnable tensor in definition order.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrads clears all gradient accumulators.
func (n *Network) ZeroGrads() {
	for _, p := range n.params {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += p.Value.Len()
	}
	return total
}

// TensorInfos returns the quantisation inventory for the whole model.
func (n *Network) TensorInfos() []quant.TensorInfo {
	infos := make([]quant.TensorInfo, len(n.params))
	for i, p := range n.params {
		infos[i] = p.Info()
	}
	return infos
}

// CopyWeightsFrom copies all parameter values (not gradients) from src.
// The networks must have identical architecture.
func (n *Network) CopyWeightsFrom(src *Network) error {
	if len(n.params) != len(src.params) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(n.params), len(src.params))
	}
	for i, p := range n.params {
		sp := src.params[i]
		if p.Value.Len() != sp.Value.Len() {
			return fmt.Errorf("nn: parameter %q size mismatch", p.Name)
		}
		copy(p.Value.Data, sp.Value.Data)
	}
	return nil
}
