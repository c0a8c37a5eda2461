package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/comm"
	"repro/nn"
	"repro/quant"
)

// Adapter for the comm layer. It is touched only through constructors,
// Reducer.Reduce, Close and the two wire-volume predictors — never raw
// Send/Recv, which the engine redesign will re-sign.

// commSpec is the reducer's description of one gradient tensor.
type commSpec = comm.TensorSpec

// fp32Spec is a single full-precision tensor of n elements.
func fp32Spec(name string, n int) []commSpec {
	return []commSpec{{Name: name, N: n, Wire: quant.Shape{Rows: n, Cols: 1}, Codec: quant.FP32{}}}
}

// tensorSpecs describes a model's gradients to a reducer under a plan.
func tensorSpecs(net *nn.Network, plan *quant.Plan) []commSpec {
	ps := net.Params()
	specs := make([]commSpec, len(ps))
	for i, p := range ps {
		specs[i] = commSpec{Name: p.Name, N: p.Grad.Len(), Wire: p.WireShape, Codec: plan.CodecFor(i)}
	}
	return specs
}

// predictedWireBytes is what one full gradient exchange must put on the
// fabric according to the program's own pricing functions — the figure
// the measured Trainer.WireBytes is checked against.
func predictedWireBytes(specs []commSpec, prim primitiveKind, tr transportKind, k int) int64 {
	framed := tr == tcpFabric
	if prim == reduceBroadcast {
		return comm.ReduceBroadcastWireBytes(specs, k, framed)
	}
	var total int64
	for _, s := range specs {
		total += comm.RingWireBytes(s.N, k, framed)
	}
	return total
}

// mesh is a fabric of one kind plus a reducer over it.
type mesh struct {
	k         int
	reducer   comm.Reducer
	closer    func() error
	closeOnce sync.Once
	closeErr  error
}

func newMesh(tr transportKind, prim primitiveKind, specs []commSpec, k int, seed uint64) (*mesh, error) {
	var fabric comm.Transport
	closer := func() error { return nil }
	if tr == tcpFabric {
		tcp, err := comm.NewTCPFabric(k)
		if err != nil {
			return nil, fmt.Errorf("tcp fabric: %w", err)
		}
		fabric, closer = tcp, tcp.Close
	} else {
		fabric = comm.NewFabric(k)
	}
	m := &mesh{k: k, closer: closer}
	if prim == reduceBroadcast {
		m.reducer = comm.NewReduceBroadcast(fabric, specs, seed)
	} else {
		m.reducer = comm.NewRing(fabric)
	}
	return m, nil
}

// close is idempotent: the error path of a measurement closes the mesh
// early to unblock peers parked in a socket read, and the normal path
// closes it again.
func (m *mesh) close() error {
	m.closeOnce.Do(func() { m.closeErr = m.closer() })
	return m.closeErr
}

// reduceAll exchanges every tensor of one rank's gradient set.
func (m *mesh) reduceAll(rank int, grads [][]float32) error {
	for i, g := range grads {
		if err := m.reducer.Reduce(rank, i, g); err != nil {
			return err
		}
	}
	return nil
}

// exchangeSample is the cost of repeated whole-inventory exchanges.
type exchangeSample struct {
	medianNS   float64 // rank 0's median period between completed exchanges
	allocs     float64 // mallocs per exchange, all ranks together
	allocBytes float64
}

// timeExchange runs warm+iters back-to-back exchanges of the given
// tensors across k goroutines (persistent for the whole measurement, so
// goroutine spawn is not in the figure) and reports rank 0's median
// period between completions. The collective itself keeps the ranks in
// lockstep, so the period includes every hand-off and wait an exchange
// costs — timing only rank 0's own call would hide the waits whenever a
// peer got scheduled first. Each rank averages the sum afterwards, as
// the engine does, which also keeps the values bounded.
func timeExchange(tr transportKind, prim primitiveKind, specs []commSpec, k, warm, iters int, src [][]float32) (exchangeSample, error) {
	m, err := newMesh(tr, prim, specs, k, 1)
	if err != nil {
		return exchangeSample{}, err
	}
	grads := make([][][]float32, k)
	for r := range grads {
		grads[r] = make([][]float32, len(specs))
		for i := range specs {
			grads[r][i] = append([]float32(nil), src[i]...)
		}
	}
	periods := make([]float64, 0, iters)
	errs := make([]error, k)
	var before, after runtime.MemStats
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			inv := 1 / float32(k)
			last := time.Now()
			for it := 0; it < warm+iters; it++ {
				if r == 0 && it == warm {
					runtime.ReadMemStats(&before)
					last = time.Now()
				}
				if err := m.reduceAll(r, grads[r]); err != nil {
					errs[r] = err
					m.close() // unblocks TCP peers; the chan fabric cannot fail
					return
				}
				for _, g := range grads[r] {
					for i := range g {
						g[i] *= inv
					}
				}
				if r == 0 && it >= warm {
					now := time.Now()
					periods = append(periods, float64(now.Sub(last)))
					last = now
				}
			}
		}(r)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	cerr := m.close()
	for _, e := range errs {
		if e != nil {
			return exchangeSample{}, e
		}
	}
	if cerr != nil {
		return exchangeSample{}, cerr
	}
	return exchangeSample{
		medianNS:   median(periods),
		allocs:     float64(after.Mallocs-before.Mallocs) / float64(iters),
		allocBytes: float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}, nil
}
