package comm

import (
	"fmt"
	"strings"
	"testing"

	"repro/quant"
	"repro/rng"
)

// mlpInventory is the gradient inventory of the benchmark's MLP
// (64-1024-512-10): message sizes on a link cycle through a 256 KB
// matrix, a 4 KB bias, a 2 MB matrix and three small tensors every
// exchange — the case the links' slab pools must survive.
var mlpInventory = []quant.Shape{
	{Rows: 1024, Cols: 64}, {Rows: 1024, Cols: 1},
	{Rows: 512, Cols: 1024}, {Rows: 512, Cols: 1},
	{Rows: 10, Cols: 512}, {Rows: 10, Cols: 1},
}

// inventorySpecs describes tensors of the given wire shapes under a
// codec, or under two joined by "+": the first for the matrices, the
// second for the vectors (one column).
func inventorySpecs(shapes []quant.Shape, codec string) []TensorSpec {
	matrices, vectors, _ := strings.Cut(codec, "+")
	specs := make([]TensorSpec, len(shapes))
	for i, s := range shapes {
		c := quant.MustParse(matrices)
		if vectors != "" && s.Cols == 1 {
			c = quant.MustParse(vectors)
		}
		specs[i] = TensorSpec{Name: fmt.Sprintf("t%d", i), N: s.Len(), Wire: s, Codec: c}
	}
	return specs
}

// cnnInventory is the benchmark CNN's twelve gradient tensors, most of
// them tiny: two conv layers with batch norm, then two dense layers.
var cnnInventory = []quant.Shape{
	{Rows: 8, Cols: 27}, {Rows: 8, Cols: 1}, {Rows: 8, Cols: 1}, {Rows: 8, Cols: 1},
	{Rows: 16, Cols: 72}, {Rows: 16, Cols: 1}, {Rows: 16, Cols: 1}, {Rows: 16, Cols: 1},
	{Rows: 64, Cols: 144}, {Rows: 64, Cols: 1}, {Rows: 10, Cols: 64}, {Rows: 10, Cols: 1},
}

// exchangeFunc exchanges all of one rank's tensors, gs[t] being tensor t.
type exchangeFunc func(rank int, gs [][]float32) error

// eachTensor exchanges a rank's tensors one Reduce call at a time.
func eachTensor(red Reducer) exchangeFunc {
	return func(rank int, gs [][]float32) error {
		for t, g := range gs {
			if err := red.Reduce(rank, t, g); err != nil {
				return err
			}
		}
		return nil
	}
}

// exchangeDriver runs whole-inventory exchanges on K persistent
// goroutines, so what a caller measures around run — time, allocations
// — is the exchange and not goroutine spawn.
type exchangeDriver struct {
	start []chan struct{}
	done  chan error
}

// newExchangeDriver starts one goroutine per rank, each exchanging its
// own copy of every tensor per run. Reduced values are scaled back by
// 1/K so repeated runs stay finite.
func newExchangeDriver(exchange exchangeFunc, k int, shapes []quant.Shape) *exchangeDriver {
	d := &exchangeDriver{start: make([]chan struct{}, k), done: make(chan error, k)}
	r := rng.New(17)
	for rank := 0; rank < k; rank++ {
		grads := make([][]float32, len(shapes))
		for i, s := range shapes {
			grads[i] = make([]float32, s.Len())
			for j := range grads[i] {
				grads[i][j] = r.Norm(1)
			}
		}
		d.start[rank] = make(chan struct{})
		go func(rank int, start <-chan struct{}) {
			inv := 1 / float32(k)
			for range start {
				err := exchange(rank, grads)
				for _, g := range grads {
					for j := range g {
						g[j] *= inv
					}
				}
				d.done <- err
			}
		}(rank, d.start[rank])
	}
	return d
}

// run performs one exchange on every rank and returns the first error.
func (d *exchangeDriver) run() error {
	for _, c := range d.start {
		c <- struct{}{}
	}
	var first error
	for range d.start {
		if err := <-d.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stop ends the rank goroutines; the driver must be idle.
func (d *exchangeDriver) stop() {
	for _, c := range d.start {
		close(c)
	}
}

// benchFabric builds the named fabric for k ranks.
func benchFabric(tb testing.TB, kind string, k int) Transport {
	tb.Helper()
	switch kind {
	case "chan":
		return NewFabric(k)
	case "framed":
		return framedFabric{NewFabric(k)}
	}
	f, err := NewTCPFabric(k)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return f
}

// BenchmarkTransport is the go-test twin of the ledger's
// comm.bulk_mbps.* and comm.small_exchange_us.* rows: two ranks trade
// one message each way per iteration.
func BenchmarkTransport(b *testing.B) {
	for _, kind := range []string{"chan", "tcp"} {
		for _, size := range []struct {
			name string
			n    int
		}{{"64B", 64}, {"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
			b.Run(kind+"/"+size.name, func(b *testing.B) {
				f := benchFabric(b, kind, 2)
				echo := make(chan error, 1)
				go func() {
					out, in := make([]byte, size.n), make([]byte, size.n)
					var err error
					for i := 0; i < b.N && err == nil; i++ {
						if err = f.Send(1, 0, nil, out); err == nil {
							err = f.RecvInto(0, 1, in)
						}
					}
					echo <- err
				}()
				out, in := make([]byte, size.n), make([]byte, size.n)
				b.SetBytes(2 * int64(size.n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f.Send(0, 1, nil, out); err != nil {
						b.Fatal(err)
					}
					if err := f.RecvInto(1, 0, in); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := <-echo; err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkExchange is the go-test twin of the ledger's
// comm.exchange_us.* rows: one whole-inventory exchange of the MLP's
// gradients per iteration, K=2, for both schedules — tensor by tensor
// (each) and as the trainer runs it, in one ReduceAll call (all).
func BenchmarkExchange(b *testing.B) {
	const k = 2
	for _, prim := range []struct {
		name string
		p    Primitive
	}{{"rb", MPI}, {"ring", NCCL}} {
		for _, kind := range []string{"chan", "tcp"} {
			for _, name := range []string{"32bit", "qsgd4b512"} {
				for _, call := range []string{"each", "all"} {
					b.Run(prim.name+"/"+kind+"/"+name+"/"+call, func(b *testing.B) {
						red := NewCollective(benchFabric(b, kind, k), prim.p, inventorySpecs(mlpInventory, name), 1, nil)
						exchange := exchangeFunc(red.ReduceAll)
						if call == "each" {
							exchange = eachTensor(red)
						}
						d := newExchangeDriver(exchange, k, mlpInventory)
						defer d.stop()
						var wire int64
						for _, s := range mlpInventory {
							wire += int64(4 * s.Len())
						}
						b.SetBytes(wire)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := d.run(); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
