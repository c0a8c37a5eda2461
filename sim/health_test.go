package sim

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/comm"
	"repro/health"
	"repro/internal/workload"
	"repro/quant"
)

// tcpPair builds a connected loopback duplex pair for control links.
func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	return dial, acc.c
}

// controlMonitors builds and starts one health monitor per rank over a
// dedicated loopback control mesh, mirroring what the cluster
// rendezvous establishes beside the data mesh.
func controlMonitors(t testing.TB, world int, cfg health.Config) []*health.Monitor {
	t.Helper()
	conns := make([][]net.Conn, world)
	for r := range conns {
		conns[r] = make([]net.Conn, world)
	}
	for lo := 0; lo < world; lo++ {
		for hi := lo + 1; hi < world; hi++ {
			a, b := tcpPair(t)
			conns[lo][hi] = a
			conns[hi][lo] = b
		}
	}
	ms := make([]*health.Monitor, world)
	for r := 0; r < world; r++ {
		m, err := health.NewMonitor(r, world, conns[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[r] = m
		m.Start()
	}
	return ms
}

// runExchange pushes every tensor of the spec set through one full
// reduce-and-broadcast over the fabric, once per rank.
func runExchange(t testing.TB, tcp *comm.TCPFabric, rb *comm.Collective, specs []comm.TensorSpec) {
	t.Helper()
	k := tcp.K()
	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := range specs {
				g := make([]float32, specs[ti].N)
				for i := range g {
					g[i] = float32(i%7) - 3
				}
				if err := rb.Reduce(w, ti, g); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestControlPlaneDoesNotPerturbExchangeBytes: the byte-parity
// guarantee survives the health plane. Heartbeats flow over their own
// control sockets with their own counter (Monitor.ControlBytes), so a
// live TCP exchange run while monitors actively ping still matches the
// simulator's framed ExchangeBytes byte for byte.
func TestControlPlaneDoesNotPerturbExchangeBytes(t *testing.T) {
	const k = 3
	net := frameNet()
	policy := quant.MustParsePolicy("qsgd4b512;conv.W=topk0.01;*.b=32bit")
	res := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: policy, GPUs: k, BatchOverride: 3 * k, Framed: true})

	// The control plane pings hard (1 ms interval) for the whole
	// exchange window so heartbeat traffic provably overlaps it.
	monitors := controlMonitors(t, k, health.Config{
		Interval: time.Millisecond, Timeout: 10 * time.Second,
	})
	defer func() {
		for _, m := range monitors {
			m.Close()
		}
	}()

	plan := quant.NewPlan(policy, net.Tensors)
	specs := make([]comm.TensorSpec, len(net.Tensors))
	for i, ti := range net.Tensors {
		specs[i] = comm.TensorSpec{Name: ti.Name, N: ti.Shape.Len(),
			Wire: ti.Shape, Codec: plan.CodecFor(i)}
	}
	tcp, err := comm.NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	time.Sleep(20 * time.Millisecond) // let heartbeats start flowing
	runExchange(t, tcp, comm.NewReduceBroadcast(tcp, specs, 5), specs)
	time.Sleep(20 * time.Millisecond) // and keep flowing past the exchange

	if measured := tcp.TotalBytes(); measured != res.ExchangeBytes {
		t.Errorf("with the health plane on, TCP moved %d bytes, simulator predicts %d — control traffic leaked into the data accounting",
			measured, res.ExchangeBytes)
	}
	var control int64
	for _, m := range monitors {
		control += m.ControlBytes()
	}
	if control == 0 {
		t.Fatal("no control-plane traffic flowed during the exchange; the test proved nothing")
	}
}

// BenchmarkHeartbeatOverhead measures the steady-state step-time cost
// of the health plane: the same framed quantised exchange over a
// 2-rank loopback TCP mesh, with the control plane off and then
// pinging at an aggressive 1 ms interval. Compare ns/op between the
// two sub-benchmarks; the delta is the heartbeat overhead (expected to
// be noise: the control plane owns its own sockets and goroutines and
// touches nothing on the data path).
func BenchmarkHeartbeatOverhead(b *testing.B) {
	net := frameNet()
	policy := quant.MustParsePolicy("qsgd4b512")
	plan := quant.NewPlan(policy, net.Tensors)
	specs := make([]comm.TensorSpec, len(net.Tensors))
	for i, ti := range net.Tensors {
		specs[i] = comm.TensorSpec{Name: ti.Name, N: ti.Shape.Len(),
			Wire: ti.Shape, Codec: plan.CodecFor(i)}
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"health-off", false}, {"health-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const k = 2
			tcp, err := comm.NewTCPFabric(k)
			if err != nil {
				b.Fatal(err)
			}
			defer tcp.Close()
			if mode.on {
				monitors := controlMonitors(b, k, health.Config{
					Interval: time.Millisecond, Timeout: 10 * time.Second,
				})
				defer func() {
					for _, m := range monitors {
						m.Close()
					}
				}()
			}
			rb := comm.NewReduceBroadcast(tcp, specs, 5)
			grads := make([][][]float32, k)
			for w := 0; w < k; w++ {
				grads[w] = make([][]float32, len(specs))
				for ti := range specs {
					grads[w][ti] = make([]float32, specs[ti].N)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for w := 0; w < k; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for ti := range specs {
							if err := rb.Reduce(w, ti, grads[w][ti]); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
		})
	}
}
