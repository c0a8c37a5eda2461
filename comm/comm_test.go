package comm

import (
	"math"
	"sync"
	"testing"

	"repro/quant"
	"repro/rng"
)

// runExchange drives one synchronous gradient exchange: K goroutines
// each reduce their copy of every tensor in order. It returns each
// worker's resulting tensors.
func runExchange(t *testing.T, red Reducer, inputs [][][]float32) [][][]float32 {
	t.Helper()
	k := len(inputs)
	out := make([][][]float32, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		out[w] = make([][]float32, len(inputs[w]))
		for ti := range inputs[w] {
			out[w][ti] = append([]float32(nil), inputs[w][ti]...)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := range out[w] {
				if err := red.Reduce(w, ti, out[w][ti]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return out
}

// mustSend and mustRecv wrap the error-returning Transport calls for
// tests exercising happy paths.
func mustSend(t *testing.T, f Transport, from, to int, payload []byte) {
	t.Helper()
	if err := f.Send(from, to, nil, payload); err != nil {
		t.Fatalf("send %d->%d: %v", from, to, err)
	}
}

func mustRecv(t *testing.T, f Transport, from, to, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := f.RecvInto(from, to, buf); err != nil {
		t.Fatalf("recv %d->%d: %v", from, to, err)
	}
	return buf
}

func randInputs(r *rng.RNG, k int, sizes []int) [][][]float32 {
	inputs := make([][][]float32, k)
	for w := 0; w < k; w++ {
		inputs[w] = make([][]float32, len(sizes))
		for ti, n := range sizes {
			v := make([]float32, n)
			for i := range v {
				v[i] = r.Norm(1)
			}
			inputs[w][ti] = v
		}
	}
	return inputs
}

func exactSums(inputs [][][]float32) [][]float64 {
	k := len(inputs)
	sums := make([][]float64, len(inputs[0]))
	for ti := range inputs[0] {
		sums[ti] = make([]float64, len(inputs[0][ti]))
		for w := 0; w < k; w++ {
			for i, v := range inputs[w][ti] {
				sums[ti][i] += float64(v)
			}
		}
	}
	return sums
}

func TestFabricFIFO(t *testing.T) {
	f := NewFabric(2)
	mustSend(t, f, 0, 1, []byte{1})
	mustSend(t, f, 0, 1, []byte{2})
	if got := mustRecv(t, f, 0, 1, 1); got[0] != 1 {
		t.Fatal("FIFO order violated")
	}
	if got := mustRecv(t, f, 0, 1, 1); got[0] != 2 {
		t.Fatal("FIFO order violated")
	}
}

func TestFabricCopiesPayload(t *testing.T) {
	f := NewFabric(2)
	buf := []byte{1, 2, 3}
	mustSend(t, f, 0, 1, buf)
	buf[0] = 99
	if got := mustRecv(t, f, 0, 1, 3); got[0] != 1 {
		t.Fatal("send did not copy payload")
	}
}

func TestFabricByteAccounting(t *testing.T) {
	f := NewFabric(3)
	mustSend(t, f, 0, 1, make([]byte, 10))
	mustSend(t, f, 1, 2, make([]byte, 5))
	if f.BytesOnLink(0, 1) != 10 || f.BytesOnLink(1, 2) != 5 {
		t.Fatal("per-link counters wrong")
	}
	if f.TotalBytes() != 15 || f.TotalMessages() != 2 {
		t.Fatal("totals wrong")
	}
	f.ResetCounters()
	if f.TotalBytes() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFabricPanics(t *testing.T) {
	f := NewFabric(2)
	for i, fn := range []func(){
		func() { f.Send(0, 0, nil, nil) }, //lint:allow commerr Send panics on the self-link before returning; the recover below is the assertion
		func() { f.Send(0, 5, nil, nil) }, //lint:allow commerr Send panics on the out-of-range peer before returning; the recover below is the assertion
		func() { NewFabric(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSplitStripesAlignmentAndCoverage(t *testing.T) {
	cases := []struct{ n, group, k int }{
		{1000, 64, 4}, {1000, 64, 3}, {7, 64, 4}, {0, 64, 2},
		{128, 128, 4}, {129, 128, 2}, {512, 3, 8}, {100, 1, 16},
	}
	for _, tc := range cases {
		stripes := splitStripes(tc.n, tc.group, tc.k)
		if len(stripes) != tc.k {
			t.Fatalf("n=%d k=%d: %d stripes", tc.n, tc.k, len(stripes))
		}
		covered := 0
		for i, st := range stripes {
			if st.off != covered {
				t.Fatalf("n=%d k=%d: stripe %d off %d, want %d", tc.n, tc.k, i, st.off, covered)
			}
			if st.n > 0 && st.off%tc.group != 0 {
				t.Fatalf("n=%d k=%d: stripe %d not group-aligned", tc.n, tc.k, i)
			}
			covered += st.n
		}
		if covered != tc.n {
			t.Fatalf("n=%d k=%d: covered %d", tc.n, tc.k, covered)
		}
	}
}

func TestReduceBroadcastFP32ExactSum(t *testing.T) {
	r := rng.New(1)
	for _, k := range []int{1, 2, 3, 4, 8} {
		sizes := []int{513, 64, 7}
		inputs := randInputs(r.Fork(uint64(k)), k, sizes)
		specs := make([]TensorSpec, len(sizes))
		for ti, n := range sizes {
			specs[ti] = TensorSpec{Name: "t", N: n, Wire: quant.Shape{Rows: n, Cols: 1}, Codec: quant.FP32{}}
		}
		f := NewFabric(k)
		rb := NewReduceBroadcast(f, specs, 5)
		out := runExchange(t, rb, inputs)
		sums := exactSums(inputs)
		for ti := range sizes {
			for i := range sums[ti] {
				if math.Abs(float64(out[0][ti][i])-sums[ti][i]) > 1e-4 {
					t.Fatalf("k=%d tensor %d elem %d: got %v want %v",
						k, ti, i, out[0][ti][i], sums[ti][i])
				}
			}
		}
	}
}

func TestReduceBroadcastReplicasIdentical(t *testing.T) {
	r := rng.New(2)
	codecs := []quant.Codec{
		quant.FP32{},
		quant.OneBit{},
		quant.NewOneBitReshaped(64),
		quant.NewQSGD(4, 512, quant.MaxNorm),
		quant.NewQSGD(2, 128, quant.MaxNorm),
	}
	for _, c := range codecs {
		k := 4
		sizes := []int{1000, 130}
		inputs := randInputs(r.Fork(uint64(len(c.Name()))), k, sizes)
		specs := []TensorSpec{
			{Name: "a", N: 1000, Wire: quant.Shape{Rows: 10, Cols: 100}, Codec: c},
			{Name: "b", N: 130, Wire: quant.Shape{Rows: 13, Cols: 10}, Codec: c},
		}
		f := NewFabric(k)
		rb := NewReduceBroadcast(f, specs, 6)
		out := runExchange(t, rb, inputs)
		for w := 1; w < k; w++ {
			for ti := range sizes {
				for i := range out[0][ti] {
					if out[w][ti][i] != out[0][ti][i] {
						t.Fatalf("%s: worker %d tensor %d diverges at %d", c.Name(), w, ti, i)
					}
				}
			}
		}
	}
}

// TestReduceBroadcastQuantisedApproximatesSum: QSGD-aggregated results
// stay close to the exact sum (unbiased, bounded variance).
func TestReduceBroadcastQuantisedApproximatesSum(t *testing.T) {
	r := rng.New(3)
	k := 4
	n := 4096
	inputs := randInputs(r, k, []int{n})
	specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 64, Cols: 64},
		Codec: quant.NewQSGD(8, 512, quant.MaxNorm)}}
	f := NewFabric(k)
	rb := NewReduceBroadcast(f, specs, 7)
	out := runExchange(t, rb, inputs)
	sums := exactSums(inputs)
	var mse float64
	for i := range sums[0] {
		d := float64(out[0][0][i]) - sums[0][i]
		mse += d * d
	}
	mse /= float64(n)
	// 8-bit two-stage quantisation of N(0,1) sums: tiny but nonzero.
	if mse > 0.02 {
		t.Fatalf("MSE %v too large for 8-bit aggregation", mse)
	}
	if mse == 0 {
		t.Fatal("quantised aggregation was exact — codec not applied?")
	}
}

// TestReduceBroadcastWireBytes: the fabric's byte counters must agree
// exactly with the primitive's predicted volume.
func TestReduceBroadcastWireBytes(t *testing.T) {
	r := rng.New(4)
	for _, c := range []quant.Codec{
		quant.FP32{},
		quant.NewQSGD(4, 512, quant.MaxNorm),
		quant.NewOneBitReshaped(64),
	} {
		k := 4
		sizes := []int{4096, 130}
		inputs := randInputs(r, k, sizes)
		specs := []TensorSpec{
			{Name: "a", N: 4096, Wire: quant.Shape{Rows: 64, Cols: 64}, Codec: c},
			{Name: "b", N: 130, Wire: quant.Shape{Rows: 13, Cols: 10}, Codec: c},
		}
		f := NewFabric(k)
		rb := NewReduceBroadcast(f, specs, 8)
		runExchange(t, rb, inputs)
		if got, want := f.TotalBytes(), rb.WireBytesPerExchange(); got != want {
			t.Errorf("%s: fabric moved %d bytes, predicted %d", c.Name(), got, want)
		}
	}
}

// framedFabric is the in-process fabric claiming to be framed, so the
// self-describing message path runs without sockets.
type framedFabric struct{ *Fabric }

func (framedFabric) Framed() bool { return true }

func TestReduceBroadcastDeterministic(t *testing.T) {
	r := rng.New(5)
	run := func() []float32 {
		k := 3
		n := 1024
		inputs := randInputs(rng.New(99), k, []int{n})
		specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 32, Cols: 32},
			Codec: quant.NewQSGD(4, 128, quant.MaxNorm)}}
		rb := NewReduceBroadcast(NewFabric(k), specs, 11)
		out := runExchange(t, rb, inputs)
		return out[0][0]
	}
	_ = r
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic aggregation at %d", i)
		}
	}
}

// TestReduceBroadcastStepKeyedStreams is the contract elastic sessions
// rest on: after BeginStep(s), a quantised exchange's result depends
// only on (seed, inputs, s) — not on how many exchanges the reducer ran
// before, and not on a half-finished exchange that was abandoned
// mid-step. A replacement process reconstructing a dead rank's streams,
// and a survivor re-running an aborted step, both reduce to this
// property.
func TestReduceBroadcastStepKeyedStreams(t *testing.T) {
	const k, n, seed = 3, 1024, 11
	specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 32, Cols: 32},
		Codec: quant.NewQSGD(4, 128, quant.MaxNorm)}}
	inputs := randInputs(rng.New(99), k, []int{n})

	exchangeAtStep := func(rb *Collective, step int64) []float32 {
		rb.BeginStep(step)
		return runExchange(t, rb, inputs)[0][0]
	}

	// Reference: a fresh reducer running step 5 directly.
	fresh := NewReduceBroadcast(NewFabric(k), specs, seed)
	want := exchangeAtStep(fresh, 5)

	// A reducer with a different draw history (steps 1..3 with different
	// data) must produce the same step-5 result.
	warm := NewReduceBroadcast(NewFabric(k), specs, seed)
	other := randInputs(rng.New(123), k, []int{n})
	for s := int64(1); s <= 3; s++ {
		warm.BeginStep(s)
		runExchange(t, warm, other)
	}
	if got := exchangeAtStep(warm, 5); !equalF32(got, want) {
		t.Fatal("step-keyed streams depend on prior exchange history")
	}

	// A half-consumed step rewinds: run step 5, then re-enter it.
	rerun := NewReduceBroadcast(NewFabric(k), specs, seed)
	exchangeAtStep(rerun, 5)
	if got := exchangeAtStep(rerun, 5); !equalF32(got, want) {
		t.Fatal("re-entering a step does not rewind the streams")
	}

	// Distinct steps use distinct streams (the reseed is not a no-op).
	if got := exchangeAtStep(fresh, 6); equalF32(got, want) {
		t.Fatal("steps 5 and 6 drew identical streams — step keying is inert")
	}
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRingReplicasIdentical(t *testing.T) {
	r := rng.New(7)
	k, n := 5, 1003
	inputs := randInputs(r, k, []int{n})
	out := runExchange(t, NewRing(NewFabric(k)), inputs)
	for w := 1; w < k; w++ {
		for i := range out[0][0] {
			if out[w][0][i] != out[0][0][i] {
				t.Fatalf("worker %d diverges at %d", w, i)
			}
		}
	}
}

func TestRingWireBytes(t *testing.T) {
	r := rng.New(8)
	k, n := 4, 4096
	inputs := randInputs(r, k, []int{n})
	f := NewFabric(k)
	ring := NewRing(f)
	runExchange(t, ring, inputs)
	if got, want := f.TotalBytes(), RingWireBytes(n, k, false); got != want {
		t.Fatalf("ring moved %d bytes, predicted %d", got, want)
	}
	// 2(K-1)·4n total = 98304 for k=4, n=4096.
	if want := int64(2 * 3 * 4 * 4096); f.TotalBytes() != want {
		t.Fatalf("ring bytes %d, want %d", f.TotalBytes(), want)
	}
}

// TestOneBitAggregationErrorFeedbackAcrossRounds: repeated exchanges of
// the same gradient through 1bitSGD converge on average to the true sum
// thanks to sender- and aggregator-side residuals.
func TestOneBitAggregationErrorFeedbackAcrossRounds(t *testing.T) {
	r := rng.New(10)
	k, n := 2, 256
	// Fixed per-worker gradients across rounds.
	fixed := randInputs(r, k, []int{n})
	specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 64, Cols: 4},
		Codec: quant.NewOneBitReshaped(64)}}
	rb := NewReduceBroadcast(NewFabric(k), specs, 12)
	sum := make([]float64, n)
	const rounds = 200
	for round := 0; round < rounds; round++ {
		out := runExchange(t, rb, fixed)
		for i, v := range out[0][0] {
			sum[i] += float64(v)
		}
	}
	want := exactSums(fixed)
	var worst float64
	for i := range sum {
		got := sum[i] / rounds
		if d := math.Abs(got - want[0][i]); d > worst {
			worst = d
		}
	}
	// Error feedback keeps the long-run average within a fraction of the
	// per-round quantisation step.
	if worst > 0.35 {
		t.Fatalf("long-run mean deviates by %v — error feedback broken?", worst)
	}
}

func TestReduceErrors(t *testing.T) {
	specs := []TensorSpec{{Name: "g", N: 10, Wire: quant.Shape{Rows: 10, Cols: 1}, Codec: quant.FP32{}}}
	rb := NewReduceBroadcast(NewFabric(2), specs, 0)
	if err := rb.Reduce(0, 5, make([]float32, 10)); err == nil {
		t.Fatal("expected unknown-tensor error")
	}
	if err := rb.Reduce(0, 0, make([]float32, 3)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := rb.ReduceAll(0, [][]float32{make([]float32, 10), make([]float32, 10)}); err == nil {
		t.Fatal("ReduceAll: expected unknown-tensor error")
	}
	if err := rb.ReduceAll(0, [][]float32{make([]float32, 3)}); err == nil {
		t.Fatal("ReduceAll: expected length-mismatch error")
	}
	if err := rb.ReduceAll(2, [][]float32{make([]float32, 10)}); err == nil {
		t.Fatal("ReduceAll: expected unknown-rank error")
	}
}

func TestSingleWorkerNoOp(t *testing.T) {
	g := []float32{1, 2, 3}
	specs := []TensorSpec{{Name: "g", N: 3, Wire: quant.Shape{Rows: 3, Cols: 1}, Codec: quant.FP32{}}}
	rb := NewReduceBroadcast(NewFabric(1), specs, 0)
	if err := rb.Reduce(0, 0, g); err != nil {
		t.Fatal(err)
	}
	if g[0] != 1 || g[2] != 3 {
		t.Fatal("single-worker reduce must be identity")
	}
	ring := NewRing(NewFabric(1))
	if err := ring.Reduce(0, 0, g); err != nil {
		t.Fatal(err)
	}
	if g[0] != 1 {
		t.Fatal("single-worker ring must be identity")
	}
	if err := rb.ReduceAll(0, [][]float32{g}); err != nil || g[0] != 1 || g[2] != 3 {
		t.Fatalf("single-worker ReduceAll must be identity: %v %v", g, err)
	}
}

// TestRingLinearity: allreduce is linear — reducing a+b equals the sum
// of reducing a and b separately (property test over random inputs).
func TestRingLinearity(t *testing.T) {
	r := rng.New(90)
	const k, n = 4, 257
	a := randInputs(r, k, []int{n})
	b := randInputs(r, k, []int{n})
	sum := make([][][]float32, k)
	for w := 0; w < k; w++ {
		sum[w] = [][]float32{make([]float32, n)}
		for i := 0; i < n; i++ {
			sum[w][0][i] = a[w][0][i] + b[w][0][i]
		}
	}
	ra := runExchange(t, NewRing(NewFabric(k)), a)
	rb := runExchange(t, NewRing(NewFabric(k)), b)
	rs := runExchange(t, NewRing(NewFabric(k)), sum)
	for i := 0; i < n; i++ {
		want := float64(ra[0][0][i]) + float64(rb[0][0][i])
		if math.Abs(float64(rs[0][0][i])-want) > 1e-3 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, rs[0][0][i], want)
		}
	}
}

// TestReduceBroadcastFP32Linearity: the full-precision MPI path is
// linear as well (quantised paths are not, by design).
func TestReduceBroadcastFP32Linearity(t *testing.T) {
	r := rng.New(91)
	const k, n = 3, 130
	specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 13, Cols: 10}, Codec: quant.FP32{}}}
	a := randInputs(r, k, []int{n})
	scaled := make([][][]float32, k)
	for w := 0; w < k; w++ {
		scaled[w] = [][]float32{make([]float32, n)}
		for i := 0; i < n; i++ {
			scaled[w][0][i] = 2 * a[w][0][i]
		}
	}
	ra := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 1), a)
	rs := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 1), scaled)
	for i := 0; i < n; i++ {
		if math.Abs(float64(rs[0][0][i])-2*float64(ra[0][0][i])) > 1e-3 {
			t.Fatalf("homogeneity violated at %d", i)
		}
	}
}

// TestMultiTensorOrderIndependence: reducing tensors in the same order
// from every worker is the contract; this exercises a long mixed-size
// sequence to shake out ordering bugs under buffered links.
func TestMultiTensorOrderIndependence(t *testing.T) {
	r := rng.New(92)
	const k = 4
	sizes := []int{7, 513, 64, 1, 300, 128, 33, 2048, 5, 90}
	inputs := randInputs(r, k, sizes)
	specs := make([]TensorSpec, len(sizes))
	for i, n := range sizes {
		specs[i] = TensorSpec{Name: "t", N: n,
			Wire: quant.Shape{Rows: n, Cols: 1}, Codec: quant.NewQSGD(8, 64, quant.MaxNorm)}
	}
	out := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 13), inputs)
	for w := 1; w < k; w++ {
		for ti := range sizes {
			for i := range out[0][ti] {
				if out[w][ti][i] != out[0][ti][i] {
					t.Fatalf("worker %d tensor %d diverges", w, ti)
				}
			}
		}
	}
}
