package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/quant"
	"repro/rng"
)

// serialOracle is the value oracle for Collective: one goroutine
// interprets every rank's schedule with encoders seeded exactly as the
// Collective seeds them. Messages queue per directed link as bare
// payloads; a rank runs until its next receive finds its link empty,
// then yields to the next rank. No transport, no buffer reuse, no
// framing — what the live executor adds on top must not change a bit.
type serialOracle struct {
	prim   Primitive
	specs  []TensorSpec
	k      int
	chunks [][]chunk
	steps  [][][]step          // [rank][tensor]
	encs   [][][]quant.Encoder // [rank][tensor][step], nil but for encodeSend
}

func newSerialOracle(prim Primitive, specs []TensorSpec, k int, seed uint64) *serialOracle {
	o := &serialOracle{prim: prim, specs: specs, k: k, chunks: make([][]chunk, len(specs)),
		steps: make([][][]step, k), encs: make([][][]quant.Encoder, k)}
	for t, spec := range specs {
		o.chunks[t] = chunks(prim, spec, k)
	}
	for r := 0; r < k; r++ {
		o.steps[r] = make([][]step, len(specs))
		o.encs[r] = make([][]quant.Encoder, len(specs))
		for t, spec := range specs {
			if k == 1 {
				continue
			}
			schedule(prim, o.chunks[t], k, r, func(st step) {
				var enc quant.Encoder
				if st.op == encodeSend {
					enc = spec.Codec.NewEncoder(o.chunks[t][st.chunk].n, spec.Wire,
						mixSeed(seed, uint64(r), uint64(t), st.slot))
				}
				o.steps[r][t] = append(o.steps[r][t], st)
				o.encs[r][t] = append(o.encs[r][t], enc)
			})
		}
	}
	return o
}

// exchange reduces every tensor of every rank's inputs and returns the
// results and the payload bytes the schedules sent.
func (o *serialOracle) exchange(t *testing.T, inputs [][][]float32) ([][][]float32, int64) {
	t.Helper()
	out := make([][][]float32, o.k)
	for r := range out {
		for _, in := range inputs[r] {
			out[r] = append(out[r], append([]float32(nil), in...))
		}
	}
	var sent int64
	for ti, spec := range o.specs {
		links := map[[2]int][][]byte{}
		push := func(from, to int, msg []byte) {
			links[[2]int{from, to}] = append(links[[2]int{from, to}], msg)
			sent += int64(len(msg))
		}
		decode := func(wire []byte, n int) []float32 {
			v := make([]float32, n)
			if err := spec.Codec.Decode(wire, n, spec.Wire, v); err != nil {
				t.Fatal(err)
			}
			return v
		}
		pc := make([]int, o.k)
		for {
			progress, finished := false, true
			for r := 0; r < o.k; r++ {
				for ; pc[r] < len(o.steps[r][ti]); pc[r]++ {
					st := o.steps[r][ti][pc[r]]
					c := o.chunks[ti][st.chunk]
					vals := out[r][ti][c.off : c.off+c.n]
					if st.op == encodeSend {
						wire := append([]byte(nil), o.encs[r][ti][pc[r]].Encode(vals)...)
						for p := 0; p < o.k; p++ {
							if p != r && (st.to == everyPeer || st.to == p) {
								push(r, p, wire)
							}
						}
						if st.adopt {
							copy(vals, decode(wire, c.n))
						}
					} else {
						q := links[[2]int{st.from, r}]
						if len(q) == 0 {
							break // blocked: the next rank's turn
						}
						msg := q[0]
						links[[2]int{st.from, r}] = q[1:]
						got := decode(msg, c.n)
						if st.op == recvAdd {
							for i, v := range got {
								vals[i] += v
							}
						} else {
							copy(vals, got)
							if st.to != r {
								push(r, st.to, msg)
							}
						}
					}
					progress = true
				}
				finished = finished && pc[r] == len(o.steps[r][ti])
			}
			if finished {
				break
			}
			if !progress {
				t.Fatalf("tensor %s: the schedules deadlock", spec.Name)
			}
		}
	}
	return out, sent
}

// oracleInventory covers a matrix, a column-short matrix, a bias that
// does not fill a quantisation group, and a tensor smaller than K.
var oracleInventory = []quant.TensorInfo{
	{Name: "fc.W", Shape: quant.Shape{Rows: 64, Cols: 48}},
	{Name: "conv.W", Shape: quant.Shape{Rows: 8, Cols: 125}},
	{Name: "fc.b", Shape: quant.Shape{Rows: 130, Cols: 1}},
	{Name: "tiny.b", Shape: quant.Shape{Rows: 3, Cols: 1}},
}

// TestScheduleMatchesOracle: the live executor, over the in-process
// fabric and a framed TCP mesh, equals the serial oracle bit for bit —
// two exchanges in a row, so residuals and random streams carry over —
// for both schedules under every codec family and a mixed policy, at
// several K; the fabric moves exactly WireBytes, which is exactly what
// the schedules send; and a 32bit exchange is the exact sum.
func TestScheduleMatchesOracle(t *testing.T) {
	const seed = 7
	sizes := make([]int, len(oracleInventory))
	for i, ti := range oracleInventory {
		sizes[i] = ti.Shape.Len()
	}
	for _, prim := range []Primitive{MPI, NCCL} {
		for _, policy := range []string{"32bit", "qsgd4b512", "1bit*64", "qsgd4b512;minfrac=1;conv=1bit*64;*.b=32bit"} {
			plan := quant.NewPlan(quant.MustParsePolicy(policy), oracleInventory)
			specs := make([]TensorSpec, len(oracleInventory))
			for i, ti := range oracleInventory {
				specs[i] = TensorSpec{Name: ti.Name, N: ti.Shape.Len(), Wire: ti.Shape, Codec: plan.CodecFor(i)}
			}
			for _, k := range []int{1, 2, 3, 5} {
				r := rng.New(uint64(100 + k))
				rounds := [][][][]float32{randInputs(r, k, sizes), randInputs(r, k, sizes)}
				oracle := newSerialOracle(prim, specs, k, seed)
				var want [][][][]float32
				for _, in := range rounds {
					out, sent := oracle.exchange(t, in)
					if predicted := WireBytes(prim, specs, k, false); sent != predicted {
						t.Errorf("%s/%s/k%d: schedules send %d bytes, WireBytes says %d", prim, policy, k, sent, predicted)
					}
					want = append(want, out)
				}
				for _, kind := range []string{"chan", "tcp"} {
					t.Run(fmt.Sprintf("%s/%s/k%d/%s", prim, policy, k, kind), func(t *testing.T) {
						f := benchFabric(t, kind, k)
						live := NewCollective(f, prim, specs, seed, nil)
						for round, in := range rounds {
							got := runExchange(t, live, in)
							for w := range got {
								for ti := range got[w] {
									if !equalF32(got[w][ti], want[round][w][ti]) {
										t.Fatalf("round %d rank %d tensor %s: live executor differs from the serial oracle", round, w, specs[ti].Name)
									}
								}
							}
						}
						if got, want := f.TotalBytes(), 2*WireBytes(prim, specs, k, f.Framed()); got != want {
							t.Errorf("fabric moved %d bytes, WireBytes predicts %d", got, want)
						}
					})
				}
				if policy != "32bit" {
					continue
				}
				for round, in := range rounds {
					sums := exactSums(in)
					for ti := range sums {
						for i, s := range sums[ti] {
							if math.Abs(float64(want[round][0][ti][i])-s) > 1e-4 {
								t.Fatalf("%s k=%d tensor %d elem %d: %v, exact sum %v", prim, k, ti, i, want[round][0][ti][i], s)
							}
						}
					}
				}
			}
		}
	}
}

// TestRingErrorCompounds records what the ring's re-quantised partial
// sums cost: the relative RMS error of one aggregate against the exact
// float64 sum, direct vs ring, per codec and K, on one seeded inventory.
// The table is logged (go test -run RingErrorCompounds -v); the test
// fails only if a codec was not applied or the error is not finite.
func TestRingErrorCompounds(t *testing.T) {
	shapes := []quant.Shape{{Rows: 64, Cols: 256}, {Rows: 512, Cols: 1}}
	sizes := []int{shapes[0].Len(), shapes[1].Len()}
	t.Logf("%-10s %3s %8s %8s", "codec", "K", "direct", "ring")
	for _, name := range []string{"qsgd2b512", "qsgd4b512", "qsgd8b512", "1bit*64"} {
		specs := make([]TensorSpec, len(shapes))
		for i, s := range shapes {
			specs[i] = TensorSpec{Name: fmt.Sprintf("t%d", i), N: s.Len(), Wire: s, Codec: quant.MustParse(name)}
		}
		for _, k := range []int{2, 3, 4, 8} {
			inputs := randInputs(rng.New(41), k, sizes)
			sums := exactSums(inputs)
			var rel [2]float64
			for i, prim := range []Primitive{MPI, NCCL} {
				out := runExchange(t, NewCollective(NewFabric(k), prim, specs, 9, nil), inputs)
				var errSq, sumSq float64
				for ti := range sums {
					for j, s := range sums[ti] {
						d := float64(out[0][ti][j]) - s
						errSq += d * d
						sumSq += s * s
					}
				}
				rel[i] = math.Sqrt(errSq / sumSq)
				if !(rel[i] > 0) || math.IsInf(rel[i], 0) {
					t.Fatalf("%s %s K=%d: rel_rmse %v", name, prim, k, rel[i])
				}
			}
			t.Logf("%-10s %3d %8.4f %8.4f", name, k, rel[0], rel[1])
		}
	}
}

func TestParsePrimitive(t *testing.T) {
	for in, want := range map[string]Primitive{"": MPI, "mpi": MPI, "MPI": MPI, "nccl": NCCL, "NCCL": NCCL} {
		if got, err := ParsePrimitive(in); err != nil || got != want {
			t.Errorf("ParsePrimitive(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrimitive("ring"); err == nil {
		t.Error(`ParsePrimitive("ring") accepted an unknown primitive`)
	}
}
