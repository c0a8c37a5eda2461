package comm

import (
	"fmt"
	"testing"

	"repro/quant"
	"repro/rng"
)

// TestScheduleRounds checks the property the round-major executor and
// its window rest on, for both schedules at K = 2…6 on the oracle's
// inventory (empty chunks included): a rank's steps of a tensor come in
// nondecreasing rounds below rounds(prim, k); with every link a FIFO,
// each message sent in round ρ is received in round ρ+1; and no link
// carries two messages of one tensor in one round.
func TestScheduleRounds(t *testing.T) {
	for _, prim := range []Primitive{MPI, NCCL} {
		for k := 2; k <= 6; k++ {
			for _, ti := range oracleInventory {
				spec := TensorSpec{Name: ti.Name, N: ti.Shape.Len(), Wire: ti.Shape, Codec: quant.MustParse("qsgd4b512")}
				cs := chunks(prim, spec, k)
				sent := map[[2]int][]int{} // link → rounds of its messages, in send order
				var recvs [][3]int         // (from, to, round) of every receive
				for r := 0; r < k; r++ {
					last := 0
					schedule(prim, cs, k, r, func(st step) {
						if st.round < last || st.round >= rounds(prim, k) {
							t.Fatalf("%s k=%d %s rank %d: step in round %d after round %d (of %d)", prim, k, ti.Name, r, st.round, last, rounds(prim, k))
						}
						last = st.round
						send := func(to int) {
							l := [2]int{r, to}
							if q := sent[l]; len(q) > 0 && q[len(q)-1] == st.round {
								t.Fatalf("%s k=%d %s: link %d→%d carries two messages in round %d", prim, k, ti.Name, r, to, st.round)
							}
							sent[l] = append(sent[l], st.round)
						}
						switch {
						case st.op == encodeSend && st.to == everyPeer:
							for p := 0; p < k; p++ {
								if p != r {
									send(p)
								}
							}
						case st.op == encodeSend && st.to != r:
							send(st.to)
						case st.op != encodeSend:
							recvs = append(recvs, [3]int{st.from, r, st.round})
							if st.op == recvPlace && st.to != r {
								send(st.to)
							}
						}
					})
				}
				got := map[[2]int]int{} // messages each link has delivered so far
				for _, rv := range recvs {
					l := [2]int{rv[0], rv[1]}
					q := sent[l]
					if got[l] >= len(q) {
						t.Fatalf("%s k=%d %s: rank %d receives from %d more than is sent", prim, k, ti.Name, rv[1], rv[0])
					}
					if q[got[l]]+1 != rv[2] {
						t.Fatalf("%s k=%d %s: link %d→%d message sent in round %d received in round %d", prim, k, ti.Name, rv[0], rv[1], q[got[l]], rv[2])
					}
					got[l]++
				}
				for l, q := range sent {
					if got[l] != len(q) {
						t.Fatalf("%s k=%d %s: link %d→%d sends %d messages, %d received", prim, k, ti.Name, l[0], l[1], len(q), got[l])
					}
				}
			}
		}
	}
}

// orderShapes is an inventory of 40 tensors, more than a link's queue
// holds: 36 matrices of 2 560 elements, just enough that every rank
// owns a stripe of each at K = 5 under every codec's groups, so each
// link carries a message per matrix in the direct schedule's first
// round too, and four vectors of 1, 3, 7 and 130 elements — shorter
// than K, or than a group.
func orderShapes() []quant.Shape {
	shapes := make([]quant.Shape, 40)
	vectors := []int{1, 3, 7, 130}
	for i := range shapes {
		switch {
		case i%10 == 9:
			shapes[i] = quant.Shape{Rows: vectors[i/10], Cols: 1}
		case i%2 == 0:
			shapes[i] = quant.Shape{Rows: 64, Cols: 40}
		default:
			shapes[i] = quant.Shape{Rows: 40, Cols: 64}
		}
	}
	return shapes
}

// linkTraffic is the payload bytes and messages each directed link of f
// has carried.
func linkTraffic(t *testing.T, f Transport) map[[2]int]PeerTraffic {
	t.Helper()
	links := map[[2]int]PeerTraffic{}
	for from := 0; from < f.K(); from++ {
		for to := 0; to < f.K(); to++ {
			if from == to {
				continue
			}
			switch f := f.(type) {
			case *Fabric:
				l := f.link(from, to)
				links[[2]int{from, to}] = PeerTraffic{TxBytes: l.bytes.Load(), TxFrames: l.sends.Load()}
			case *TCPFabric:
				links[[2]int{from, to}] = f.Rank(from).PeerTraffic(to) // both directions, from's view
			default:
				t.Fatalf("linkTraffic: unknown fabric %T", f)
			}
		}
	}
	return links
}

// TestReduceAllMatchesReduce is the differential test of the
// round-major exchange: the same gradients, two exchanges in a row (so
// residuals and random streams carry over), through per-tensor Reduce
// on one collective and one ReduceAll on another, give bit-identical
// values and identical bytes and messages on every directed link — over
// 40 tensors, more than a window, for both schedules, every codec
// family and a mixed policy, at K = 2, 3, 5, over channels and TCP. A
// deadlocking schedule fails by exchangeTimeout.
func TestReduceAllMatchesReduce(t *testing.T) {
	shapes := orderShapes()
	sizes := make([]int, len(shapes))
	for i, s := range shapes {
		sizes[i] = s.Len()
	}
	for _, prim := range []Primitive{MPI, NCCL} {
		for _, policy := range []string{"32bit", "qsgd4b512", "1bit*64", "qsgd4b512+32bit"} {
			specs := inventorySpecs(shapes, policy)
			for _, k := range []int{2, 3, 5} {
				for o := 0; o < k; o++ {
					owned := 0
					for _, spec := range specs {
						if chunks(prim, spec, k)[o].n > 0 {
							owned++
						}
					}
					if owned <= linkBuffer {
						t.Fatalf("%s/%s/k%d: rank %d owns a chunk of %d tensors; the links to it must be able to fill", prim, policy, k, o, owned)
					}
				}
				r := rng.New(uint64(200 + k))
				exchanges := [][][][]float32{randInputs(r, k, sizes), randInputs(r, k, sizes)}
				for _, kind := range []string{"chan", "tcp"} {
					ok := t.Run(fmt.Sprintf("%s/%s/k%d/%s", prim, policy, k, kind), func(t *testing.T) {
						fEach, fAll := benchFabric(t, kind, k), benchFabric(t, kind, k)
						each := NewCollective(fEach, prim, specs, 5, nil)
						all := NewCollective(fAll, prim, specs, 5, nil)
						for e, in := range exchanges {
							want := runRanks(t, fEach, eachTensor(each), in)
							got := runRanks(t, fAll, all.ReduceAll, in)
							for w := range got {
								for ti := range got[w] {
									if !equalF32(got[w][ti], want[w][ti]) {
										t.Fatalf("exchange %d rank %d tensor %s: ReduceAll differs from Reduce", e, w, specs[ti].Name)
									}
								}
							}
						}
						wantLinks, gotLinks := linkTraffic(t, fEach), linkTraffic(t, fAll)
						for l, want := range wantLinks {
							if got := gotLinks[l]; got != want {
								t.Errorf("link %d→%d carried %+v under ReduceAll, %+v under Reduce", l[0], l[1], got, want)
							}
						}
					})
					if !ok {
						return
					}
				}
			}
		}
	}
}
