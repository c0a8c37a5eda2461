package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/comm"
	"repro/nn"
)

var updateUpdateGolden = flag.Bool("update-update-golden", false,
	"rewrite testdata/update_golden.json from the parameters this build trains")

// updateGoldenCase names one cell of the update-path grid: weight
// decay, gradient clipping, primitive and worker count.
type updateGoldenCase struct {
	wd   float32
	clip float32
	prim comm.Primitive
	k    int
}

func (c updateGoldenCase) String() string {
	prim := "mpi"
	if c.prim == comm.NCCL {
		prim = "nccl"
	}
	return fmt.Sprintf("wd=%g/clip=%g/%s/k=%d", c.wd, c.clip, prim, c.k)
}

// paramDigest hashes the float bits of every parameter of net, in
// parameter order.
func paramDigest(net *nn.Network) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUpdateGolden pins the whole update path — the 1/K average, the
// clip of the averaged gradient, weight decay and the momentum step —
// to parameter digests recorded before the average moved into the
// optimiser's update pass. "Replicas in sync" alone cannot see these
// paths: every replica doing the same wrong thing stays in sync.
func TestUpdateGolden(t *testing.T) {
	train, test := blobData(t)
	got := map[string]string{}
	for _, wd := range []float32{0, 5e-4} {
		for _, clip := range []float32{0, 0.5} {
			for _, prim := range []comm.Primitive{comm.MPI, comm.NCCL} {
				for _, k := range []int{1, 2, 3} {
					c := updateGoldenCase{wd, clip, prim, k}
					tr, err := NewTrainer(buildMLP(36, 4), Config{
						Workers: k, Primitive: prim, WeightDecay: wd, ClipNorm: clip,
						BatchSize: 48, Epochs: 2, Schedule: nn.ConstantLR(0.08),
						Momentum: 0.9, Seed: 5,
					})
					if err != nil {
						t.Fatalf("%v: %v", c, err)
					}
					if _, err := tr.Run(train, test); err != nil {
						t.Fatalf("%v: %v", c, err)
					}
					if !tr.ReplicasInSync() {
						t.Fatalf("%v: replicas diverged", c)
					}
					got[c.String()] = paramDigest(tr.Model())
				}
			}
		}
	}

	const path = "testdata/update_golden.json"
	if *updateUpdateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("trained %d cases, golden has %d", len(got), len(want))
	}
	for key, sum := range want {
		if got[key] != sum {
			t.Errorf("%s: parameters digest %.16s…, golden %.16s…", key, got[key], sum)
		}
	}
}
