// Command lpsgd-quant inspects the gradient codecs on random data:
// exact wire sizes, compression ratios, round-trip error and encoding
// throughput. Useful for understanding how bucket size and tensor shape
// drive the trade-offs the paper measures.
//
// Examples:
//
//	lpsgd-quant -n 1000000
//	lpsgd-quant -rows 3 -cols 100000      # the conv-kernel wire layout
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/report"
	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

func main() {
	var (
		n    = flag.Int("n", 1<<20, "vector length (ignored when rows/cols given)")
		rows = flag.Int("rows", 0, "tensor rows (CNTK first dimension)")
		cols = flag.Int("cols", 0, "tensor cols (flattened remaining dims)")
		seed = flag.Uint64("seed", 1, "random seed")
		ext  = flag.Bool("ext", false, "include the extension codecs (2-norm/uniform/exponential QSGD, top-k)")
	)
	flag.Parse()

	shape := quant.Shape{Rows: *rows, Cols: *cols}
	if shape.Rows <= 0 || shape.Cols <= 0 {
		shape = quant.Shape{Rows: 1024, Cols: (*n + 1023) / 1024}
	}
	total := shape.Len()
	r := rng.New(*seed)
	src := make([]float32, total)
	tensor.FillNorm(src, r, 1)
	dst := make([]float32, total)

	codecs := quant.PaperCodecs()
	if *ext {
		codecs = append(codecs, quant.ExtensionCodecs()...)
	}
	t := report.New(
		fmt.Sprintf("codec inspection: %d values, shape %s", total, shape),
		"codec", "wire_bytes", "ratio", "rmse", "encode_MB/s", "decode_MB/s")
	for _, c := range codecs {
		enc := c.NewEncoder(total, shape, *seed)
		start := time.Now()
		wire := enc.Encode(src)
		encDur := time.Since(start)
		start = time.Now()
		if err := c.Decode(wire, total, shape, dst); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		decDur := time.Since(start)
		var mse float64
		for i := range src {
			d := float64(src[i] - dst[i])
			mse += d * d
		}
		rawMB := float64(4*total) / 1e6
		t.Addf("%s\t%d\t%.2f\t%.4f\t%.0f\t%.0f",
			c.Name(), len(wire), quant.CompressionRatio(c, shape),
			math.Sqrt(mse/float64(total)),
			rawMB/encDur.Seconds(), rawMB/decDur.Seconds())
	}
	t.Note("ratio = raw float32 bytes / wire bytes for this shape; rmse is one-pass round-trip error")
	t.Render(os.Stdout)
}
