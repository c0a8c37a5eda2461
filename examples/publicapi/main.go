// Publicapi demonstrates the library's external surface end to end,
// importing only the public packages repro/lpsgd and repro/quant:
//
//  1. a trainer assembled with functional options, with the gradient
//     codec chosen by name through WithPolicy and the
//     gradients moving over real loopback TCP sockets;
//  2. the self-describing framed wire format: one peer encodes with
//     Encoder.EncodeTo, the other decodes with quant.DecodeAny from a
//     raw TCP connection — no shared codec configuration anywhere.
//
// Run with:
//
//	go run ./examples/publicapi
package main

import (
	"fmt"
	"log"
	"net"

	"repro/lpsgd"
	"repro/quant"
)

func main() {
	// --- 1. Train with a named codec over the TCP transport. ---
	train, test := lpsgd.SyntheticImages(4, 384, 192, 7)
	trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 48, 4),
		lpsgd.WithPolicy("qsgd4b512"),
		lpsgd.WithWorkers(2),
		lpsgd.WithTransport(lpsgd.TCP),
		lpsgd.WithBatchSize(64),
		lpsgd.WithEpochs(6),
		lpsgd.WithLearningRate(0.08),
		lpsgd.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()
	h, err := trainer.Run(train, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained over TCP with qsgd4b512: accuracy %.1f%%, wire %.2f MB, replicas in sync: %v\n",
		100*h.FinalAccuracy, float64(h.TotalWireBytes)/1e6, trainer.ReplicasInSync())

	// --- 2. Framed wire bytes across a raw TCP connection. ---
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	decoded := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		total := 0
		// The receiver knows nothing about the sender's codec choices:
		// each frame announces its own codec, shape and element count.
		for i := 0; i < 3; i++ {
			vals, err := quant.DecodeAny(conn)
			if err != nil {
				log.Fatal(err)
			}
			total += len(vals)
		}
		decoded <- total
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	shape := quant.Shape{Rows: 64, Cols: 64}
	n := shape.Len()
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(i%31) - 15
	}
	for _, name := range []string{"1bit*64", "qsgd8b512", "topk0.05"} {
		codec, err := quant.Parse(name)
		if err != nil {
			log.Fatal(err)
		}
		wrote, err := codec.NewEncoder(n, shape, 3).EncodeTo(conn, grad)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sent %-10s frame: %5d bytes for %d values (%.1f× compression)\n",
			name, wrote, n, float64(4*n)/float64(wrote))
	}
	fmt.Printf("receiver decoded %d values with no shared codec config\n", <-decoded)
}
