// Quickstart: train a small classifier with 4-bit quantised gradient
// exchange across 4 simulated GPUs and compare the wire volume against
// full precision — entirely through the public lpsgd facade: codecs are
// selected by name (a bare codec name is a WithPolicy policy) and
// nothing is hand-wired.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/lpsgd"
)

func main() {
	// A synthetic image-classification task (stands in for CIFAR-10):
	// single-channel 8×8 images, so the MLP below takes 64 inputs.
	train, test := lpsgd.SyntheticImages(4, 512, 256, 42)

	run := func(codecName, label string) {
		trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 48, 4),
			lpsgd.WithPolicy(codecName),
			lpsgd.WithWorkers(4),
			lpsgd.WithBatchSize(64),
			lpsgd.WithEpochs(10),
			lpsgd.WithLearningRate(0.08),
			lpsgd.WithSeed(1),
		)
		if err != nil {
			log.Fatal(err)
		}
		h, err := trainer.Run(train, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s final accuracy %5.1f%%   gradient traffic %6.1f MB\n",
			label, 100*h.FinalAccuracy, float64(h.TotalWireBytes)/1e6)
	}

	run("32bit", "32-bit full precision")
	run("qsgd4b512", "QSGD 4-bit (b=512)")
	run("1bit*64", "1bitSGD* (d=64)")
}
