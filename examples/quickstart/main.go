// Quickstart: build a circuit, map it three ways (vanilla heuristic,
// exhaustive cuts, SLAP), and compare the results.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/library"
)

func main() {
	// 1. A subject graph: a 64-bit carry-lookahead adder built with the
	//    word-level circuit builder.
	g := circuits.CarryLookaheadAdder(64)
	fmt.Println("subject graph:", g.Stats())

	// 2. The target standard-cell library (synthetic, ASAP7-flavoured).
	lib := library.ASAP7ish()

	// 3. Train a small SLAP model on random mappings of two 16-bit adders
	//    (the paper's training setup, scaled down to run in seconds).
	slap, report, err := core.Train(core.TrainOptions{
		Library:        lib,
		MapsPerCircuit: 120,
		Epochs:         12,
		Filters:        32,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: binary keep/drop accuracy %.1f%% on %d held-out cuts\n",
		100*report.BinaryAccuracy, report.ValSamples)

	// 4. Map three ways through core.Run: the vanilla ABC heuristic (sort
	//    cuts by leaf count, filter dominated cuts, keep 250 per node),
	//    exhaustive cut exploration ("Unlimited ABC") and ML-filtered cuts.
	//    Verify checks every mapped netlist against the subject graph.
	fmt.Printf("\n%-14s %10s %10s %12s %9s\n", "flow", "area µm²", "delay ps", "ADP", "cuts")
	for _, policy := range []string{"default", "unlimited", "slap"} {
		out, err := core.Run(context.Background(), g, core.Request{Policy: policy, Library: lib, SLAP: slap, Verify: true})
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		r := out.ASIC
		fmt.Printf("%-14s %10.1f %10.1f %12.0f %9d\n",
			r.PolicyName, r.Area, r.Delay, r.ADP(), r.CutsConsidered)
	}
}
