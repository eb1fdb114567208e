package main

import (
	"math/rand"

	"cirstag/internal/circuit"
	"cirstag/internal/perturb"
)

// designSeed is the generator seed of every workload's base design. The
// workload seed does not regenerate the design: netlists generated from
// different seeds differ enough in structure that the pipeline's solver
// work varies by ±15% between them, which would hide changes of that size.
const designSeed = 1

// variant draws the workload's input from a base design: the capacitance of
// a seed-chosen tenth of the input pins, scaled by one seed-drawn factor in
// [1.1, 2). The structure stays that of the base design; the features, and
// with them the GNN outputs and both manifolds, differ from seed to seed.
func variant(base *circuit.Netlist, seed int64) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	var pins []int
	for _, p := range base.Pins {
		if p.Dir == circuit.DirIn && rng.Intn(10) == 0 {
			pins = append(pins, p.ID)
		}
	}
	return perturb.ScaleCaps(base, pins, 1.1+0.9*rng.Float64())
}
