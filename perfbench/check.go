package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"

	"slap/internal/aig"
)

// checkWords is the number of 64-pattern simulation words an output check
// runs (1024 patterns).
const checkWords = 16

// checkBLIF reads an emitted BLIF netlist back with aig.ReadBLIF and
// simulates it against the subject graph g on random patterns drawn from
// seed — the workload seed, not the mapper's own verification seed. PIs
// and POs correspond by position, the order the BLIF writer keeps.
func checkBLIF(blif []byte, g *aig.AIG, seed int64) error {
	h, err := aig.ReadBLIF(bytes.NewReader(blif))
	if err != nil {
		return fmt.Errorf("reading BLIF back: %w", err)
	}
	if h.NumPIs() != g.NumPIs() || h.NumPOs() != g.NumPOs() {
		return fmt.Errorf("BLIF has %d PIs/%d POs, subject has %d/%d", h.NumPIs(), h.NumPOs(), g.NumPIs(), g.NumPOs())
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, g.NumPIs())
	for w := 0; w < checkWords; w++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		gout, hout := g.Simulate(in), h.Simulate(in)
		for i := range gout {
			if diff := gout[i] ^ hout[i]; diff != 0 {
				return fmt.Errorf("output %q differs from the subject graph on %d of 64 patterns (word %d)",
					h.POs()[i].Name, bits.OnesCount64(diff), w)
			}
		}
	}
	return nil
}
