package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// mappedBLIF maps g with the default policy and returns its BLIF.
func mappedBLIF(t *testing.T, g *aig.AIG) []byte {
	t.Helper()
	res, err := mapper.Map(g, mapper.Options{Library: library.ASAP7ish(), Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tieOutputLow rewrites the table driving output po as constant 0.
func tieOutputLow(t *testing.T, blif []byte, po string) []byte {
	t.Helper()
	var out []string
	skipping, found := false, false
	for _, line := range strings.Split(string(blif), "\n") {
		f := strings.Fields(line)
		if skipping && (len(f) == 0 || !strings.HasPrefix(f[0], ".")) {
			continue
		}
		skipping = false
		if len(f) > 1 && f[0] == ".names" && f[len(f)-1] == po {
			out = append(out, ".names "+po)
			skipping, found = true, true
			continue
		}
		out = append(out, line)
	}
	if !found {
		t.Fatalf("no table drives %s", po)
	}
	return []byte(strings.Join(out, "\n"))
}

func TestCheckBLIFAcceptsMappedNetlist(t *testing.T) {
	g := circuits.RippleCarryAdder(8)
	if err := checkBLIF(mappedBLIF(t, g), g, 7); err != nil {
		t.Fatalf("correct netlist rejected: %v", err)
	}
}

func TestCheckBLIFRejectsCorruptedNetlist(t *testing.T) {
	g := circuits.RippleCarryAdder(8)
	blif := mappedBLIF(t, g)
	h, err := aig.ReadBLIF(bytes.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range h.POs() {
		bad := tieOutputLow(t, blif, po.Name)
		if err := checkBLIF(bad, g, 7); err == nil {
			t.Errorf("netlist with %s tied low passed the check", po.Name)
		}
	}
	if err := checkBLIF([]byte(".model broken\n.inputs a\n"), g, 7); err == nil {
		t.Error("truncated netlist passed the check")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the harness", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, harness %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	var e2e, layer []struct{ Name, Unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestMixPoolDesignsAreUnrelated(t *testing.T) {
	// The result cache takes a relative for ECO remapping at cone-hash
	// overlap 0.5 or more; pool designs must stay below it, and every edit
	// must clear it against its parent.
	streams, err := mixSequence(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	news := map[string]*aig.AIG{}
	for _, stream := range streams {
		for _, r := range stream {
			if r.plan == "new" {
				news[r.d.name] = r.d.g
			}
		}
	}
	for a, ga := range news {
		for b, gb := range news {
			if a < b && aig.OverlapFraction(ga.ConeHashes(), gb.ConeHashes()) >= 0.5 {
				t.Errorf("pool designs %s and %s share half their cones", a, b)
			}
		}
	}
	for _, stream := range streams {
		for _, r := range stream {
			if r.plan != "edit" {
				continue
			}
			parent := news[strings.TrimSuffix(r.d.name, "+e")]
			if f := aig.OverlapFraction(r.d.g.ConeHashes(), parent.ConeHashes()); f < 0.5 {
				t.Errorf("edit %s shares only %.2f of its cones with its parent", r.d.name, f)
			}
			if r.d.g.MaxLevel() != parent.MaxLevel() {
				t.Errorf("edit %s changes the depth", r.d.name)
			}
		}
	}
}

func TestMixSequenceShape(t *testing.T) {
	streams, err := mixSequence(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != clients {
		t.Fatalf("%d streams, want one per client (%d)", len(streams), clients)
	}
	plans := map[string]int{}
	for c, stream := range streams {
		first := map[string]int{} // design name -> index of its new request
		for i, r := range stream {
			switch {
			case r.lut:
				plans["lut"]++
			case r.plan == "new":
				plans["new"]++
				first[r.d.name] = i
			case r.plan == "repeat":
				plans["repeat"]++
				if _, ok := first[r.d.name]; !ok {
					t.Errorf("stream %d request %d: repeat of %s before its first request", c, i, r.d.name)
				}
			case r.plan == "edit":
				plans["edit"]++
				base := strings.TrimSuffix(r.d.name, "+e")
				if j, ok := first[base]; !ok || j != i-1 {
					t.Errorf("stream %d request %d: edit of %s does not follow it", c, i, base)
				}
			}
		}
	}
	want := map[string]int{"new": 30, "lut": 10, "repeat": 30, "edit": 30}
	for k, n := range want {
		if plans[k] != n {
			t.Errorf("%d %s requests, want %d", plans[k], k, n)
		}
	}
	again, err := mixSequence(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for c := range streams {
		for i := range streams[c] {
			if streams[c][i].plan != again[c][i].plan || !bytes.Equal(streams[c][i].d.body, again[c][i].d.body) {
				t.Fatalf("stream %d request %d differs between two generations from one seed", c, i)
			}
		}
	}
}
