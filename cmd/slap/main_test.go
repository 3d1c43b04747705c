package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/library"
)

func TestRunDefaultPolicy(t *testing.T) {
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShuffleAndCells(t *testing.T) {
	if err := run(runConfig{circuit: "bar", profile: "fast", policy: "shuffle", seed: 7, limit: 8, verify: true, cells: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStreaming drives the fused streaming pipeline, the only one core.Run
// has, with equivalence checking for every vanilla policy.
func TestRunStreaming(t *testing.T) {
	for _, policy := range []string{"default", "shuffle", "unlimited"} {
		if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: policy, seed: 3, verify: true}); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run(runConfig{profile: "fast", policy: "default", seed: 1, list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAAGInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.aag")
	g := circuits.TrainRC16()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAAG(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(runConfig{aag: path, profile: "fast", policy: "unlimited", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStdinInput maps a circuit piped to -aag "-": the stdin decode
// path shared with the slap-serve front end, format auto-detected.
func TestRunStdinInput(t *testing.T) {
	var buf bytes.Buffer
	if err := circuits.TrainRC16().WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{aag: "-", stdin: &buf, profile: "fast", policy: "unlimited", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
	// BLIF on stdin sniffs too.
	blif := ".model tiny\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n"
	if err := run(runConfig{aag: "-", stdin: strings.NewReader(blif), profile: "fast", policy: "default", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSLAPPolicy(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	s, _, err := core.Train(core.TrainOptions{
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 20,
		Epochs:         2,
		Filters:        8,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Model.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "slap", model: modelPath, seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}

	// -baseline delta-remaps the ML flow too, to the cold map's QoR.
	g := circuits.BoothMultiplier(6)
	edited := writeAAG(t, dir, "edited.aag", circuits.PerturbSpan(g, 7, 0.9, 1.0, 0.3))
	cfg := runConfig{aag: edited, profile: "fast", policy: "slap", model: modelPath, verify: true}
	cold := runOutput(t, cfg)
	cfg.baseline = writeAAG(t, dir, "base.aag", g)
	if eco := runOutput(t, cfg); !strings.Contains(eco, "cuts reused") || qorLines(eco) != qorLines(cold) {
		t.Fatalf("slap -baseline:\n%s\ncold:\n%s", eco, cold)
	}
}

func TestRunCustomLibrary(t *testing.T) {
	dir := t.TempDir()
	libPath := filepath.Join(dir, "lib.txt")
	text := "GATE inv 1 O=!a DELAY 5 SLOPE 1\nGATE nand2 1.5 O=!(a&b) DELAY 9 SLOPE 2\n"
	if err := os.WriteFile(libPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", lib: libPath, seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"unknown profile", func() error {
			return run(runConfig{circuit: "rc64b", profile: "bogus", policy: "default", seed: 1})
		}},
		{"unknown circuit", func() error {
			return run(runConfig{circuit: "nonesuch", profile: "fast", policy: "default", seed: 1})
		}},
		{"unknown policy", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "bogus", seed: 1})
		}},
		{"slap without model", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "slap", seed: 1})
		}},
		{"missing aag", func() error {
			return run(runConfig{aag: "/nonexistent.aag", profile: "fast", policy: "default", seed: 1})
		}},
		{"missing circuit and aag", func() error {
			return run(runConfig{profile: "fast", policy: "default", seed: 1})
		}},
		{"missing library file", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", lib: "/nonexistent.lib", seed: 1})
		}},
	}
	for _, c := range cases {
		if err := c.f(); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if strings.Contains(err.Error(), "EQUIVALENCE") {
			t.Errorf("%s: unexpected equivalence failure: %v", c.name, err)
		}
	}
}

func TestRunWritesNetlistFiles(t *testing.T) {
	dir := t.TempDir()
	v := filepath.Join(dir, "out.v")
	b := filepath.Join(dir, "out.blif")
	err := run(runConfig{
		circuit: "rc64b", profile: "fast", policy: "default", seed: 1,
		verify: true, verilog: v, blif: b, report: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vd, err := os.ReadFile(v)
	if err != nil || !strings.Contains(string(vd), "module") {
		t.Fatalf("verilog output missing: %v", err)
	}
	bd, err := os.ReadFile(b)
	if err != nil || !strings.Contains(string(bd), ".model") {
		t.Fatalf("blif output missing: %v", err)
	}
}

// writeAAG stores g as an ASCII AIGER file under dir.
func writeAAG(t *testing.T, dir, name string, g interface{ WriteAAG(io.Writer) error }) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOutput runs cfg and returns what it printed.
func runOutput(t *testing.T, cfg runConfig) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	err = run(cfg)
	w.Close()
	os.Stdout = stdout
	out := <-done
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return string(out)
}

// qorLines keeps the lines a cold map and a delta remap must share.
func qorLines(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		for _, p := range []string{"policy:", "area:", "delay:", "ADP:", "cells:", "verify:"} {
			if strings.HasPrefix(l, p) {
				keep = append(keep, l)
			}
		}
	}
	return strings.Join(keep, "\n")
}

// TestRunBaseline drives -baseline: a localised edit delta-remaps against
// the baseline and prints its dirty/reused lines with the cold map's QoR,
// and an unrelated baseline falls back to a cold map that says so.
func TestRunBaseline(t *testing.T) {
	dir := t.TempDir()
	g := circuits.BoothMultiplier(6)
	base := writeAAG(t, dir, "base.aag", g)
	edited := writeAAG(t, dir, "edited.aag", circuits.PerturbSpan(g, 7, 0.9, 1.0, 0.3))
	other := writeAAG(t, dir, "other.aag", circuits.RippleCarryAdder(12))
	for _, policy := range []string{"default", "unlimited"} {
		cfg := runConfig{aag: edited, profile: "fast", policy: policy, verify: true}
		cold := runOutput(t, cfg)
		cfg.baseline = base
		eco := runOutput(t, cfg)
		if !strings.Contains(eco, "delta remap in") || !strings.Contains(eco, "cuts reused") {
			t.Fatalf("%s: -baseline printed no delta lines:\n%s", policy, eco)
		}
		if qorLines(eco) != qorLines(cold) {
			t.Fatalf("%s: delta remap QoR differs from the cold map:\n%s\nvs\n%s", policy, eco, cold)
		}
		cfg.baseline = other
		if out := runOutput(t, cfg); !strings.Contains(out, "mapped cold") || qorLines(out) != qorLines(cold) {
			t.Fatalf("%s: unrelated baseline:\n%s", policy, out)
		}
	}
	if err := run(runConfig{aag: edited, baseline: base, profile: "fast", policy: "shuffle"}); err == nil {
		t.Fatal("-baseline accepted the shuffle policy")
	}
}
