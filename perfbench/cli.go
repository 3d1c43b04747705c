package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slap/internal/experiments"
)

// The CLI workloads' designs, from the fast profile (README.md says why).
var (
	cliSlapDesigns    = []string{"adder", "c6288", "max", "rc256b", "sin", "c7552", "mul32-booth", "Pico RISCV"}
	cliChoicesDesigns = []string{"c6288", "rc256b", "max", "mul32-booth", "square", "sin", "c7552"}
)

func runCLISlap(e *env) (*report, error)    { return runCLI(e, cliSlapDesigns, flowSLAP) }
func runCLIChoices(e *env) (*report, error) { return runCLI(e, cliChoicesDesigns, flowChoices) }

// loadDesigns builds the named fast-profile designs.
func loadDesigns(names []string) ([]*design, error) {
	byName := map[string]experiments.Design{}
	for _, d := range experiments.Designs(experiments.Fast()) {
		byName[d.Name] = d
	}
	var out []*design
	for i, n := range names {
		d, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("no fast-profile design %q", n)
		}
		dd, err := newDesign(i, n, d.Build())
		if err != nil {
			return nil, err
		}
		out = append(out, dd)
	}
	return out, nil
}

// cliRun is one checked slap invocation.
type cliRun struct {
	wall        time.Duration
	rssMB       float64
	area, delay float64
	sha         string
}

// slapArgs is the command line of fl, with every other flag at its
// default except -blif, which writes the netlist the benchmark checks.
func slapArgs(fl flow, aag, blif string, m *model) []string {
	if fl == flowChoices {
		return []string{"-aag", aag, "-policy", "default", "-rounds", "4", "-choices", "-blif", blif}
	}
	return []string{"-aag", aag, "-policy", "slap", "-model", m.path, "-blif", blif}
}

// runSlap maps one design with the slap binary and reads its QoR lines.
func runSlap(e *env, m *model, d *design, fl flow) (*cliRun, []byte, error) {
	aag := filepath.Join(e.work, fileName(d.name)+".aag")
	blif := filepath.Join(e.work, fileName(d.name)+".blif")
	if err := os.Remove(blif); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "slap"), slapArgs(fl, aag, blif, m)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	t0 := time.Now()
	err := cmd.Run()
	r := &cliRun{wall: time.Since(t0)}
	if err != nil {
		return nil, nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(out.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	if r.area, err = qorField(out.String(), "area:"); err != nil {
		return nil, nil, err
	}
	if r.delay, err = qorField(out.String(), "delay:"); err != nil {
		return nil, nil, err
	}
	b, err := os.ReadFile(blif)
	if err != nil {
		return nil, nil, fmt.Errorf("reading the -blif output: %w", err)
	}
	r.sha = sha256Hex(b)
	return r, b, nil
}

// qorField parses the number after a "label:" line of slap's report.
func qorField(out, label string) (float64, error) {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == label {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("no %q line in slap output", label)
}

// runCLI runs the designs through slap one child at a time, in a seeded
// order, pass after pass while another pass fits in the run's seconds (at
// least one pass; a traced run makes exactly one). Every BLIF is simulated
// against its design, and every later pass must reproduce the first pass's
// bytes.
func runCLI(e *env, names []string, fl flow) (*report, error) {
	rep := newReport()
	repeats := setupRepeats
	if e.trace {
		repeats = 1
	}
	m, trainS, err := trainModels(e, repeats)
	if err != nil {
		return nil, err
	}
	designs, err := loadDesigns(names)
	if err != nil {
		return nil, err
	}
	for _, d := range designs {
		if err := os.WriteFile(filepath.Join(e.work, fileName(d.name)+".aag"), d.body, 0o644); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(e.seed))
	runs := make([][]*cliRun, len(designs))
	var walls []float64
	var wall time.Duration
	var ands int
	var rss float64
	start := time.Now()
	var passTime time.Duration
	for pass := 0; pass == 0 || (!e.trace && time.Since(start)+passTime <= e.seconds); pass++ {
		passStart := time.Now()
		for _, i := range rng.Perm(len(designs)) {
			d := designs[i]
			rep.attempted++
			r, blif, err := runSlap(e, m, d, fl)
			if err != nil {
				rep.fail("slap on %s: %v", d.name, err)
				continue
			}
			if len(runs[i]) > 0 && r.sha != runs[i][0].sha {
				rep.fail("slap on %s: BLIF sha256 %s differs from the first run's %s", d.name, r.sha, runs[i][0].sha)
				continue
			}
			if len(runs[i]) == 0 {
				if err := checkBLIF(blif, d.g, e.seed); err != nil {
					rep.fail("slap on %s: %v", d.name, err)
					continue
				}
			}
			runs[i] = append(runs[i], r)
			walls = append(walls, ms(r.wall))
			wall += r.wall
			ands += d.g.NumAnds()
			rss = max(rss, r.rssMB)
		}
		passTime = time.Since(passStart)
	}

	var area, delay float64
	digest := sha256.New()
	fmt.Printf("%-12s %6s %5s %4s %10s %10s %9s %8s  %s\n", "design", "ands", "depth", "runs", "wall_ms", "area", "delay", "rss_mb", "blif_sha256")
	for i, d := range designs {
		if len(runs[i]) == 0 {
			continue
		}
		var w []float64
		for _, r := range runs[i] {
			w = append(w, ms(r.wall))
		}
		r := runs[i][0]
		area += r.area
		delay += r.delay
		fmt.Fprintf(digest, "%s %g %g %s\n", d.name, r.area, r.delay, r.sha)
		fmt.Printf("%-12s %6d %5d %4d %10.2f %10.2f %9.2f %8.1f  %s\n", d.name, d.g.NumAnds(), d.g.MaxLevel(),
			len(runs[i]), quantile(w, 0.5), r.area, r.delay, r.rssMB, r.sha[:16])
	}
	fmt.Printf("answer digest: %x (sha256 over every design's QoR and BLIF hash)\n", digest.Sum(nil))
	fmt.Printf("totals: %d runs, %d ANDs in %.3f s, area %.2f um2, delay %.2f ps, peak rss %.1f MB\n",
		len(walls), ands, wall.Seconds(), area, delay, rss)
	fmt.Printf("latency: p50 %.2f ms, p95 %.2f ms over %d runs\n", quantile(walls, 0.5), quantile(walls, 0.95), len(walls))

	if !e.trace {
		rep.metrics["setup_s"] = trainS
		rep.metrics["ands_per_s"] = float64(ands) / wall.Seconds()
		rep.metrics["req_per_s"] = float64(len(walls)) / wall.Seconds()
		rep.metrics["latency_ms_p50"] = quantile(walls, 0.5)
		rep.metrics["latency_ms_p95"] = quantile(walls, 0.95)
		rep.metrics["peak_rss_mb"] = rss
		rep.metrics["qor_area_um2"] = area
		rep.metrics["qor_delay_ps"] = delay
		rep.metrics["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
		return rep, nil
	}

	cliWalls := map[int]time.Duration{}
	for i, d := range designs {
		if len(runs[i]) > 0 {
			cliWalls[d.id] = runs[i][0].wall
		}
	}
	total, err := replayAll(e, rep, m, designs, fl, cliWalls)
	if err != nil {
		return nil, err
	}
	total.metrics(rep.metrics)

	// The server's layers on this workload's designs: a fixed pass of a
	// cold map, a repeat, a ~5% edit and a LUT map per design.
	streams, err := passSequence(designs, e.seed)
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(e, m, 0)
	if err != nil {
		return nil, err
	}
	p, err := serverPass(e, rep, m, srv, streams)
	srv.stop()
	if err != nil {
		return nil, err
	}
	serverLayerMetrics(rep.metrics, p)
	return rep, nil
}

// replayAll replays designs in-process, prints one row per design with
// the untraced CLI wall time beside the traced replay total where there is
// one, and writes the spans to spans.json in the run's work directory.
func replayAll(e *env, rep *report, m *model, designs []*design, fl flow, cliWalls map[int]time.Duration) (*layers, error) {
	rp, err := newReplayer(m, e.seed)
	if err != nil {
		return nil, err
	}
	total := &layers{}
	fmt.Printf("%-12s %9s %9s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %10s %9s\n",
		"replay", "cli_ms", "replay_ms", "choice", "enum", "embed", "engine", "predict", "filter",
		"select", "recover", "lutmap", "verify", "area", "delay")
	for _, d := range designs {
		rep.attempted++
		l, err := rp.replay(d.name, d.body, fl)
		if err != nil {
			rep.fail("replay of %s: %v", d.name, err)
			continue
		}
		l.cliWall = cliWalls[d.id]
		fmt.Printf("%-12s %9.2f %9.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %10.2f %9.2f\n",
			d.name, ms(l.cliWall), ms(l.replay), ms(l.choiceBuild), ms(l.enumerate), ms(l.embed), ms(l.engine),
			ms(l.predict), ms(l.filter), ms(l.selectT), ms(l.recovery), ms(l.lutSelect), ms(l.verify), l.area, l.delay)
		total.add(l)
	}
	fmt.Printf("replay totals: %d designs, replay %.2f ms", total.designs, ms(total.replay))
	if cliWalls != nil {
		fmt.Printf(" beside %.2f ms of untraced CLI wall", ms(total.cliWall))
	}
	fmt.Println()
	path := filepath.Join(e.work, "spans.json")
	if err := rp.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(rp.tr.spans), path)
	return total, nil
}
