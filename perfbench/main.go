// Command perfbench is the repository benchmark. It builds nothing itself:
// run.sh builds slap, slap-serve and slap-train from the checkout and then
// runs this harness, which drives those binaries with their shipped
// defaults on one named workload:
//
//	bash perfbench/run.sh --workload cli-slap --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the harness measures the end-to-end metrics; with
// --trace 1 it replays each design in-process through the public function
// of every layer, times every call as a span and reports per-layer
// metrics. Every emitted netlist is checked independently of the mapper.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// README.md lists the workloads, the designs and why they were chosen, and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ands_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
	{"qor_area_um2", "um2"},
	{"qor_delay_ps", "ps"},
	{"ok_frac", "frac"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"aig.decode_ms", "ms"},
	{"choice.build_ms", "ms"},
	{"choice.graft_ms", "ms"},
	{"choice.simulate_ms", "ms"},
	{"choice.prove_ms", "ms"},
	{"choice.alloc_mb", "MB"},
	{"choice.proved_frac", "frac"},
	{"cuts.enumerate_ms", "ms"},
	{"cuts.cuts", "count"},
	{"embed.ms", "ms"},
	{"infer.engine_ms", "ms"},
	{"infer.predict_ms", "ms"},
	{"infer.calls", "count"},
	{"infer.batch_mean", "count"},
	{"core.filter_ms", "ms"},
	{"core.kept_frac", "frac"},
	{"mapper.select_ms", "ms"},
	{"mapper.recovery_ms", "ms"},
	{"mapper.match_attempts", "count"},
	{"lutmap.select_ms", "ms"},
	{"lutmap.luts", "count"},
	{"netlist.sta_ms", "ms"},
	{"netlist.verify_ms", "ms"},
	{"netlist.emit_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"server.queue_ms_p50", "ms"},
	{"server.elapsed_ms_cold_p50", "ms"},
	{"server.elapsed_ms_hit_p50", "ms"},
	{"server.elapsed_ms_eco_p50", "ms"},
	{"server.lut_unverified", "count"},
	{"mapcache.hit_frac", "frac"},
	{"mapcache.eco_frac", "frac"},
	{"mapcache.evictions", "count"},
	{"mapcache.dirty_frac_mean", "frac"},
	{"infer.full_flush_frac", "frac"},
	{"cuts.arena_hit_frac", "frac"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"cli-slap":    runCLISlap,
	"cli-choices": runCLIChoices,
	"serve-mix":   runServeMix,
}

// env is what every workload runner receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	bin     string // directory holding slap, slap-serve and slap-train
	work    string // directory for this run's files, inside the checkout
}

// report is a workload's outcome before it is printed.
type report struct {
	attempted int
	failed    int
	// problems describes each failure, for the log.
	problems []string
	metrics  map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: cli-slap, cli-choices or serve-mix")
		seed     = flag.Int64("seed", 1, "seed for the workload's inputs and the output checks")
		seconds  = flag.Int("seconds", 10, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		build    = flag.String("build", ".bench_build", "build directory holding bin/ (written by run.sh)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, build string) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cli-slap, cli-choices or serve-mix)", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	work := filepath.Join(build, "work", workload)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	e := &env{
		seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1,
		bin: filepath.Join(build, "bin"), work: work,
	}
	for _, name := range []string{"slap", "slap-serve", "slap-train"} {
		if _, err := os.Stat(filepath.Join(e.bin, name)); err != nil {
			return fmt.Errorf("missing binary (run through perfbench/run.sh): %w", err)
		}
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", workload, seed, seconds, trace)
	rep, err := runner(e)
	if err != nil {
		return err
	}
	return printResult(rep, e.trace)
}

// printResult prints every metric of the run's kind, then the JSON line.
func printResult(rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Println("metrics:")
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a ratio with no base).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fileName turns a design name into a file name ("Pico RISCV" -> "pico_riscv").
func fileName(design string) string {
	return strings.ToLower(strings.ReplaceAll(design, " ", "_"))
}
