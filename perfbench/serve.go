package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/nn"
)

// clients is the number of closed-loop clients driving the server, one per
// CPU of the 2-vCPU machine the benchmark is sized for.
const clients = 2

// mixDesignsPerSecond sets the size of the serve-mix design pool: this many
// new designs per second of --seconds, each bringing 2.5 requests on
// average (a LUT design one, an ASIC design three).
const mixDesignsPerSecond = 6

// replayDesigns is how many serve-mix pool designs a traced run replays
// in-process.
const replayDesigns = 8

// mapQuery is the request every workload sends: the SLAP flow with the
// server's equivalence check and a BLIF netlist in the answer.
const mapQuery = "policy=slap&model=m&verify=1&netlist=blif"

// design is one circuit a workload maps, with its ASCII AIGER encoding.
type design struct {
	id   int
	name string
	g    *aig.AIG
	body []byte
}

func newDesign(id int, name string, g *aig.AIG) (*design, error) {
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	return &design{id: id, name: name, g: g, body: buf.Bytes()}, nil
}

// request is one planned /v1/map call.
type request struct {
	d   *design
	lut bool
	// plan is "new", "repeat" or "edit". A repeat or an edit follows its
	// design's first request on the same client, so that answer has
	// arrived and whether it hits the cache does not depend on timing.
	plan string
}

// mapResponse holds the /v1/map answer fields the benchmark reads.
type mapResponse struct {
	Area          float64 `json:"area"`
	Delay         float64 `json:"delay"`
	LUTs          int     `json:"luts"`
	Depth         int32   `json:"depth"`
	QueueMS       float64 `json:"queue_ms"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Verified      bool    `json:"verified"`
	Cached        bool    `json:"cached"`
	ECO           bool    `json:"eco"`
	Netlist       string  `json:"netlist"`
	NetlistFormat string  `json:"netlist_format"`
	Error         string  `json:"error"`
}

// answer is one completed request.
type answer struct {
	status  int
	latency time.Duration
	resp    mapResponse
	err     error
}

// kind classifies an answer as the server served it: lut, hit, eco or cold.
func (a *answer) kind(r request) string {
	switch {
	case r.lut:
		return "lut"
	case a.resp.Cached:
		return "hit"
	case a.resp.ECO:
		return "eco"
	}
	return "cold"
}

var answerKinds = []string{"hit", "eco", "cold", "lut"}

// family is a circuit generator the serve-mix draws new designs from.
type family struct {
	name         string
	build        func(w int) *aig.AIG
	lo, hi, step int // widths lo, lo+step, ..., hi
}

// families keeps designs between about 100 and 700 ANDs, so a run holds
// enough requests for a stable p95.
var families = []family{
	{"rc", circuits.RippleCarryAdder, 16, 64, 1},
	{"cla", circuits.CarryLookaheadAdder, 12, 48, 4},
	{"mul", circuits.ArrayMultiplier, 4, 8, 1},
	{"booth", circuits.BoothMultiplier, 4, 8, 1},
	{"square", circuits.Squarer, 6, 10, 1},
	{"div", circuits.Divider, 3, 7, 1},
	{"sqrt", circuits.Sqrt, 6, 14, 2},
	{"max", func(w int) *aig.AIG { return circuits.MaxTree(4, w) }, 4, 16, 1},
	{"alu", circuits.ALUCompare, 6, 24, 1},
}

// mixPool lists the serve-mix's new designs: every family width, thinned
// evenly to at most k, with every fourth one LUT-mapped. The pool does not
// depend on the seed, so QoR sums and answer shares compare across seeds.
func mixPool(k int) ([]request, error) {
	type width struct {
		f family
		w int
	}
	var all []width
	for _, f := range families {
		for w := f.lo; w <= f.hi; w += f.step {
			all = append(all, width{f, w})
		}
	}
	k = min(k, len(all))
	pool := make([]request, k)
	for j := range pool {
		it := all[j*len(all)/k]
		g := shufflePIs(it.f.build(it.w), rand.New(rand.NewSource(int64(j))))
		d, err := newDesign(j, fmt.Sprintf("%s%d", it.f.name, it.w), g)
		if err != nil {
			return nil, err
		}
		pool[j] = request{d: d, lut: j%4 == 3, plan: "new"}
	}
	return pool, nil
}

// shufflePIs rebuilds g with its PIs declared in an order drawn from rng.
// The result cache finds an edit's relative by cone hashes, which number
// PIs by position; without the shuffle, a generator's narrower design
// shares almost every cone with a wider one and can outscore an edit's own
// parent, depending on which entries are recent. With it, pool designs
// share no cones, and every edit is delta-remapped against its parent.
func shufflePIs(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	h := aig.New(g.Name)
	pis := g.PIs()
	lits := make([]aig.Lit, g.NumNodes())
	for _, i := range rng.Perm(len(pis)) {
		lits[pis[i]] = h.AddPI(g.PIName(i))
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			f0, f1 := g.Fanins(n)
			lits[n] = h.And(lits[f0.Node()].NotIf(f0.IsCompl()), lits[f1.Node()].NotIf(f1.IsCompl()))
		}
	}
	for _, po := range g.POs() {
		h.AddPO(po.Name, lits[po.Lit.Node()].NotIf(po.Lit.IsCompl()))
	}
	return h
}

// editOf returns a ~5% edit of g near its outputs (the PerturbSpan shape
// the repository's ECO benchmarks use) that keeps g's depth, so the
// server can delta-remap it against g. It tries a few seeds from rng.
func editOf(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	var e *aig.AIG
	for try := 0; try < 16; try++ {
		e = circuits.PerturbSpan(g, rng.Int63(), 0.9, 1, 0.5)
		if e.MaxLevel() == g.MaxLevel() && e.StructuralHash() != g.StructuralHash() {
			break
		}
	}
	return e
}

// mixSequence generates one request stream per client from seed. The pool
// is split between the clients by AND count, largest first onto the
// lighter stream, so both streams carry about the same work. Each stream
// sends its designs in a seeded order; every ASIC design is edited once
// (~5%) and resubmitted once (see streamSequence). The requests split 40%
// new (a quarter of those LUT maps), 30% repeats and 30% edits.
func mixSequence(seed int64, k int) ([][]request, error) {
	rng := rand.New(rand.NewSource(seed))
	pool, err := mixPool(k)
	if err != nil {
		return nil, err
	}
	weight := func(r request) int {
		if r.lut {
			return r.d.g.NumAnds()
		}
		return 3 * r.d.g.NumAnds()
	}
	sorted := append([]request(nil), pool...)
	sort.SliceStable(sorted, func(a, b int) bool { return weight(sorted[a]) > weight(sorted[b]) })
	parts := make([][]request, clients)
	load := make([]int, clients)
	for _, r := range sorted {
		c := 0
		for i := range load {
			if load[i] < load[c] {
				c = i
			}
		}
		parts[c] = append(parts[c], r)
		load[c] += weight(r)
	}
	nextID := len(pool)
	streams := make([][]request, clients)
	for c, part := range parts {
		var edits []*design
		for _, r := range part {
			if r.lut {
				edits = append(edits, nil)
				continue
			}
			e, err := newDesign(nextID, r.d.name+"+e", editOf(r.d.g, rng))
			if err != nil {
				return nil, err
			}
			nextID++
			edits = append(edits, e)
		}
		streams[c] = streamSequence(rng, part, edits)
	}
	return streams, nil
}

// streamSequence orders one client's requests: news in a seeded order,
// each ASIC design's edit (edits[i] for news[i]) right after it, and its
// repeat at a seeded later position. An edit sent at once finds its
// parent at the front of the result cache's recency list, where the ECO
// path looks; later, the other client's hits could push it out.
func streamSequence(rng *rand.Rand, news []request, edits []*design) []request {
	type slot struct {
		pos float64
		req request
	}
	var slots []slot
	for i, ni := range rng.Perm(len(news)) {
		r := news[ni]
		slots = append(slots, slot{pos: float64(i), req: r})
		if !r.lut {
			slots = append(slots,
				slot{pos: float64(i), req: request{d: edits[ni], plan: "edit"}},
				slot{pos: float64(i) + 1 + rng.Float64()*float64(len(news)-i), req: request{d: r.d, plan: "repeat"}})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	out := make([]request, len(slots))
	for i, sl := range slots {
		out[i] = sl.req
	}
	return out
}

// passSequence is the fixed server pass of a traced CLI run: for each
// design, a cold map, an exact repeat, a ~5% edit and a LUT map, with the
// designs dealt to the clients in turn.
func passSequence(designs []*design, seed int64) ([][]request, error) {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]request, clients)
	for i, d := range designs {
		e, err := newDesign(d.id+len(designs), d.name+"+e", editOf(d.g, rng))
		if err != nil {
			return nil, err
		}
		c := i % clients
		streams[c] = append(streams[c],
			request{d: d, plan: "new"},
			request{d: d, plan: "repeat"},
			request{d: e, plan: "edit"},
			request{d: d, lut: true, plan: "new"},
		)
	}
	return streams, nil
}

// execute runs one closed-loop client per stream and returns every
// request with its answer, stream after stream, and the wall time from
// the first send to the last answer.
func execute(url string, streams [][]request) ([]request, []answer, time.Duration) {
	answers := make([][]answer, len(streams))
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: len(streams), MaxIdleConnsPerHost: len(streams)}}
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, stream := range streams {
		answers[c] = make([]answer, len(stream))
		wg.Add(1)
		go func(out []answer, stream []request) {
			defer wg.Done()
			for i, r := range stream {
				out[i] = send(hc, url, r)
			}
		}(answers[c], stream)
	}
	wg.Wait()
	wall := time.Since(t0)
	var reqs []request
	var flat []answer
	for c := range streams {
		reqs = append(reqs, streams[c]...)
		flat = append(flat, answers[c]...)
	}
	return reqs, flat, wall
}

// send posts one map request and reads the whole answer; latency runs from
// the send until the last byte is read.
func send(hc *http.Client, url string, r request) answer {
	q := mapQuery
	if r.lut {
		q += "&target=lut"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/map?"+q, bytes.NewReader(r.d.body))
	if err != nil {
		return answer{err: err}
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return answer{latency: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{status: resp.StatusCode, latency: time.Since(t0)}
	if err != nil {
		a.err = err
		return a
	}
	if err := json.Unmarshal(body, &a.resp); err != nil {
		a.err = fmt.Errorf("decoding answer: %w", err)
	}
	return a
}

// scrape reads the server's Prometheus metrics as "name{labels}" -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// served is a sequence's outcome after every answer has been checked.
type served struct {
	kinds         map[string][]float64 // client latencies (ms) by answer kind
	latencies     []float64            // ms
	ands          int
	area, delay   float64
	luts          int
	lutUnverified int
}

// lutChecker maps LUT designs in-process to check the server's LUT
// answers, which carry no netlist: the reference must report the same LUT
// count and depth and pass a seeded equivalence check.
type lutChecker struct {
	s    *core.SLAP
	seed int64
}

func newLUTChecker(m *model, seed int64) (*lutChecker, error) {
	nm, err := nn.LoadFile(m.path)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	s := core.New(nm, library.ASAP7ish())
	s.Batch = infer.NewEngine(nm, infer.Options{})
	return &lutChecker{s: s, seed: seed}, nil
}

func (c *lutChecker) check(d *design, resp mapResponse) error {
	ref, err := c.s.MapLUTStream(d.g)
	if err != nil {
		return fmt.Errorf("reference LUT map: %w", err)
	}
	if err := ref.EquivalentTo(d.g, checkWords, rand.New(rand.NewSource(c.seed))); err != nil {
		return fmt.Errorf("reference LUT map: %w", err)
	}
	if ref.NumLUTs() != resp.LUTs || ref.Depth != resp.Depth {
		return fmt.Errorf("server answered %d LUTs depth %d, in-process map gives %d LUTs depth %d",
			resp.LUTs, resp.Depth, ref.NumLUTs(), ref.Depth)
	}
	return nil
}

// checkAnswers checks every answer and condenses them. A non-200 answer, a
// missing verified flag on an ASIC answer, a BLIF that does not simulate
// like its design, a repeat whose BLIF differs from the design's first
// answer, or a LUT answer that disagrees with the in-process map counts as
// failed. LUT answers lacking verified:true are counted, not failed: the
// server does not verify LUT maps yet.
func checkAnswers(rep *report, reqs []request, answers []answer, seed int64, luts *lutChecker) served {
	s := served{kinds: map[string][]float64{}}
	digest := sha256.New()
	defer func() {
		fmt.Printf("answer digest: %x (sha256 over every answer's kind, QoR and BLIF hash)\n", digest.Sum(nil))
	}()
	firstSHA := map[int]string{} // design id -> BLIF hash of its first answer
	for i, a := range answers {
		r := reqs[i]
		rep.attempted++
		s.latencies = append(s.latencies, ms(a.latency))
		if a.err != nil || a.status != http.StatusOK {
			rep.fail("request %d (%s %s): status %d, %v %s", i, r.plan, r.d.name, a.status, a.err, a.resp.Error)
			continue
		}
		kind, sum := a.kind(r), sha256Hex([]byte(a.resp.Netlist))
		s.kinds[kind] = append(s.kinds[kind], ms(a.latency))
		s.ands += r.d.g.NumAnds()
		fmt.Fprintf(digest, "%d %s %g %g %d %d %s\n", i, kind, a.resp.Area, a.resp.Delay, a.resp.LUTs, a.resp.Depth, sum)
		if r.lut {
			s.luts += a.resp.LUTs
			if !a.resp.Verified {
				s.lutUnverified++
			}
			if err := luts.check(r.d, a.resp); err != nil {
				rep.fail("request %d (LUT %s): %v", i, r.d.name, err)
			}
			continue
		}
		s.area += a.resp.Area
		s.delay += a.resp.Delay
		first, seen := firstSHA[r.d.id]
		switch {
		case !a.resp.Verified:
			rep.fail("request %d (%s %s): verify=1 answer lacks verified:true", i, r.plan, r.d.name)
		case a.resp.NetlistFormat != "blif":
			rep.fail("request %d (%s %s): no BLIF netlist in the answer", i, r.plan, r.d.name)
		case seen && sum != first:
			rep.fail("request %d (%s %s): BLIF sha256 %s differs from the design's first answer %s", i, r.plan, r.d.name, sum, first)
		case !seen:
			firstSHA[r.d.id] = sum
			if err := checkBLIF([]byte(a.resp.Netlist), r.d.g, seed); err != nil {
				rep.fail("request %d (%s %s): %v", i, r.plan, r.d.name, err)
			}
		}
	}
	return s
}

// printKinds prints the share and client latency of each answer kind.
func printKinds(s served, n int) {
	for _, k := range answerKinds {
		lat := s.kinds[k]
		if len(lat) == 0 {
			fmt.Printf("answers: %-4s %4d (%5.1f%%)\n", k, 0, 0.0)
			continue
		}
		fmt.Printf("answers: %-4s %4d (%5.1f%%) latency p10 %7.1f, p25 %7.1f, p50 %7.1f, p75 %7.1f, p95 %7.1f ms\n",
			k, len(lat), 100*ratio(float64(len(lat)), float64(n)), quantile(lat, 0.1), quantile(lat, 0.25),
			quantile(lat, 0.5), quantile(lat, 0.75), quantile(lat, 0.95))
	}
	fmt.Printf("latency: p50 %.2f ms, p95 %.2f ms over %d requests\n", quantile(s.latencies, 0.5), quantile(s.latencies, 0.95), len(s.latencies))
}

// serverLayerMetrics derives the server-side per-layer metrics from the
// answers' own fields and the /metrics counters scraped around them.
func serverLayerMetrics(m map[string]float64, p *pass) {
	d := func(name string) float64 { return p.after[name] - p.before[name] }
	byKind := map[string][]float64{}
	var queue []float64
	for i, a := range p.answers {
		if a.err != nil || a.status != http.StatusOK {
			continue
		}
		queue = append(queue, a.resp.QueueMS)
		k := a.kind(p.reqs[i])
		byKind[k] = append(byKind[k], a.resp.ElapsedMS)
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, 0.5)
	}
	m["server.queue_ms_p50"] = p50(queue)
	m["server.elapsed_ms_cold_p50"] = p50(byKind["cold"])
	m["server.elapsed_ms_hit_p50"] = p50(byKind["hit"])
	m["server.elapsed_ms_eco_p50"] = p50(byKind["eco"])
	m["server.lut_unverified"] = float64(p.lutUnverified)
	hits, misses := d("slap_mapcache_hits"), d("slap_mapcache_misses")
	m["mapcache.hit_frac"] = ratio(hits, hits+misses)
	m["mapcache.eco_frac"] = ratio(d("slap_mapcache_eco_hits"), misses)
	m["mapcache.evictions"] = d("slap_mapcache_evictions")
	m["mapcache.dirty_frac_mean"] = ratio(d("slap_eco_dirty_fraction_sum"), d("slap_eco_dirty_fraction_count"))
	var flushes float64
	for k := range p.after {
		if strings.HasPrefix(k, "slap_infer_flushes_total{") {
			flushes += d(k)
		}
	}
	m["infer.full_flush_frac"] = ratio(d(`slap_infer_flushes_total{reason="size"}`), flushes)
	ah, am := d("slap_arena_hits_total"), d("slap_arena_misses_total")
	m["cuts.arena_hit_frac"] = ratio(ah, ah+am)
}

// pass is a server pass's checked outcome.
type pass struct {
	served
	reqs          []request
	answers       []answer
	wall          time.Duration
	before, after map[string]float64 // /metrics around the pass
}

// serverPass sends the streams to srv, scraping /metrics around them, and
// checks every answer.
func serverPass(e *env, rep *report, m *model, srv *server, streams [][]request) (*pass, error) {
	before, err := scrape(srv.url)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	reqs, answers, wall := execute(srv.url, streams)
	after, err := scrape(srv.url)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	luts, err := newLUTChecker(m, e.seed)
	if err != nil {
		return nil, err
	}
	s := checkAnswers(rep, reqs, answers, e.seed, luts)
	printKinds(s, len(reqs))
	printMixRows(reqs, answers)
	return &pass{served: s, reqs: reqs, answers: answers, wall: wall, before: before, after: after}, nil
}

func runServeMix(e *env) (*report, error) {
	rep := newReport()
	repeats := setupRepeats
	if e.trace {
		repeats = 1
	}
	m, trainS, err := trainModels(e, repeats)
	if err != nil {
		return nil, err
	}
	streams, err := mixSequence(e.seed, mixDesignsPerSecond*int(e.seconds/time.Second))
	if err != nil {
		return nil, err
	}
	plans := map[string]int{}
	n := 0
	for _, stream := range streams {
		for _, r := range stream {
			if r.lut {
				plans["new-lut"]++
			} else {
				plans[r.plan]++
			}
		}
		n += len(stream)
	}
	fmt.Printf("sequence: %d requests from seed %d: new %d, new-lut %d, repeat %d, edit %d; %d closed-loop clients\n",
		n, e.seed, plans["new"], plans["new-lut"], plans["repeat"], plans["edit"], clients)

	srv, startS, err := startServers(e, m, repeats)
	if err != nil {
		return nil, err
	}
	p, err := serverPass(e, rep, m, srv, streams)
	var rss float64
	if err == nil {
		rss, err = srv.peakRSSMB()
	}
	srv.stop()
	if err != nil {
		return nil, err
	}
	fmt.Printf("totals: %d requests in %.3f s, %d ANDs, area %.2f um2, delay %.2f ps, %d LUTs, %d LUT answers unverified\n",
		n, p.wall.Seconds(), p.ands, p.area, p.delay, p.luts, p.lutUnverified)

	if !e.trace {
		rep.metrics["setup_s"] = trainS + startS
		rep.metrics["ands_per_s"] = float64(p.ands) / p.wall.Seconds()
		rep.metrics["req_per_s"] = float64(n) / p.wall.Seconds()
		rep.metrics["latency_ms_p50"] = quantile(p.latencies, 0.5)
		rep.metrics["latency_ms_p95"] = quantile(p.latencies, 0.95)
		rep.metrics["peak_rss_mb"] = rss
		rep.metrics["qor_area_um2"] = p.area
		rep.metrics["qor_delay_ps"] = p.delay
		rep.metrics["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
		return rep, nil
	}

	serverLayerMetrics(rep.metrics, p)
	// The first pool designs, whatever the seed.
	var replay []*design
	for _, r := range p.reqs {
		if r.plan == "new" && r.d.id < replayDesigns {
			replay = append(replay, r.d)
		}
	}
	sort.Slice(replay, func(a, b int) bool { return replay[a].id < replay[b].id })
	total, err := replayAll(e, rep, m, replay, flowSLAP, nil)
	if err != nil {
		return nil, err
	}
	total.metrics(rep.metrics)
	return rep, nil
}

// printMixRows prints one row per distinct design of a sequence.
func printMixRows(reqs []request, answers []answer) {
	type row struct {
		d           *design
		kinds       []string
		lat         []float64
		area, delay float64
		luts        int
	}
	rows := map[int]*row{}
	var order []*row
	for i, r := range reqs {
		w := rows[r.d.id]
		if w == nil {
			w = &row{d: r.d}
			rows[r.d.id] = w
			order = append(order, w)
		}
		a := answers[i]
		w.kinds = append(w.kinds, a.kind(r))
		w.lat = append(w.lat, ms(a.latency))
		switch {
		case a.status != http.StatusOK:
		case r.lut:
			w.luts = a.resp.LUTs
		default:
			w.area, w.delay = a.resp.Area, a.resp.Delay
		}
	}
	fmt.Printf("%-16s %6s %5s %-20s %10s %10s %9s %6s\n", "design", "ands", "depth", "answers", "p50_ms", "area", "delay", "luts")
	for _, w := range order {
		fmt.Printf("%-16s %6d %5d %-20s %10.2f %10.2f %9.2f %6d\n", w.d.name, w.d.g.NumAnds(), w.d.g.MaxLevel(),
			strings.Join(w.kinds, ","), quantile(w.lat, 0.5), w.area, w.delay, w.luts)
	}
}
