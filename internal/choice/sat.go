// Mini CDCL SAT solver used to prove candidate choice members before the
// mapper may substitute them. Simulation signatures only *propose*
// equivalence classes; two nodes of a deep circuit can agree on thousands of
// random patterns and still differ on a rare one (a long carry chain, a
// near-constant guard), and a false choice silently corrupts the mapped
// netlist. So, like ABC's fraiging, every class member is discharged by two
// incremental SAT calls — UNSAT(n=1, m'=0) and UNSAT(n=0, m'=1) against its
// certification anchor m — over the Tseitin encoding of the class's union
// transitive-fanin cone, under a conflict budget; anything SAT (truly
// different) or out of budget (unproven) is dropped. Dropping is always
// sound: the view just offers fewer alternatives.
//
// The solver is deliberately small: two-watched-literal propagation,
// first-UIP clause learning, phase saving, an activity-bumped decision
// heuristic and Luby-style restarts. Clauses live in one flat literal arena
// addressed by uint32 offsets, so the clause database, watch lists and
// reasons hold no pointers: the GC never scans them and no write barriers
// run. A build worker keeps one solver for the whole build and reset()s it
// for each class (see coneProver), which truncates every structure while
// keeping its capacity — after the first few classes, encoding a cone and
// searching it allocate nothing. Learned clauses persist across the
// per-pair calls within one class, which is what makes class proving cheap
// — members come from rebalanced variants of the same logic, so the cones
// share almost everything — while cone scoping keeps the instance (watch
// lists, branch scan, clause DB) orders of magnitude smaller than the
// combined graph.
package choice

import (
	"slices"

	"slap/internal/aig"
)

type satResult int8

const (
	satUnknown satResult = iota // conflict budget exhausted
	satTrue                     // satisfiable: nodes differ
	satFalse                    // unsatisfiable
)

// Literal encoding: variable v yields literals v<<1 (positive) and v<<1|1
// (negated). Variable 0 is the constant-false node.
type slit uint32

func mkLit(v uint32, neg bool) slit {
	l := slit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l slit) not() slit     { return l ^ 1 }
func (l slit) variable() int { return int(l >> 1) }
func (l slit) sign() bool    { return l&1 != 0 }

const litUndef = ^slit(0)

// A clause reference is the arena offset of the clause's length word, which
// its literals follow; noReason is the null reference.
const noReason = ^uint32(0)

type satSolver struct {
	nVars   int
	arena   []slit     // clauses: a length word, then the literals
	watches [][]uint32 // literal -> clauses watching it (lits[0] or lits[1])

	assign   []int8 // per var: 0 undef, +1 true, -1 false
	level    []int32
	reason   []uint32 // implying clause, noReason for decisions and units
	phase    []bool   // saved phase per var
	activity []float64
	varInc   float64

	trail    []slit
	trailLim []int
	qhead    int

	seen      []bool // scratch for analyze
	learnt    []slit // analyze's output buffer
	conflicts int64
}

// reset empties the solver for a fresh instance over nVars variables; the
// zero satSolver must be reset before use. Every structure is truncated or
// cleared in place, keeping its capacity, so a solver reused across
// instances stops allocating once it has seen its largest one. Nothing of
// the previous instance survives: the search that follows is the one a
// never-used solver would run.
func (s *satSolver) reset(nVars int) {
	s.nVars = nVars
	s.arena = s.arena[:0]
	if nLits := 2 * nVars; cap(s.watches) < nLits {
		ws := make([][]uint32, nLits)
		copy(ws, s.watches[:cap(s.watches)])
		s.watches = ws
	} else {
		s.watches = s.watches[:nLits]
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.assign = cleared(s.assign, nVars)
	s.level = cleared(s.level, nVars)
	s.reason = cleared(s.reason, nVars)
	for i := range s.reason {
		s.reason[i] = noReason
	}
	s.phase = cleared(s.phase, nVars)
	s.activity = cleared(s.activity, nVars)
	s.seen = cleared(s.seen, nVars)
	s.varInc = 1
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.conflicts = 0
}

// cleared returns a zeroed slice of length n, reusing xs's storage when it
// is large enough.
func cleared[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// lits returns clause c's literals, aliasing the arena.
func (s *satSolver) lits(c uint32) []slit {
	n := uint32(s.arena[c])
	return s.arena[c+1 : c+1+n : c+1+n]
}

func (s *satSolver) value(l slit) int8 {
	v := s.assign[l.variable()]
	if l.sign() {
		return -v
	}
	return v
}

// addClause installs a problem clause. Empty clause or a root-level
// conflict is reported by returning false. Must be called at level 0.
func (s *satSolver) addClause(lits ...slit) bool {
	// Root-level simplification: drop false lits, succeed on true ones.
	out := lits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case 1:
			return true
		case 0:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		return s.enqueue(out[0], noReason) && s.propagate() == noReason
	}
	s.attach(s.allocClause(out))
	return true
}

// allocClause appends a clause holding a copy of lits to the arena and
// returns its reference.
func (s *satSolver) allocClause(lits []slit) uint32 {
	c := uint32(len(s.arena))
	s.arena = append(s.arena, slit(len(lits)))
	s.arena = append(s.arena, lits...)
	return c
}

func (s *satSolver) attach(c uint32) {
	w0, w1 := s.arena[c+1].not(), s.arena[c+2].not()
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

func (s *satSolver) enqueue(l slit, from uint32) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.variable()
	if l.sign() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.phase[v] = !l.sign()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the conflicting clause or
// noReason.
func (s *satSolver) propagate() uint32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			lits := s.lits(c)
			// Ensure the falsified watch is lits[1].
			if lits[0].not() == p {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					w := lits[1].not()
					s.watches[w] = append(s.watches[w], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(lits[0], c) {
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return noReason
}

func (s *satSolver) decisionLevel() int { return len(s.trailLim) }

func (s *satSolver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *satSolver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].variable()
		s.assign[v] = 0
		s.reason[v] = noReason
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *satSolver) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives the first-UIP learned clause from a conflict; it returns
// the clause (asserting literal first) and the backjump level. The clause
// aliases the solver's learnt buffer and is valid until the next analyze.
func (s *satSolver) analyze(confl uint32) ([]slit, int) {
	learnt := append(s.learnt[:0], litUndef) // slot 0 = asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p slit = litUndef

	for {
		for _, q := range s.lits(confl) {
			if p != litUndef && q == p {
				continue
			}
			v := q.variable()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.variable()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.variable()]
	}
	learnt[0] = p.not()

	btLevel := 0
	if len(learnt) > 1 {
		// Move the highest-level non-asserting literal to slot 1.
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].variable()] > s.level[learnt[maxI].variable()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].variable()])
	}
	for _, l := range learnt {
		s.seen[l.variable()] = false
	}
	s.varInc /= 0.95
	s.learnt = learnt
	return learnt, btLevel
}

func (s *satSolver) pickBranch() slit {
	best, bestAct := -1, -1.0
	for v := 0; v < s.nVars; v++ {
		if s.assign[v] == 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best < 0 {
		return litUndef
	}
	return mkLit(uint32(best), !s.phase[best])
}

// solve decides satisfiability under the given assumptions with a conflict
// budget. Learned clauses and variable activity persist across calls.
func (s *satSolver) solve(assumps []slit, budget int64) satResult {
	s.cancelUntil(0)
	limit := s.conflicts + budget
	restartUnit := int64(64)
	nextRestart := s.conflicts + restartUnit

	for {
		confl := s.propagate()
		if confl != noReason {
			s.conflicts++
			if s.decisionLevel() <= len(assumps) {
				// Conflict forced by the assumptions themselves.
				s.cancelUntil(0)
				return satFalse
			}
			learnt, bt := s.analyze(confl)
			if bt < len(assumps) {
				bt = len(assumps)
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if !s.enqueue(learnt[0], noReason) {
					return satFalse
				}
			} else {
				c := s.allocClause(learnt)
				s.attach(c)
				if !s.enqueue(learnt[0], c) {
					return satFalse
				}
			}
			if s.conflicts >= limit {
				s.cancelUntil(0)
				return satUnknown
			}
			if s.conflicts >= nextRestart {
				restartUnit += restartUnit / 2
				nextRestart = s.conflicts + restartUnit
				s.cancelUntil(len(assumps))
			}
			continue
		}
		// Re-establish assumptions as the first decision levels after any
		// backjump below them.
		if lvl := s.decisionLevel(); lvl < len(assumps) {
			a := assumps[lvl]
			switch s.value(a) {
			case 1:
				s.newDecisionLevel() // already implied: placeholder level
			case -1:
				s.cancelUntil(0)
				return satFalse
			default:
				s.newDecisionLevel()
				s.enqueue(a, noReason)
			}
			continue
		}
		next := s.pickBranch()
		if next == litUndef {
			s.cancelUntil(0)
			return satTrue
		}
		s.newDecisionLevel()
		s.enqueue(next, noReason)
	}
}

// coneProver proves pairs of one equivalence class at a time over a Tseitin
// encoding scoped to the class's union transitive-fanin cone. One instance
// is private to a build worker and reused across every class that worker
// claims, in every level group: the node→var map and DFS stack are retained
// scratch (reset via the previous cone's node list, not a full sweep), and
// load reset()s the one embedded satSolver to the new cone's size instead
// of building a new one. The reset is complete — no clause, watch,
// assignment, activity or counter survives it — so a class's verdicts,
// budget-limited ones included, are a pure function of (graph, class,
// facts, options), independent of which worker proves it after which other
// classes; that is what keeps parallel builds byte-identical to sequential.
// Within a class, learned clauses and activity still carry over across the
// pair calls via assumption-based solving.
type coneProver struct {
	g        *aig.AIG
	node2var []int32  // node id -> dense solver var, -1 outside current cone
	cone     []uint32 // current class's cone nodes, ascending id
	stack    []uint32 // DFS scratch
	s        satSolver
	ok       bool // encoding consistent (always true for a well-formed AIG)
}

func newConeProver(g *aig.AIG) *coneProver {
	n2v := make([]int32, g.NumNodes())
	for i := range n2v {
		n2v[i] = -1
	}
	return &coneProver{g: g, node2var: n2v}
}

// load prepares the prover for one class: collect the union transitive-fanin
// cone of all class nodes, assign dense variables in ascending node-id order
// (so the clause database is deterministic regardless of DFS order), reset
// the solver and encode the cone's AND structure. Var 0 is the
// constant-false node 0; PIs inside the cone become free variables.
func (p *coneProver) load(class []uint32) {
	for _, n := range p.cone {
		p.node2var[n] = -1
	}
	p.cone = p.cone[:0]
	stack := p.stack[:0]
	visit := func(n uint32) {
		if n != 0 && p.node2var[n] < 0 {
			p.node2var[n] = 0 // mark visited; real var assigned below
			p.cone = append(p.cone, n)
			stack = append(stack, n)
		}
	}
	for _, n := range class {
		visit(n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.g.IsAnd(n) {
			f0, f1 := p.g.Fanins(n)
			visit(f0.Node())
			visit(f1.Node())
		}
	}
	p.stack = stack
	slices.Sort(p.cone)
	for i, n := range p.cone {
		p.node2var[n] = int32(i + 1)
	}

	s := &p.s
	s.reset(len(p.cone) + 1)
	ok := s.addClause(mkLit(0, true)) // var 0 is constant false
	lit := func(l aig.Lit) slit {
		if l.Node() == 0 {
			return mkLit(0, l.IsCompl())
		}
		return mkLit(uint32(p.node2var[l.Node()]), l.IsCompl())
	}
	for _, n := range p.cone {
		if !p.g.IsAnd(n) {
			continue
		}
		f0, f1 := p.g.Fanins(n)
		o, a, b := mkLit(uint32(p.node2var[n]), false), lit(f0), lit(f1)
		ok = ok && s.addClause(o.not(), a)
		ok = ok && s.addClause(o.not(), b)
		ok = ok && s.addClause(o, a.not(), b.not())
	}
	p.ok = ok
}

// addFact installs a proven equivalence n == m (complemented when compl) as
// hard constraint clauses. Both nodes must be inside the loaded cone. Facts
// are true statements about the cone's functions — every model of the
// Tseitin encoding is a PI assignment extended by simulation, under which a
// certified equivalence holds — so they exclude no genuine counterexample
// and only speed up refutations: a deep pair whose fanin classes are
// already certified propagates to equality instead of being re-derived by
// search. This is what replaces the old whole-graph solver's accumulated
// learned clauses, without its cross-class scheduling dependence.
func (p *coneProver) addFact(n, m uint32, compl bool) {
	a := mkLit(uint32(p.node2var[n]), false)
	b := mkLit(uint32(p.node2var[m]), compl)
	p.ok = p.ok && p.s.addClause(a.not(), b)
	p.ok = p.ok && p.s.addClause(a, b.not())
}

// equivalent proves n == m (complemented when compl) by refuting both
// difference phases. Only satFalse on both calls counts as proven; exhausted
// reports that the conflict budget ran out before an answer (as opposed to a
// genuine counterexample). Both nodes must be inside the loaded cone.
func (p *coneProver) equivalent(n, m uint32, compl bool, budget int64) (proved, exhausted bool) {
	if !p.ok {
		return false, false
	}
	vn, vm := uint32(p.node2var[n]), uint32(p.node2var[m])
	nPos, nNeg := mkLit(vn, false), mkLit(vn, true)
	mPos, mNeg := mkLit(vm, compl), mkLit(vm, !compl)
	if r := p.s.solve([]slit{nPos, mNeg}, budget); r != satFalse {
		return false, r == satUnknown
	}
	if r := p.s.solve([]slit{nNeg, mPos}, budget); r != satFalse {
		return false, r == satUnknown
	}
	return true, false
}
