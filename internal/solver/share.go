package solver

// Clause sharing: the solver-side half of the parallel portfolio's clause
// exchange (internal/portfolio). The solver stays single-threaded — both
// hooks run on the solving goroutine. Export fires synchronously from the
// learn path for every learned clause; Import is drained only at restart
// boundaries, when the trail is at decision level zero, so an imported
// clause can be installed with a plain attach (no backtracking, no
// asserting literal). Any cross-goroutine queueing, filtering, and
// synchronization is the hook implementor's problem.

import "neuroselect/internal/cnf"

// SharedClause is one learned clause in transit between solvers: DIMACS
// literals plus the glue (LBD) it was learned with, which the importer
// preserves so the receiving deletion policy ranks the foreigner exactly
// as the exporter did.
type SharedClause struct {
	Lits []cnf.Lit
	Glue int
}

// ExtendBudget raises (or lifts, with 0) the conflict and propagation
// budgets and clears the budget-exhausted latch, so a solver that returned
// Unknown on a budget can be resumed with another SolveContext call. The
// search picks up where it stopped: the clause database, activities, saved
// phases, and (with no frames open) the Luby restart cursor all carry over. Budgets are absolute
// (compared against cumulative Stats counters), not increments.
func (s *Solver) ExtendBudget(maxConflicts, maxPropagations int64) {
	s.opts.MaxConflicts = maxConflicts
	s.opts.MaxPropagations = maxPropagations
	s.budget = nil
}

// importShared drains the Import hook and installs the batch. It must run
// at decision level zero. It reports false when an imported clause proved
// the formula unsatisfiable (s.ok is already false then).
func (s *Solver) importShared() bool {
	for _, sc := range s.opts.Import() {
		if !s.importClause(sc) {
			return false
		}
	}
	return true
}

// importClause installs one foreign learned clause at decision level zero,
// mirroring addClause's normalization (sort, dedupe, tautology and
// satisfied-at-top skip, strip false-at-top literals) but allocating the
// survivor as a learned clause under its carried glue. Degenerate cases:
// an empty import proves UNSAT; a unit import is enqueued and propagated
// immediately. Returns false once the solver is in the unsatisfiable state.
func (s *Solver) importClause(sc SharedClause) bool {
	if !s.ok {
		return false
	}
	buf := s.addBuf[:0]
	for _, l := range sc.Lits {
		if v := l.Var(); v < 1 || v > s.numVars {
			return true // foreign variable: not our formula, drop it
		}
		buf = append(buf, fromCNF(l))
	}
	s.addBuf = buf
	sortLits(buf)
	norm := buf[:0]
	prev := litUndef
	for _, il := range buf {
		if il == prev {
			continue
		}
		if il == prev.not() {
			return true // tautology
		}
		prev = il
		norm = append(norm, il)
	}
	// At level zero every assigned variable has level zero, so a true
	// literal satisfies the clause permanently and a false one is dead.
	lits := norm[:0]
	for _, il := range norm {
		switch s.value(il) {
		case lTrue:
			return true
		case lFalse:
			continue
		default:
			lits = append(lits, il)
		}
	}
	switch len(lits) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.stats.Imported++
		if !s.enqueue(lits[0], crefUndef) {
			s.ok = false
			return false
		}
		if conflict := s.propagate(); conflict != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	if len(lits) > maxClauseSize {
		return true
	}
	glue := sc.Glue
	if glue < 1 {
		glue = 1
	}
	if glue > len(lits) {
		glue = len(lits)
	}
	c := s.allocClause(lits, true, glue, s.clsInc)
	s.learned = append(s.learned, c)
	s.attach(c)
	s.stats.Imported++
	return true
}

// exportLearnt hands a just-learned clause to the Export hook through the
// solver-owned scratch buffer (steady-state allocation-free once grown).
// The slice is valid only for the duration of the call.
func (s *Solver) exportLearnt(learnt []lit, glue int) {
	buf := s.exportBuf[:0]
	for _, l := range learnt {
		buf = append(buf, toCNF(l))
	}
	s.exportBuf = buf
	s.opts.Export(buf, glue)
}
