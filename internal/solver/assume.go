package solver

import (
	"context"

	"neuroselect/internal/cnf"
)

// SolveUnderAssumptions runs the CDCL search with the given literals fixed
// as pseudo-decisions (MiniSat's incremental interface). On Unsat it also
// returns the subset of assumptions the refutation actually used (the
// "failed assumptions" / unsat core over assumptions); the solver remains
// usable for further calls with different assumptions.
//
// Open Push frames participate transparently: their activation literals
// are assumed ahead of the caller's assumptions, and are filtered from
// the returned core, so an UNSAT answer that depends only on frame
// clauses reports an empty core. The returned core aliases solver-owned
// scratch and is valid until the next solve or AddClause call.
func (s *Solver) SolveUnderAssumptions(assumptions []cnf.Lit) (Status, []cnf.Lit) {
	return s.SolveUnderAssumptionsContext(context.Background(), assumptions)
}

// SolveUnderAssumptionsContext is SolveUnderAssumptions under a context,
// with SolveContext's cancellation and deadline semantics. The Luby
// restart cursor counts from the call's own start, and the call returns
// with the trail at decision level zero.
func (s *Solver) SolveUnderAssumptionsContext(ctx context.Context, assumptions []cnf.Lit) (Status, []cnf.Lit) {
	s.cancelUntil(0)
	prefix := s.assumeBuf[:0]
	for _, t := range s.frames {
		prefix = append(prefix, mkLit(t, false))
	}
	for _, a := range assumptions {
		// Assumptions over unknown variables are trivially free.
		prefix = append(prefix, s.assumeLit(a))
	}
	s.assumeBuf = prefix
	st, core := s.solve(ctx, prefix, s.stats.Restarts)
	s.cancelUntil(0)
	return st, core
}

// reasonRest returns the non-implied literals of reason clause c, which
// propagated literal p. It first normalizes the clause so p sits at
// position 0 — binary reasons propagated through the inlined watch path
// arrive unnormalized, whereas the generic path normalizes at propagation
// time.
func (s *Solver) reasonRest(c cref, p lit) []lit {
	cls := s.clauseLits(c)
	if cls[0] != p {
		for k := 1; k < len(cls); k++ {
			if cls[k] == p {
				cls[0], cls[k] = cls[k], cls[0]
				break
			}
		}
	}
	return cls[1:]
}

// analyzeFinal collects the failed assumptions behind a conflict that
// occurred within the assumption prefix.
func (s *Solver) analyzeFinal(conflict cref, prefix []lit) []cnf.Lit {
	stack := append(s.finalStack[:0], s.clauseLits(conflict)...)
	return s.finalCore(s.coreBuf[:0], stack, prefix)
}

// coreOfFalsified collects the failed assumptions when assumption a is
// already false by propagation from earlier assumptions: a itself plus
// whatever its falsification rests on.
func (s *Solver) coreOfFalsified(a lit, prefix []lit) []cnf.Lit {
	core := s.coreBuf[:0]
	if ul, ok := s.userLitOf(a); ok {
		core = append(core, ul)
	}
	return s.finalCore(core, append(s.finalStack[:0], a), prefix)
}

// finalCore walks the implication graph back from the FALSE literals on
// stack and appends to core (in user form) every prefix assumption the
// walk bottoms out at; level-zero assignments need no assumption and end
// the walk. All bookkeeping lives in solver-owned scratch (assumpMark,
// seen + seenClear, finalStack, coreBuf), so steady-state core extraction
// is allocation-free; the returned slice aliases coreBuf.
func (s *Solver) finalCore(core []cnf.Lit, stack, prefix []lit) []cnf.Lit {
	if len(s.assumpMark) < 2*s.numVars {
		s.assumpMark = make([]bool, 2*s.numVars)
	}
	for _, a := range prefix {
		if a != litUndef {
			s.assumpMark[a] = true
		}
	}
	cleared := s.seenClear[:0]
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := q.v()
		if s.seen[v] || s.level[v] == 0 {
			continue
		}
		s.seen[v] = true
		cleared = append(cleared, v)
		if s.assumpMark[q.not()] {
			// Activation literals (frame guards) are assumptions too but
			// have no user form; userLitOf filters them from the core.
			if ul, ok := s.userLitOf(q.not()); ok {
				core = append(core, ul)
			}
			continue
		}
		if r := s.reason[v]; r != crefUndef {
			stack = append(stack, s.reasonRest(r, q.not())...)
		}
	}
	for _, v := range cleared {
		s.seen[v] = false
	}
	for _, a := range prefix {
		if a != litUndef {
			s.assumpMark[a] = false
		}
	}
	s.finalStack, s.seenClear, s.coreBuf = stack[:0], cleared[:0], core
	return core
}
