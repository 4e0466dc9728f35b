package solver

import (
	"context"
	"math/rand"
	"testing"

	"neuroselect/internal/aiger"
	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
)

// The tables below pin the exact search trajectory of the solver on a
// fixed-seed instance suite. The values were recorded from the pre-arena
// pointer-based solver (commit 16826a9), so they prove the arena refactor
// — cref clause storage, inlined binary watches, mark-and-compact GC, and
// scratch-buffer reuse — is search-neutral: not one decision, propagation,
// conflict, or learned clause differs. Any future change that shifts these
// numbers is changing search behavior, not just representation, and must
// update the table deliberately.

// goldenOptions is the option set the trajectories were recorded under.
func goldenOptions(p deletion.Policy) Options {
	return Options{Policy: p, ReduceFirst: 50, ReduceInc: 25}
}

func goldenInstances() []gen.Instance {
	return []gen.Instance{
		gen.RandomKSAT(100, 426, 3, 11),
		gen.RandomKSAT(120, 511, 3, 7),
		gen.RandomKSAT(150, 600, 3, 5),
		gen.Pigeonhole(7),
		gen.Tseitin(16, 3, false, 4),
		gen.Tseitin(16, 3, true, 8),
		gen.GraphColoring(20, 50, 3, 9),
		gen.ParityChain(14, 9, 5, false, 3),
		gen.Miter(8, 60, false, 2),
		gen.Miter(8, 60, true, 6),
		gen.NQueens(8),
	}
}

var goldenTrajectories = []struct {
	name, policy, status                     string
	dec, prop, conf, rest, red, learned, del int64
	units, bins, minlits                     int64
	maxTrail                                 int
}{
	{"rand3sat-n100-m426-s11", "default", "UNSAT", 852, 21305, 693, 4, 6, 692, 397, 5, 19, 1415, 94},
	{"rand3sat-n100-m426-s11", "frequency", "UNSAT", 845, 21298, 690, 4, 6, 689, 398, 5, 20, 1403, 94},
	{"rand3sat-n120-m511-s7", "default", "UNSAT", 888, 23675, 743, 4, 6, 742, 414, 6, 19, 1357, 98},
	{"rand3sat-n120-m511-s7", "frequency", "UNSAT", 828, 22306, 683, 4, 6, 682, 395, 2, 17, 1440, 98},
	{"rand3sat-n150-m600-s5", "default", "SAT", 203, 5165, 139, 1, 2, 139, 64, 0, 0, 307, 150},
	{"rand3sat-n150-m600-s5", "frequency", "SAT", 203, 5165, 139, 1, 2, 139, 64, 0, 0, 307, 150},
	{"php-7", "default", "UNSAT", 8735, 121190, 7210, 29, 22, 7209, 6180, 4, 13, 21815, 56},
	{"php-7", "frequency", "UNSAT", 9273, 131322, 7752, 29, 23, 7751, 6766, 6, 9, 23813, 56},
	{"tseitin-unsat-v16-d3-s4", "default", "UNSAT", 91, 681, 81, 0, 1, 80, 13, 3, 9, 35, 24},
	{"tseitin-unsat-v16-d3-s4", "frequency", "UNSAT", 91, 681, 81, 0, 1, 80, 13, 3, 9, 35, 24},
	{"tseitin-sat-v16-d3-s8", "default", "SAT", 30, 119, 16, 0, 0, 16, 0, 0, 0, 0, 24},
	{"tseitin-sat-v16-d3-s8", "frequency", "SAT", 30, 119, 16, 0, 0, 16, 0, 0, 0, 0, 24},
	{"color-v20-e50-k3-s9", "default", "UNSAT", 10, 168, 8, 0, 0, 7, 0, 6, 0, 0, 39},
	{"color-v20-e50-k3-s9", "frequency", "UNSAT", 10, 168, 8, 0, 0, 7, 0, 6, 0, 0, 39},
	{"parity-unsat-n14-c9-w5-s3", "default", "UNSAT", 26, 90, 25, 0, 0, 24, 0, 4, 6, 6, 14},
	{"parity-unsat-n14-c9-w5-s3", "frequency", "UNSAT", 26, 90, 25, 0, 0, 24, 0, 4, 6, 6, 14},
	{"miter-equiv-i8-g60-s2", "default", "UNSAT", 28, 573, 20, 0, 0, 19, 0, 5, 7, 6, 114},
	{"miter-equiv-i8-g60-s2", "frequency", "UNSAT", 28, 573, 20, 0, 0, 19, 0, 5, 7, 6, 114},
	{"miter-faulty-i8-g60-s6", "default", "UNSAT", 11, 465, 9, 0, 0, 8, 0, 3, 3, 4, 98},
	{"miter-faulty-i8-g60-s6", "frequency", "UNSAT", 11, 465, 9, 0, 0, 8, 0, 3, 3, 4, 98},
	{"queens-8", "default", "SAT", 47, 390, 20, 0, 0, 20, 0, 0, 0, 8, 64},
	{"queens-8", "frequency", "SAT", 47, 390, 20, 0, 0, 20, 0, 0, 0, 8, 64},
}

// TestSearchTrajectoryGolden replays the fixed-seed suite under both
// deletion policies and demands the recorded pre-arena trajectory, stat
// for stat.
func TestSearchTrajectoryGolden(t *testing.T) {
	insts := map[string]gen.Instance{}
	for _, in := range goldenInstances() {
		insts[in.Name] = in
	}
	policies := map[string]deletion.Policy{
		"default":   deletion.DefaultPolicy{},
		"frequency": deletion.FrequencyPolicy{},
	}
	for _, g := range goldenTrajectories {
		g := g
		t.Run(g.name+"/"+g.policy, func(t *testing.T) {
			in, ok := insts[g.name]
			if !ok {
				t.Fatalf("golden instance %q missing from goldenInstances", g.name)
			}
			res, err := Solve(in.F, goldenOptions(policies[g.policy]))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if res.Status.String() != g.status {
				t.Fatalf("status %v, golden %s", res.Status, g.status)
			}
			got := []int64{st.Decisions, st.Propagations, st.Conflicts, st.Restarts,
				st.Reductions, st.Learned, st.Deleted, st.UnitsLearned,
				st.BinariesLearned, st.MinimizedLits, int64(st.MaxTrail)}
			want := []int64{g.dec, g.prop, g.conf, g.rest, g.red, g.learned, g.del,
				g.units, g.bins, g.minlits, int64(g.maxTrail)}
			labels := []string{"decisions", "propagations", "conflicts", "restarts",
				"reductions", "learned", "deleted", "units", "binaries",
				"minimized", "maxtrail"}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s = %d, golden %d", labels[i], got[i], want[i])
				}
			}
		})
	}
}

// propFreqHash is FNV-1a over the cumulative propagation-frequency vector.
func propFreqHash(freqs []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, f := range freqs {
		for i := 0; i < 8; i++ {
			h ^= (f >> (8 * uint(i))) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestPropagationFrequencyGolden pins the full per-variable propagation-
// frequency distribution (the Figure 3 / Eq. 2 input) against hashes
// recorded from the pre-arena solver: the inlined binary-propagation path
// must count f_v and MaxTrail exactly like the generic path it replaced.
func TestPropagationFrequencyGolden(t *testing.T) {
	golden := []struct {
		inst     gen.Instance
		hash     uint64
		maxTrail int
	}{
		{gen.RandomKSAT(120, 511, 3, 7), 0xed3238ec7e4c5b3e, 98},
		{gen.Pigeonhole(7), 0xe858afccf4296957, 56},
		{gen.ParityChain(14, 9, 5, false, 3), 0xe11e4ac2f489b9d7, 14},
	}
	for _, g := range golden {
		s, err := New(g.inst.F, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		s.Solve()
		if h := propFreqHash(s.PropagationFrequencies()); h != g.hash {
			t.Errorf("%s: propFreq hash %#x, golden %#x", g.inst.Name, h, g.hash)
		}
		if mt := s.Stats().MaxTrail; mt != g.maxTrail {
			t.Errorf("%s: MaxTrail %d, golden %d", g.inst.Name, mt, g.maxTrail)
		}
	}
}

// TestBinaryWatchSpecializationNeutral runs the same fixed-seed instances
// with the inlined binary-clause watch path enabled and disabled and
// demands identical stats and identical per-variable propagation counts:
// the specialization is a pure representation change, invisible to Eq. 2's
// f_v ranking and every other counter.
func TestBinaryWatchSpecializationNeutral(t *testing.T) {
	for _, in := range goldenInstances() {
		for _, p := range []deletion.Policy{deletion.DefaultPolicy{}, deletion.FrequencyPolicy{}} {
			fast, err := New(in.F, goldenOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			slowOpts := goldenOptions(p)
			slowOpts.disableBinaryWatch = true
			slow, err := New(in.F, slowOpts)
			if err != nil {
				t.Fatal(err)
			}
			stFast, stSlow := fast.Solve(), slow.Solve()
			if stFast != stSlow {
				t.Fatalf("%s/%s: status %v (inlined) vs %v (generic)", in.Name, p.Name(), stFast, stSlow)
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("%s/%s: stats diverge\ninlined: %+v\ngeneric: %+v",
					in.Name, p.Name(), fast.Stats(), slow.Stats())
			}
			ff, sf := fast.PropagationFrequencies(), slow.PropagationFrequencies()
			for v := range ff {
				if ff[v] != sf[v] {
					t.Fatalf("%s/%s: propFreq[%d] = %d (inlined) vs %d (generic)",
						in.Name, p.Name(), v, ff[v], sf[v])
				}
			}
		}
	}
}

// TestSteadyStateAllocationFree verifies that the search itself stays out
// of the allocator: conflict analysis, clause learning, database
// reduction, and assumption-core extraction all run on the arena and
// solver-owned scratch buffers.
func TestSteadyStateAllocationFree(t *testing.T) {
	// A full cold solve of php-7 drives ~7k conflicts and ~22 reductions;
	// everything AllocsPerRun sees is construction plus amortized
	// watch-list/arena doubling, which grows logarithmically, not per
	// conflict. The pre-arena solver allocated ~2 per conflict on this
	// instance (≈14.5k per run); the bound of 0.2 per conflict fails if
	// any per-conflict or per-reduction allocation sneaks back into the
	// hot path.
	t.Run("cold-solve", func(t *testing.T) {
		inst := gen.Pigeonhole(7)
		var conflicts int64
		allocs := testing.AllocsPerRun(3, func() {
			s, err := New(inst.F, goldenOptions(nil))
			if err != nil {
				t.Fatal(err)
			}
			if s.Solve() != Unsat {
				t.Fatal("php-7 must be UNSAT")
			}
			conflicts = s.Stats().Conflicts
		})
		if conflicts < 5000 {
			t.Fatalf("instance too easy to exercise steady state: %d conflicts", conflicts)
		}
		if limit := float64(conflicts) / 5; allocs > limit {
			t.Errorf("%v allocs for %d conflicts; want ≤ %v (search must not allocate per conflict)",
				allocs, conflicts, limit)
		}
	})

	// Assumption solving must be just as clean: both failed-assumption
	// analyses (analyzeFinal for a conflict inside the prefix,
	// coreOfFalsified for an assumption contradicted by prefix
	// propagation) used to allocate a map plus two slices per call; they
	// now run on solver-owned scratch, so repeated UNSAT-with-core solves
	// on a warm solver perform zero allocations. (The SAT path is excluded
	// deliberately: extracting a model snapshot allocates by design.)
	t.Run("assumption-cores", func(t *testing.T) {
		const n = 60
		chainConflict := cnf.New(n)
		chainFree := cnf.New(n)
		for i := 1; i < n; i++ {
			chainConflict.MustAddClause(-cnf.Lit(i), cnf.Lit(i+1))
			chainFree.MustAddClause(-cnf.Lit(i), cnf.Lit(i+1))
		}
		chainConflict.MustAddClause(-cnf.Lit(n-1), -cnf.Lit(n))
		sFinal, err := New(chainConflict, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		sFalsified, err := New(chainFree, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		aFinal := []cnf.Lit{1}         // chain propagates into the conflict clause → analyzeFinal
		aFalsified := []cnf.Lit{1, -n} // chain forces x_n true → coreOfFalsified on ¬x_n
		allocs := testing.AllocsPerRun(10, func() {
			if st, core := sFinal.SolveUnderAssumptions(aFinal); st != Unsat || len(core) != 1 {
				t.Fatalf("analyzeFinal query: %v, core %v", st, core)
			}
			if st, core := sFalsified.SolveUnderAssumptions(aFalsified); st != Unsat || len(core) != 2 {
				t.Fatalf("coreOfFalsified query: %v, core %v", st, core)
			}
		})
		if allocs > 0 {
			t.Errorf("%v allocs per warm assumption solve; want 0", allocs)
		}
	})
}

// assumeStep is one solve call of an assumption-route golden schedule: its
// status, the length of its failed-assumption core, and the cumulative
// counters after the call (the goldenTrajectories columns).
type assumeStep struct {
	status                                   string
	core                                     int
	dec, prop, conf, rest, red, learned, del int64
	units, bins, minlits                     int64
	maxTrail                                 int
}

func recordStep(s *Solver, st Status, core []cnf.Lit) assumeStep {
	x := s.Stats()
	return assumeStep{st.String(), len(core), x.Decisions, x.Propagations, x.Conflicts,
		x.Restarts, x.Reductions, x.Learned, x.Deleted, x.UnitsLearned,
		x.BinariesLearned, x.MinimizedLits, x.MaxTrail}
}

// assumeSchedules are the incremental workloads the assumption-route golden
// table pins. Each drives one solver through its calls, passing every
// call's outcome to rec, and returns the solver for the final propFreq
// digest.
var assumeSchedules = []struct {
	name string
	run  func(t *testing.T, rec func(*Solver, Status, []cnf.Lit)) *Solver
}{
	// The BenchmarkIncrementalUnroll deepening: a width-7 counter unrolled
	// 20 steps on one warm solver, with an unreachable (2k+1) and a
	// reachable (2k) state query per depth.
	{"bmc-counter-w7", func(t *testing.T, rec func(*Solver, Status, []cnf.Lit)) *Solver {
		const width, steps = 7, 20
		u, err := aiger.NewUnroller(aiger.CounterAIG(width), width)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cnf.New(0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range u.Init(0) {
			if err := s.AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
		for k := 1; k <= steps; k++ {
			clauses, _ := u.Step()
			for _, c := range clauses {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
			unsatT, satT := unrollDepthQueries(k)
			st, core := s.SolveUnderAssumptions(u.StateEquals(unsatT))
			rec(s, st, core)
			st, core = s.SolveUnderAssumptions(u.StateEquals(satT))
			rec(s, st, core)
		}
		return s
	}},
	// A seeded Push/AddClause/Pop schedule over random 3-SAT with random
	// assumption sets (duplicates and contradictory pairs included), under
	// the golden reduce schedule so reductions run between calls.
	{"rand3sat-push-pop", func(t *testing.T, rec func(*Solver, Status, []cnf.Lit)) *Solver {
		inst := gen.RandomKSAT(100, 426, 3, 11)
		cls := inst.F.Clauses
		rng := rand.New(rand.NewSource(14))
		pick := func(k int) []cnf.Lit {
			a := make([]cnf.Lit, k)
			for i := range a {
				a[i] = cnf.Lit(1 + rng.Intn(inst.F.NumVars))
				if rng.Intn(2) == 0 {
					a[i] = -a[i]
				}
			}
			return a
		}
		base := cnf.New(inst.F.NumVars)
		for _, c := range cls[:280] {
			base.MustAddClause(c...)
		}
		s, err := New(base, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		add := func(part []cnf.Clause) {
			for _, c := range part {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		solve := func(a []cnf.Lit) {
			st, core := s.SolveUnderAssumptions(a)
			rec(s, st, core)
		}
		solve(nil)
		solve(pick(8))
		solve(pick(8))
		s.Push()
		add(cls[280:350])
		solve(pick(6))
		solve(nil)
		s.Push()
		add(cls[350:])
		solve(pick(4))
		solve(nil)
		s.Pop()
		solve(pick(6))
		s.Pop()
		solve(pick(8))
		add(cls[280:])
		solve(pick(3))
		solve(nil)
		return s
	}},
	// One-shot Solve/SolveContext with open frames, interleaved with plain
	// solves on the same solver (the first leaves a SAT trail behind).
	{"rand3sat-framed-solve", func(t *testing.T, rec func(*Solver, Status, []cnf.Lit)) *Solver {
		inst := gen.RandomKSAT(120, 511, 3, 7)
		cls := inst.F.Clauses
		base := cnf.New(inst.F.NumVars)
		for _, c := range cls[:340] {
			base.MustAddClause(c...)
		}
		s, err := New(base, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		frame := func() {
			s.Push()
			for _, c := range cls[340:] {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		rec(s, s.Solve(), nil)
		frame()
		rec(s, s.Solve(), nil)
		s.Pop()
		rec(s, s.Solve(), nil)
		frame()
		rec(s, s.SolveContext(context.Background()), nil)
		return s
	}},
}

// assumeGolden pins the assumption route — SolveUnderAssumptions and
// Solve/SolveContext with open frames — call by call on every schedule in
// assumeSchedules: status, core length, and cumulative counters after each
// call, plus the final per-variable propagation-frequency digest. The values
// were recorded before the assumption loop was folded into the plain search
// loop, so they prove the merge search-neutral on this route, as
// goldenTrajectories does for the plain one.
var assumeGolden = map[string]struct {
	steps    []assumeStep
	propFreq uint64
}{
	"bmc-counter-w7": {
		steps: []assumeStep{
			{"UNSAT", 2, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0, 41},
			{"SAT", 0, 2, 12, 0, 0, 0, 0, 0, 0, 0, 0, 41},
			{"UNSAT", 2, 6, 47, 2, 0, 0, 1, 0, 0, 0, 0, 75},
			{"SAT", 0, 11, 65, 2, 0, 0, 1, 0, 0, 0, 0, 75},
			{"UNSAT", 3, 20, 194, 5, 0, 0, 4, 0, 0, 0, 2, 109},
			{"SAT", 0, 27, 271, 7, 0, 0, 6, 0, 0, 0, 2, 109},
			{"UNSAT", 3, 40, 475, 14, 0, 0, 12, 0, 0, 0, 2, 143},
			{"SAT", 0, 49, 677, 17, 0, 0, 15, 0, 0, 1, 5, 143},
			{"UNSAT", 3, 71, 1118, 27, 0, 0, 24, 0, 1, 2, 11, 177},
			{"SAT", 0, 84, 1363, 32, 0, 0, 29, 0, 1, 2, 15, 177},
			{"UNSAT", 4, 105, 1969, 44, 0, 0, 40, 0, 1, 2, 30, 211},
			{"SAT", 0, 116, 2182, 46, 0, 0, 42, 0, 1, 2, 31, 211},
			{"UNSAT", 4, 157, 3393, 68, 0, 0, 63, 0, 1, 4, 57, 245},
			{"SAT", 0, 183, 3956, 78, 0, 0, 73, 0, 1, 4, 67, 245},
			{"UNSAT", 4, 217, 5137, 99, 0, 0, 93, 0, 1, 4, 84, 273},
			{"SAT", 0, 237, 5417, 102, 0, 0, 96, 0, 1, 4, 85, 279},
			{"UNSAT", 4, 274, 6677, 117, 0, 0, 110, 0, 1, 4, 106, 310},
			{"SAT", 0, 294, 7318, 124, 0, 0, 117, 0, 1, 4, 112, 313},
			{"UNSAT", 5, 360, 9217, 156, 0, 0, 148, 0, 2, 5, 139, 344},
			{"SAT", 0, 380, 9577, 160, 0, 0, 152, 0, 2, 5, 148, 347},
			{"UNSAT", 5, 425, 11073, 184, 0, 0, 175, 0, 2, 5, 177, 347},
			{"SAT", 0, 465, 12648, 203, 0, 0, 194, 0, 2, 5, 205, 381},
			{"UNSAT", 5, 540, 16116, 252, 0, 0, 242, 0, 2, 7, 289, 415},
			{"SAT", 0, 575, 17011, 263, 0, 0, 253, 0, 2, 8, 303, 415},
			{"UNSAT", 5, 700, 22155, 341, 0, 0, 330, 0, 2, 10, 433, 449},
			{"SAT", 0, 763, 24173, 364, 0, 0, 353, 0, 2, 13, 451, 449},
			{"UNSAT", 5, 857, 27853, 416, 0, 0, 404, 0, 2, 19, 527, 483},
			{"SAT", 0, 890, 28772, 424, 0, 0, 412, 0, 2, 19, 531, 483},
			{"UNSAT", 5, 926, 30392, 444, 0, 0, 431, 0, 2, 19, 544, 517},
			{"SAT", 0, 934, 30870, 445, 0, 0, 432, 0, 2, 19, 544, 517},
			{"UNSAT", 5, 1002, 33524, 483, 0, 0, 469, 0, 2, 19, 588, 517},
			{"SAT", 0, 1032, 34277, 491, 0, 0, 477, 0, 2, 19, 591, 551},
			{"UNSAT", 6, 1222, 43867, 616, 0, 1, 601, 145, 4, 23, 812, 585},
			{"SAT", 0, 1276, 45509, 636, 0, 1, 621, 145, 4, 23, 843, 585},
			{"UNSAT", 6, 1324, 47695, 664, 0, 1, 648, 145, 4, 24, 871, 619},
			{"SAT", 0, 1352, 48711, 672, 0, 1, 656, 145, 4, 24, 879, 619},
			{"UNSAT", 6, 1396, 51144, 704, 0, 1, 687, 145, 4, 24, 931, 619},
			{"SAT", 0, 1416, 51927, 710, 0, 1, 693, 145, 4, 24, 936, 653},
			{"UNSAT", 6, 1520, 55823, 769, 0, 1, 751, 145, 4, 28, 985, 653},
			{"SAT", 0, 1546, 57155, 776, 0, 1, 758, 145, 4, 28, 997, 687},
		},
		propFreq: 0x90a0c6482efddc1c,
	},
	"rand3sat-push-pop": {
		steps: []assumeStep{
			{"SAT", 0, 43, 113, 3, 0, 0, 3, 0, 0, 0, 0, 100},
			{"SAT", 0, 89, 167, 3, 0, 0, 3, 0, 0, 0, 0, 100},
			{"SAT", 0, 155, 238, 4, 0, 0, 4, 0, 0, 0, 0, 100},
			{"SAT", 0, 188, 332, 5, 0, 0, 5, 0, 0, 0, 0, 101},
			{"SAT", 0, 230, 391, 5, 0, 0, 5, 0, 0, 0, 0, 101},
			{"UNSAT", 4, 370, 4139, 125, 0, 1, 124, 23, 0, 0, 99, 101},
			{"UNSAT", 0, 1031, 21427, 678, 3, 6, 676, 497, 0, 0, 1255, 101},
			{"SAT", 0, 1112, 22774, 723, 3, 6, 721, 497, 0, 0, 1311, 102},
			{"UNSAT", 2, 1118, 22775, 724, 3, 6, 721, 497, 0, 0, 1311, 102},
			{"UNSAT", 3, 1326, 28360, 900, 4, 7, 896, 653, 0, 0, 1614, 102},
			{"UNSAT", 0, 1998, 45876, 1477, 7, 9, 1472, 986, 5, 20, 2815, 102},
		},
		propFreq: 0xe6ebca5800254463,
	},
	"rand3sat-framed-solve": {
		steps: []assumeStep{
			{"SAT", 0, 46, 519, 13, 0, 0, 13, 0, 0, 0, 34, 120},
			{"UNSAT", 0, 906, 23676, 713, 4, 6, 712, 479, 0, 4, 1498, 120},
			{"SAT", 0, 938, 23764, 713, 4, 6, 712, 479, 0, 4, 1498, 121},
			{"UNSAT", 0, 1682, 44825, 1344, 7, 8, 1342, 809, 0, 13, 2982, 121},
		},
		propFreq: 0x5273f8e0dc9869b9,
	},
}

// TestAssumptionTrajectoryGolden replays every assumption-route schedule and
// demands the recorded per-call trajectory and final propFreq digest.
func TestAssumptionTrajectoryGolden(t *testing.T) {
	for _, sc := range assumeSchedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g, ok := assumeGolden[sc.name]
			if !ok {
				t.Fatalf("schedule %q has no golden entry", sc.name)
			}
			var got []assumeStep
			s := sc.run(t, func(s *Solver, st Status, core []cnf.Lit) {
				got = append(got, recordStep(s, st, core))
			})
			if len(got) != len(g.steps) {
				t.Fatalf("%d solve calls, golden has %d", len(got), len(g.steps))
			}
			for i := range got {
				if got[i] != g.steps[i] {
					t.Errorf("call %d: %+v\n        golden %+v", i, got[i], g.steps[i])
				}
			}
			if h := propFreqHash(s.PropagationFrequencies()); h != g.propFreq {
				t.Errorf("propFreq hash %#x, golden %#x", h, g.propFreq)
			}
		})
	}
}
