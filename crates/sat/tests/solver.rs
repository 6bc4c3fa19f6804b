//! Integration tests for the CDCL core: DIMACS fixtures, a differential
//! property family against the naive DPLL reference, the regression
//! pinning that UNSAT under assumptions never leaks into an unconditioned
//! verdict, and a golden table pinning the search itself.

use proptest::prelude::*;
use sat::reference::dpll_satisfiable;
use sat::{dimacs, Lit, SolveResult, Solver, Var};

// ---------------------------------------------------------------------------
// DIMACS fixtures
// ---------------------------------------------------------------------------

#[test]
fn chain_fixture_is_sat_and_the_model_checks_out() {
    let instance = dimacs::parse(include_str!("fixtures/chain_sat.cnf")).expect("fixture parses");
    assert_eq!(instance.num_vars, 5);
    assert_eq!(instance.clauses.len(), 5);
    let (mut solver, vars) = instance.load();
    assert_eq!(solver.solve(), SolveResult::Sat);
    // The implication chain forces the first four variables true.
    for &v in &vars[..4] {
        assert_eq!(solver.model_value(v), Some(true));
    }
    // The model satisfies every clause of the instance.
    for clause in &instance.clauses {
        assert!(clause.iter().any(|&l| {
            solver.model_value(vars[(l.unsigned_abs() as usize) - 1]) == Some(l > 0)
        }));
    }
}

#[test]
fn pigeonhole_fixture_is_unsat() {
    let instance = dimacs::parse(include_str!("fixtures/php_4_3.cnf")).expect("fixture parses");
    assert_eq!(instance.num_vars, 12);
    assert_eq!(instance.clauses.len(), 22);
    let (mut solver, _) = instance.load();
    assert_eq!(solver.solve(), SolveResult::Unsat);
    // The DPLL reference concurs.
    let clauses = dimacs_clauses(&instance);
    assert!(!dpll_satisfiable(instance.num_vars, &clauses));
}

fn dimacs_clauses(instance: &dimacs::Instance) -> Vec<Vec<Lit>> {
    instance
        .clauses
        .iter()
        .map(|clause| {
            clause
                .iter()
                .map(|&l| Lit::new(Var::from_index((l.unsigned_abs() as usize) - 1), l > 0))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Differential property family: CDCL vs naive DPLL on random 3-SAT
// ---------------------------------------------------------------------------

/// Decodes a random byte soup into a 3-SAT instance over `num_vars`
/// variables. Three bytes per clause: low bits pick the variable, bit 7 the
/// polarity.
fn decode_3sat(num_vars: usize, spec: &[u8]) -> Vec<Vec<Lit>> {
    spec.chunks_exact(3)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&byte| {
                    let var = Var::from_index(byte as usize % num_vars);
                    Lit::new(var, byte & 0x80 == 0)
                })
                .collect()
        })
        .collect()
}

fn cdcl_satisfiable(num_vars: usize, clauses: &[Vec<Lit>]) -> (SolveResult, Option<Vec<bool>>) {
    let mut solver = Solver::new();
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in clauses {
        solver.add_clause(clause);
    }
    let result = solver.solve();
    let model = (result == SolveResult::Sat).then(|| solver.model().to_vec());
    (result, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Learned-clause solving and the naive DPLL reference agree on random
    /// 3-SAT instances around the hard clause/variable ratio, and every SAT
    /// model actually satisfies the instance.
    #[test]
    fn cdcl_agrees_with_dpll_on_random_3sat(
        num_vars in 3usize..10,
        spec in prop::collection::vec(any::<u8>(), 0..126),
    ) {
        let clauses = decode_3sat(num_vars, &spec);
        let expected = dpll_satisfiable(num_vars, &clauses);
        let (result, model) = cdcl_satisfiable(num_vars, &clauses);
        prop_assert_eq!(result, if expected { SolveResult::Sat } else { SolveResult::Unsat });
        if let Some(model) = model {
            for clause in &clauses {
                prop_assert!(
                    clause.iter().any(|&l| model[l.var().index()] == l.is_positive()),
                    "model violates clause {:?}", clause
                );
            }
        }
    }

    /// Solving under assumptions equals solving the instance with the
    /// assumptions added as unit clauses — and afterwards the *same* solver
    /// still reproduces the unconditioned verdict (no state leak either way).
    #[test]
    fn assumption_solving_matches_unit_strengthening(
        num_vars in 3usize..8,
        spec in prop::collection::vec(any::<u8>(), 0..90),
        assumption_spec in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let clauses = decode_3sat(num_vars, &spec);
        // Distinct-variable assumptions (re-assuming a variable both ways is
        // legal but trivially Unsat, which the strengthened reference also
        // reports; dedup keeps the comparison interesting).
        let mut assumptions: Vec<Lit> = Vec::new();
        for &byte in &assumption_spec {
            let lit = Lit::new(Var::from_index(byte as usize % num_vars), byte & 0x80 == 0);
            if !assumptions.iter().any(|a| a.var() == lit.var()) {
                assumptions.push(lit);
            }
        }

        let mut strengthened = clauses.clone();
        strengthened.extend(assumptions.iter().map(|&l| vec![l]));
        let expected_assumed = dpll_satisfiable(num_vars, &strengthened);
        let expected_free = dpll_satisfiable(num_vars, &clauses);

        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for clause in &clauses {
            solver.add_clause(clause);
        }
        let assumed = solver.solve_with_assumptions(&assumptions);
        prop_assert_eq!(
            assumed,
            if expected_assumed { SolveResult::Sat } else { SolveResult::Unsat }
        );
        if assumed == SolveResult::Sat {
            for &l in &assumptions {
                prop_assert_eq!(solver.model_value(l.var()), Some(l.is_positive()));
            }
        }
        // The same solver, unconditioned, must match the free verdict: the
        // clauses learned under assumptions are ordinary resolvents.
        let free = solver.solve();
        prop_assert_eq!(
            free,
            if expected_free { SolveResult::Sat } else { SolveResult::Unsat }
        );
    }
}

// ---------------------------------------------------------------------------
// Regression: assumption UNSAT must never leak
// ---------------------------------------------------------------------------

/// Encodes the pigeonhole principle (`pigeons` into `holes`), every clause
/// prefixed with `gate` (pass an empty slice for the plain instance). Returns
/// the placement variables.
fn gated_pigeonhole(
    solver: &mut Solver,
    pigeons: usize,
    holes: usize,
    gate: &[Lit],
) -> Vec<Vec<Var>> {
    let v: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for pigeon in &v {
        let mut clause = gate.to_vec();
        clause.extend(pigeon.iter().map(|&x| Lit::positive(x)));
        solver.add_clause(&clause);
    }
    for j in 0..holes {
        for (i1, p1) in v.iter().enumerate() {
            for p2 in &v[i1 + 1..] {
                let mut clause = gate.to_vec();
                clause.push(Lit::negative(p1[j]));
                clause.push(Lit::negative(p2[j]));
                solver.add_clause(&clause);
            }
        }
    }
    v
}

/// A selector-gated pigeonhole instance: assuming the selector turns the
/// solver loose on an unsatisfiable core and forces heavy clause learning;
/// the unconditioned instance stays satisfiable (selector false). The learnt
/// clauses must not flip any later unconditioned verdict.
#[test]
fn unsat_under_assumptions_never_leaks_into_unconditioned_solves() {
    let mut solver = Solver::new();
    let selector = solver.new_var();
    let holes = gated_pigeonhole(&mut solver, 5, 4, &[Lit::negative(selector)]);

    // Interleave assumed-UNSAT solves (which learn aggressively) with
    // unconditioned solves; the latter must stay Sat every round.
    for round in 0..3 {
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::positive(selector)]),
            SolveResult::Unsat,
            "round {round}: gated pigeonhole must be Unsat under the selector"
        );
        assert_eq!(
            solver.solve(),
            SolveResult::Sat,
            "round {round}: assumption UNSAT leaked into the unconditioned verdict"
        );
        assert_eq!(solver.model_value(selector), Some(false));
    }
    // A conflicting assumption pair is also quarantined.
    let p = Lit::positive(holes[0][0]);
    assert_eq!(
        solver.solve_with_assumptions(&[p, p.negated()]),
        SolveResult::Unsat
    );
    assert_eq!(solver.solve(), SolveResult::Sat);
}

/// Conflict-limit exhaustion must report `Unknown` — and leave the solver
/// able to finish the proof once the limit is lifted.
#[test]
fn conflict_limited_unknown_is_not_a_verdict_and_is_recoverable() {
    let mut solver = Solver::new();
    gated_pigeonhole(&mut solver, 6, 5, &[]);
    solver.set_conflict_limit(Some(2));
    assert_eq!(solver.solve(), SolveResult::Unknown);
    solver.set_conflict_limit(None);
    assert_eq!(solver.solve(), SolveResult::Unsat);
}

// ---------------------------------------------------------------------------
// Golden search trace: the exact search, not only the verdicts
// ---------------------------------------------------------------------------

/// SplitMix64: a self-contained seeded generator, so the instances below
/// never move with a dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn lit(&mut self, num_vars: usize) -> Lit {
        let r = self.next();
        Lit::new(Var::from_index((r >> 1) as usize % num_vars), r & 1 == 0)
    }
}

/// A seeded random 3-SAT instance at the hard clause/variable ratio 4.26,
/// three distinct variables per clause.
fn random_3sat(rng: &mut SplitMix64, num_vars: usize) -> Solver {
    let mut solver = Solver::new();
    for _ in 0..num_vars {
        solver.new_var();
    }
    let num_clauses = (num_vars as f64 * 4.26).round() as usize;
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let l = rng.lit(num_vars);
            if clause.iter().all(|c| c.var() != l.var()) {
                clause.push(l);
            }
        }
        solver.add_clause(&clause);
    }
    solver
}

/// FNV-1a over the model bits of a `Sat` answer, 0 otherwise.
fn model_checksum(solver: &Solver, result: SolveResult) -> u64 {
    if result != SolveResult::Sat {
        return 0;
    }
    solver.model().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs the golden workload: 40 random 3-SAT solves, three assumption
/// solves on each of the first four solvers (same solver, so learnt clauses
/// carry over), and one conflict-limited solve. One
/// `(result, lifetime conflicts, model checksum)` row per call.
fn golden_trace() -> Vec<(SolveResult, u64, u64)> {
    let mut rows = Vec::new();
    let mut rng = SplitMix64(0x5eed_2013);
    for i in 0..40 {
        let num_vars = 50 + 10 * (i % 10);
        let mut solver = random_3sat(&mut rng, num_vars);
        let result = solver.solve();
        rows.push((result, solver.conflicts(), model_checksum(&solver, result)));
        if i < 4 {
            for _ in 0..3 {
                let assumptions: Vec<Lit> = (0..4).map(|_| rng.lit(num_vars)).collect();
                let result = solver.solve_with_assumptions(&assumptions);
                rows.push((result, solver.conflicts(), model_checksum(&solver, result)));
            }
        }
    }
    let mut solver = random_3sat(&mut rng, 200);
    solver.set_conflict_limit(Some(500));
    let result = solver.solve();
    rows.push((result, solver.conflicts(), model_checksum(&solver, result)));
    rows
}

/// Recorded on the solver before its flat-arena layout and pinned since: a
/// change to decisions, conflicts or models anywhere in the search shows
/// up here. A deliberate search change updates this table in the same
/// commit.
const GOLDEN: [(SolveResult, u64, u64); 53] = [
    (SolveResult::Sat, 28, 0xe5d4027281032ca0),
    (SolveResult::Unsat, 31, 0),
    (SolveResult::Sat, 32, 0xe5d4027281032ca0),
    (SolveResult::Unsat, 34, 0),
    (SolveResult::Sat, 58, 0x6207b301b2cf7808),
    (SolveResult::Sat, 58, 0x6207b301b2cf7808),
    (SolveResult::Unsat, 73, 0),
    (SolveResult::Unsat, 79, 0),
    (SolveResult::Unsat, 206, 0),
    (SolveResult::Unsat, 206, 0),
    (SolveResult::Unsat, 206, 0),
    (SolveResult::Unsat, 206, 0),
    (SolveResult::Sat, 96, 0x41ec4c78b93e776f),
    (SolveResult::Unsat, 105, 0),
    (SolveResult::Unsat, 175, 0),
    (SolveResult::Sat, 187, 0xb73d299069c36e4f),
    (SolveResult::Sat, 239, 0xd61beb3b007cee51),
    (SolveResult::Sat, 522, 0x99f33415e1a298f1),
    (SolveResult::Unsat, 765, 0),
    (SolveResult::Sat, 196, 0x22eb19915c191d3b),
    (SolveResult::Sat, 1129, 0x341a525418c51a46),
    (SolveResult::Unsat, 2568, 0),
    (SolveResult::Unsat, 48, 0),
    (SolveResult::Sat, 14, 0x9ee7feea34492a67),
    (SolveResult::Sat, 127, 0xdef4a8351a2ad7e5),
    (SolveResult::Sat, 183, 0x30cdb01c36b3bd5f),
    (SolveResult::Sat, 5, 0xed496d83707bb90c),
    (SolveResult::Sat, 662, 0x82d7978a8a252ad0),
    (SolveResult::Unsat, 889, 0),
    (SolveResult::Unsat, 896, 0),
    (SolveResult::Sat, 680, 0x1683b3f530066c90),
    (SolveResult::Sat, 3616, 0x7deee6f0f5668bc8),
    (SolveResult::Sat, 22, 0x4a198f06a94f7646),
    (SolveResult::Unsat, 63, 0),
    (SolveResult::Unsat, 138, 0),
    (SolveResult::Unsat, 236, 0),
    (SolveResult::Sat, 271, 0xa432f1ac61931dcc),
    (SolveResult::Unsat, 639, 0),
    (SolveResult::Unsat, 559, 0),
    (SolveResult::Unsat, 1307, 0),
    (SolveResult::Unsat, 1827, 0),
    (SolveResult::Sat, 2624, 0x8b06b7a7e2b409f5),
    (SolveResult::Sat, 24, 0xebfaca13681fdeb7),
    (SolveResult::Sat, 49, 0x7c0ba1954e33db7b),
    (SolveResult::Unsat, 141, 0),
    (SolveResult::Sat, 292, 0x3b26c60a85d4d2e2),
    (SolveResult::Unsat, 391, 0),
    (SolveResult::Unsat, 344, 0),
    (SolveResult::Sat, 564, 0xc46862fff6f425b0),
    (SolveResult::Unsat, 1297, 0),
    (SolveResult::Unsat, 713, 0),
    (SolveResult::Sat, 1352, 0x520d6c58dcdbf624),
    (SolveResult::Unknown, 501, 0),
];

#[test]
fn search_trace_matches_the_golden_table() {
    let rows = golden_trace();
    assert_eq!(rows.len(), GOLDEN.len());
    for (i, (got, want)) in rows.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(got, want, "golden row {i}");
    }
}
