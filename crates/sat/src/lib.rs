//! A small conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the proof backend behind the `atpg` portfolio scheduler: the
//! identification flow escalates PODEM backtrack-budget give-ups to a SAT
//! query over the Tseitin-encoded fault machine, so the abort column of the
//! proof stage collapses into concluded verdicts. Like every dependency in
//! the workspace it is offline and self-contained — no crates.io code, no
//! `unsafe`, nothing beyond `std`.
//!
//! The solver is a classical MiniSat-style core:
//!
//! * **two-watched-literal** unit propagation,
//! * **1UIP conflict analysis** with clause learning and non-chronological
//!   backjumping,
//! * **VSIDS-style activity ordering** with phase saving,
//! * **Luby-sequence restarts**,
//! * an **assumption interface** ([`Solver::solve_with_assumptions`]) whose
//!   learned clauses are plain resolvents of the clause database — an UNSAT
//!   verdict under assumptions never contaminates later unconditioned solves,
//! * a **conflict limit** ([`Solver::set_conflict_limit`]) that turns an
//!   over-budget search into [`SolveResult::Unknown`] instead of an answer.
//!
//! # Layout
//!
//! The data structures are laid out for the propagation and decision loops,
//! without changing a single search step:
//!
//! * every clause lives in one flat `u32` arena — a length header followed
//!   by its literal codes — and a clause reference is its header's offset;
//! * assignments are read per literal (`vals[lit]`), not per variable;
//! * the VSIDS heap stores each variable's activity inline next to it and
//!   sifts by moving a hole, so it makes the same comparisons, in the same
//!   order, as a heap that reads the activity array;
//! * conflict analysis builds the learnt clause in a reused buffer.
//!
//! Watch-list order and every literal swap are part of the search (they
//! decide which watch moves and the literal order of learnt clauses), so
//! they are kept exactly; there are no blocker literals. The golden test
//! in `tests/solver.rs` pins `(result, conflicts, model)` of a seeded
//! random 3-SAT workload. [`Solver::decisions`], [`Solver::propagations`]
//! and [`Solver::conflicts`] count the search work.
//!
//! # Examples
//!
//! ```
//! use sat::{Lit, SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause(&[Lit::negative(a)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dimacs;
pub mod reference;

/// A propositional variable, identified by a dense index.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(u32);

impl Var {
    /// The variable with the given dense index.
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The literal asserting `var` when `positive`, `¬var` otherwise.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit((var.0 << 1) | u32::from(!positive))
    }

    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The variable underneath.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive (non-negated) literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense code (two codes per variable), the watch-list and value index.
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

/// Outcome of a [`Solver::solve`] / [`Solver::solve_with_assumptions`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment exists (read it with
    /// [`Solver::model_value`] / [`Solver::model`]).
    Sat,
    /// No satisfying assignment exists (under the given assumptions, if any).
    Unsat,
    /// The conflict limit was exhausted before the search concluded.
    Unknown,
}

/// `reason` entry of a decision or a root-level unit.
const NO_REASON: u32 = u32::MAX;
/// `VarOrder::pos` entry of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Activity-ordered max-heap of decision variables (the VSIDS order). Each
/// entry carries its variable's activity inline, so sifting compares heap
/// slots instead of chasing the activity array; a dense position index lets
/// activity bumps sift in place.
///
/// Invariant: an entry's key always equals its variable's current activity
/// in [`Solver`], so the comparisons — and therefore the tie order — are
/// exactly those of a heap that reads the activity array.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<(f64, u32)>,
    /// Position of each variable in `heap`, [`NOT_IN_HEAP`] when absent.
    pos: Vec<u32>,
}

impl VarOrder {
    fn grow(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != NOT_IN_HEAP
    }

    fn insert(&mut self, v: usize, activity: f64) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len() as u32;
        self.heap.push((activity, v as u32));
        self.sift_up(self.heap.len() - 1);
    }

    /// Raises `v`'s key to its new (larger) `activity`.
    fn bump(&mut self, v: usize, activity: f64) {
        if self.contains(v) {
            let i = self.pos[v] as usize;
            self.heap[i].0 = activity;
            self.sift_up(i);
        }
    }

    /// Multiplies every key by `factor`, as the activity rescale does.
    fn rescale(&mut self, factor: f64) {
        for entry in &mut self.heap {
            entry.0 *= factor;
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let top = self.heap.first()?.1 as usize;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }

    /// Moves the entry at `i` up past every parent with a smaller key,
    /// shifting those parents down into the hole it leaves.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if entry.0 <= self.heap[parent].0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Moves the entry at `i` down past every larger child (the larger of
    /// the two, the left one on a tie), shifting those children up.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right].0 > self.heap[left].0 {
                right
            } else {
                left
            };
            if self.heap[child].0 <= entry.0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: (f64, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// The `i`-th term (1-based) of the Luby restart sequence
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
fn luby(i: u64) -> u64 {
    // Find the finite subsequence containing index i, then recurse into it.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
        if x == 0 {
            x = size;
        }
    }
    1u64 << seq
}

/// Conflicts granted per restart, multiplied by the Luby term.
const RESTART_BASE: u64 = 64;
/// Multiplicative VSIDS decay: activities shrink by this factor per conflict
/// (implemented by growing the bump increment).
const ACTIVITY_DECAY: f64 = 0.95;

/// A CDCL SAT solver over clauses added incrementally with
/// [`add_clause`](Solver::add_clause).
#[derive(Debug)]
pub struct Solver {
    /// Flat clause arena: each clause is a length header followed by its
    /// literal codes, and a clause reference (`cref`) is the offset of its
    /// header. Positions 0 and 1 of a clause are its watched literals; for a
    /// reason clause position 0 is the literal it implied.
    arena: Vec<u32>,
    /// Clauses in the arena, learnt clauses included.
    num_clauses: usize,
    /// Watch lists indexed by literal code: clauses currently watching the
    /// literal (it sits in position 0 or 1 of the clause).
    watches: Vec<Vec<u32>>,
    /// Current value of each literal, indexed by literal code; `None` when
    /// its variable is unassigned.
    vals: Vec<Option<bool>>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// Reason clause of each assigned variable (`NO_REASON` for decisions
    /// and root units); stale once the variable is unassigned.
    reason: Vec<u32>,
    /// Assignment trail, in chronological order.
    trail: Vec<Lit>,
    /// Trail index where each decision level starts.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    /// Saved phase per variable (last assigned polarity).
    polarity: Vec<bool>,
    /// Conflict-analysis scratch: per-variable seen marks.
    seen: Vec<bool>,
    /// Conflict-analysis scratch: the learnt clause under construction,
    /// asserting literal first.
    learnt: Vec<Lit>,
    /// Model of the most recent satisfiable solve.
    model: Vec<bool>,
    /// False once a root-level conflict proves the clause set unsatisfiable.
    ok: bool,
    conflict_limit: Option<u64>,
    /// Conflicts over the solver's lifetime (restart bookkeeping and
    /// diagnostics).
    conflicts: u64,
    /// Branching decisions over the solver's lifetime.
    decisions: u64,
    /// Literals propagated over the solver's lifetime.
    propagations: u64,
    /// Cooperative interrupt flag: when it reads `true` the current solve
    /// stops with [`SolveResult::Unknown`] at its next conflict.
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Wall-clock deadline for each solve call, polled alongside the
    /// interrupt flag.
    deadline: Option<std::time::Instant>,
    /// Whether the most recent `Unknown` came from the interrupt flag or
    /// the deadline rather than the conflict budget.
    interrupted: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            polarity: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            model: Vec::new(),
            ok: true,
            conflict_limit: None,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            interrupt: None,
            deadline: None,
            interrupted: false,
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses in the database, learnt clauses included.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Conflicts resolved over the solver's lifetime.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Branching decisions over the solver's lifetime (assumption
    /// placements are not counted).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Literals propagated over the solver's lifetime.
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Caps the number of conflicts a single solve call may spend before
    /// giving up with [`SolveResult::Unknown`]. `None` (the default) searches
    /// to completion.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Installs (or clears) a cooperative interrupt flag: a solve polls it
    /// at every conflict and gives up with [`SolveResult::Unknown`] once it
    /// reads `true`. The solver state stays consistent — a later solve with
    /// the flag cleared continues normally.
    pub fn set_interrupt(&mut self, flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Sets (or clears) a wall-clock deadline polled alongside the
    /// interrupt flag; a solve past the deadline gives up with
    /// [`SolveResult::Unknown`].
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Whether the most recent solve stopped because of the interrupt flag
    /// or the deadline (as opposed to exhausting the conflict budget).
    pub fn was_interrupted(&self) -> bool {
        self.interrupted
    }

    /// The interrupt flag reads `true` or the deadline has passed.
    fn stop_requested(&self) -> bool {
        if self
            .interrupt
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
        {
            return true;
        }
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.push(None);
        self.vals.push(None);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.order.grow();
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.vals[l.code()]
    }

    /// The value of variable `v`: that of its positive literal, code `2v`.
    fn var_value(&self, v: usize) -> Option<bool> {
        self.vals[2 * v]
    }

    /// Adds a clause (a disjunction of literals). Returns `false` when the
    /// clause makes the database trivially unsatisfiable at the root level
    /// (the solver stays usable but every solve returns `Unsat`).
    ///
    /// # Panics
    ///
    /// Panics if called while a solve is suspended mid-trail (cannot happen
    /// through the public API) or if a literal names an unknown variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        // Simplify: drop duplicate and root-false literals, detect tautologies
        // and root-satisfied clauses.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!(l.var().index() < self.num_vars(), "unknown variable");
            if self.value_lit(l) == Some(true) || clause.contains(&l.negated()) {
                return true;
            }
            if self.value_lit(l) == Some(false) || clause.contains(&l) {
                continue;
            }
            clause.push(l);
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(clause[0], NO_REASON);
                // Propagate eagerly so later add_clause simplification sees
                // the consequences and a unit-level conflict is caught now.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&clause);
                true
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and watches
    /// its first two.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        assert!(
            self.arena.len() < NO_REASON as usize,
            "clause arena exceeds u32 offsets"
        );
        let cref = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[lits[0].code()].push(cref);
        self.watches[lits[1].code()].push(cref);
        self.num_clauses += 1;
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert!(self.var_value(v).is_none());
        self.vals[l.code()] = Some(true);
        self.vals[l.negated().code()] = Some(false);
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation to fixpoint. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = p.negated();
            // The list is moved out because new watches may be pushed onto
            // *other* lists while this one is walked.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut kept = 0;
            let mut conflict = None;
            'clauses: for i in 0..ws.len() {
                let cref = ws[i];
                let start = cref as usize + 1;
                let end = start + self.arena[cref as usize] as usize;
                let lits = &mut self.arena[start..end];
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                let first_value = self.vals[first.code()];
                if first_value == Some(true) {
                    ws[kept] = cref;
                    kept += 1;
                    continue 'clauses;
                }
                // Look for an unfalsified replacement watch.
                for k in 2..lits.len() {
                    if self.vals[lits[k] as usize] != Some(false) {
                        lits.swap(1, k);
                        self.watches[lits[1] as usize].push(cref);
                        continue 'clauses;
                    }
                }
                // No replacement: the clause is unit or conflicting.
                ws[kept] = cref;
                kept += 1;
                if first_value == Some(false) {
                    conflict = Some(cref);
                    // Keep the remaining watchers untouched.
                    for j in i + 1..ws.len() {
                        ws[kept] = ws[j];
                        kept += 1;
                    }
                    break 'clauses;
                }
                self.unchecked_enqueue(first, cref);
            }
            ws.truncate(kept);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.order.rescale(1e-100);
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, self.activity[v]);
    }

    /// 1UIP conflict analysis: derives the asserting learnt clause into
    /// `self.learnt` (asserted literal first) and returns the backjump level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let current_level = self.trail_lim.len() as u32;
        self.learnt.clear();
        self.learnt.push(Lit(0)); // placeholder for the 1UIP
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut p: Option<Lit> = None;

        loop {
            let start = confl as usize + 1;
            let end = start + self.arena[confl as usize] as usize;
            // For a reason clause, position 0 is the literal it implied —
            // skip it.
            let skip = usize::from(p.is_some());
            for k in start + skip..end {
                let q = Lit(self.arena[k]);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on: the most recent seen trail entry.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            self.bump_var(v);
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                self.learnt[0] = lit.negated();
                break;
            }
            confl = self.reason[v];
            debug_assert_ne!(confl, NO_REASON, "non-UIP literal must be implied");
        }
        // Bump the variables that stay in the learnt clause, clear the marks.
        for i in 1..self.learnt.len() {
            let v = self.learnt[i].var().index();
            self.bump_var(v);
            self.seen[v] = false;
        }
        // Backjump level: the highest level among the non-asserting literals;
        // that literal moves to the second watch position.
        let mut backjump = 0u32;
        let learnt = &mut self.learnt;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            backjump = self.level[learnt[1].var().index()];
        }
        self.var_inc /= ACTIVITY_DECAY;
        backjump
    }

    /// Undoes the trail down to (and keeping) `level`.
    fn cancel_until(&mut self, level: u32) {
        if self.trail_lim.len() as u32 <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = l.is_positive();
            self.vals[l.code()] = None;
            self.vals[l.negated().code()] = None;
            self.order.insert(v, self.activity[v]);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<usize> {
        while let Some(v) = self.order.pop() {
            if self.var_value(v).is_none() {
                return Some(v);
            }
        }
        None
    }

    /// Decides satisfiability of the clause database.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under the given assumption literals (treated as
    /// retractable first decisions — no clauses are added, and clauses
    /// learned along the way are ordinary resolvents of the database, so a
    /// later unconditioned [`solve`](Solver::solve) is unaffected by an
    /// `Unsat` verdict here).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        debug_assert!(self.trail_lim.is_empty());
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &l in assumptions {
            assert!(l.var().index() < self.num_vars(), "unknown variable");
        }
        // Seed the decision order with every unassigned variable.
        for v in 0..self.num_vars() {
            if self.var_value(v).is_none() {
                self.order.insert(v, self.activity[v]);
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let budget = self.conflict_limit;
        let mut spent = 0u64;
        let mut restarts = 0u64;
        let mut restart_budget = RESTART_BASE * luby(1);
        let mut since_restart = 0u64;
        self.interrupted = false;

        let result = loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                spent += 1;
                since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                if budget.is_some_and(|limit| spent > limit) {
                    break SolveResult::Unknown;
                }
                if self.stop_requested() {
                    self.interrupted = true;
                    break SolveResult::Unknown;
                }
                let backjump = self.analyze(confl);
                self.cancel_until(backjump);
                let asserted = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.unchecked_enqueue(asserted, NO_REASON);
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let cref = self.attach(&learnt);
                    self.learnt = learnt;
                    self.unchecked_enqueue(asserted, cref);
                }
                continue;
            }
            if since_restart >= restart_budget {
                restarts += 1;
                since_restart = 0;
                restart_budget = RESTART_BASE * luby(restarts + 1);
                self.cancel_until(0);
                // The restart boundary is the cheapest place to notice a
                // cancellation that arrives during a long conflict-free
                // stretch (the per-conflict poll covers the hot path).
                if self.stop_requested() {
                    self.interrupted = true;
                    break SolveResult::Unknown;
                }
                continue;
            }
            // Place the next assumption, if any remain unplaced.
            let mut next: Option<Lit> = None;
            let mut assumption_conflict = false;
            while (self.trail_lim.len()) < assumptions.len() {
                let p = assumptions[self.trail_lim.len()];
                match self.value_lit(p) {
                    Some(true) => {
                        // Already satisfied: open an (empty) level for it so
                        // the remaining assumptions line up with levels.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        assumption_conflict = true;
                        break;
                    }
                    None => {
                        next = Some(p);
                        break;
                    }
                }
            }
            if assumption_conflict {
                break SolveResult::Unsat;
            }
            let decision = match next {
                Some(p) => p,
                None => match self.pick_branch_var() {
                    Some(v) => {
                        self.decisions += 1;
                        Lit::new(Var(v as u32), self.polarity[v])
                    }
                    None => {
                        // Complete assignment: record the model.
                        self.model = (0..self.num_vars())
                            .map(|v| self.var_value(v) == Some(true))
                            .collect();
                        break SolveResult::Sat;
                    }
                },
            };
            self.trail_lim.push(self.trail.len());
            self.unchecked_enqueue(decision, NO_REASON);
        };
        self.cancel_until(0);
        result
    }

    /// The value of `var` in the most recent satisfying assignment, `None`
    /// when no model has been recorded (or the variable postdates it).
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index()).copied()
    }

    /// The most recent satisfying assignment, indexed by variable.
    pub fn model(&self) -> &[bool] {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], l: i32) -> Lit {
        let v = solver_vars[(l.unsigned_abs() as usize) - 1];
        Lit::new(v, l > 0)
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&l| lit(&vars, l)).collect();
            s.add_clause(&lits);
        }
        (s, vars)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let (mut s, _) = solver_with(1, &[&[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let (mut s, _) = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, 3], &[-2, -3], &[2, 3]];
        let (mut s, vars) = solver_with(3, clauses);
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in clauses {
            assert!(
                c.iter().any(|&l| {
                    let value = s
                        .model_value(vars[(l.unsigned_abs() as usize) - 1])
                        .unwrap();
                    value == (l > 0)
                }),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p1h1, p2h1: each pigeon somewhere, no two share the hole.
        let (mut s, _) = solver_with(2, &[&[1], &[2], &[-1, -2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Encodes the pigeonhole principle (`pigeons` into `holes`) — the
    /// classic resolution-hard UNSAT family when `pigeons > holes`.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let v: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for pigeon in &v {
            let clause: Vec<Lit> = pigeon.iter().map(|&x| Lit::positive(x)).collect();
            s.add_clause(&clause);
        }
        for j in 0..holes {
            for (i1, p1) in v.iter().enumerate() {
                for p2 in &v[i1 + 1..] {
                    s.add_clause(&[Lit::negative(p1[j]), Lit::negative(p2[j])]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 3, 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_the_verdict_without_committing() {
        let (mut s, vars) = solver_with(2, &[&[1, 2]]);
        // Assuming both false contradicts the clause.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1), lit(&vars, -2)]),
            SolveResult::Unsat
        );
        // The unconditioned problem is still satisfiable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
        // And a compatible assumption set is honoured in the model.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1)]),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(vars[0]), Some(false));
        assert_eq!(s.model_value(vars[1]), Some(true));
    }

    #[test]
    fn conflict_limit_yields_unknown_not_a_verdict() {
        // Hard UNSAT instance (pigeonhole 5 into 4) with a conflict budget of
        // one: the solver must give up, not guess.
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        s.set_conflict_limit(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Lifting the limit concludes the proof on the same solver.
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_clauses_propagate_through_add() {
        let (mut s, vars) = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[2]), Some(true));
    }

    #[test]
    fn tautologies_and_duplicates_are_harmless() {
        let (mut s, _) = solver_with(2, &[&[1, -1], &[2, 2], &[-2, -2, 1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_poisons_the_database() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_prefix_matches_the_literature() {
        let prefix: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn counters_track_decisions_and_propagations() {
        // The unit x1 propagates x2 = 0 and x3 = 1 at the root: three
        // literals propagated, no branching.
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1]];
        let (mut s, _) = solver_with(3, clauses);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!((s.decisions(), s.propagations(), s.conflicts()), (0, 3, 0));
        // A free variable costs one decision (and its propagation).
        let (mut s, _) = solver_with(1, &[]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!((s.decisions(), s.propagations()), (1, 1));
    }

    #[test]
    fn xor_chain_forces_a_unique_model() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1 ⇒ x2 = 0, x3 = 1.
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1]];
        let (mut s, vars) = solver_with(3, clauses);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[0]), Some(true));
        assert_eq!(s.model_value(vars[1]), Some(false));
        assert_eq!(s.model_value(vars[2]), Some(true));
    }
}
