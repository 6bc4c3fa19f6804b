//! Tseitin-style CNF encoding of the cone-clipped fault machine and the SAT
//! untestability prover behind the PODEM/SAT portfolio ([`crate::proof`]).
//!
//! Per fault the encoder builds **two copies** of the fault site's fanout
//! cone — the good machine and the faulty machine — over a shared fan-in:
//! only the site and the cone gate outputs can differ between the machines,
//! so every other net aliases its good-machine encoding and the CNF stays
//! proportional to the cone plus its transitive fan-in rather than the whole
//! design. Detection is an OR of XOR-difference literals at the observation
//! nets inside the cone's neighbourhood (masked outputs never contribute),
//! plus the branch-observation term for an input-pin fault sitting directly
//! on an observation pin. Mission forces from the [`ConstraintSet`] enter as
//! **unit assumptions** on fresh variables.
//!
//! The two-valued encoding is exact for the three-valued engine because every
//! source net in the relevant fan-in is forced, tied, or controllable:
//! three-valued simulation is monotone, so a detecting partial assignment
//! extends to a detecting complete one, and any satisfying complete
//! assignment *is* a detecting test. When that precondition fails —
//! uncontrollable flip-flop outputs, floating nets, or an `X` force in the
//! fan-in — the prover declines with [`SatVerdict::Unsupported`] instead of
//! guessing, and the portfolio keeps the search engine's verdict.
//!
//! A `Sat` answer is never trusted on its own: the model is replayed through
//! [`CombSim`] with the fault injected and must reproduce the detection
//! before [`SatVerdict::TestExists`] is returned. Nor is a repeat solve
//! needed for an instance known to exhaust the conflict budget: the prover
//! remembers those (see [`SatProver`]).
//!
//! Replayed models are kept as a **test pool**. Each escalation is graded
//! against the pool before it is encoded, with the replay's own detection
//! criterion over the site's fanout cone, and a detecting test concludes
//! [`SatVerdict::TestExists`] without a solve. A model enters the pool only
//! when its fault reached the solver. On the reduced SoC's 2,302 escalations
//! the pool concludes 1,612 of the 1,757 testable faults, 29 of them former
//! conflict-budget aborts; PODEM patterns and random patterns were measured
//! to detect almost none of them, so only SAT models are pooled.
//! [`SatProver::prove`] is the sequential definition of the rule, which the
//! proof campaign reproduces under any thread count.

use std::collections::{HashMap, HashSet};

use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist, PinIndex};
use sat::{Lit, SolveResult, Solver, Var};

use crate::budget::AbortReason;
use crate::compiled::{SimScratch, NO_INDEX};
use crate::constant::ConstraintSet;
use crate::logic::Logic;
use crate::sim::{CombSim, NetValues};

/// Default ceiling on the number of CNF clauses one proof attempt may build.
/// A pathological cone (huge reconvergent fan-in) hits this guard and comes
/// back [`SatVerdict::Unsupported`] instead of exhausting memory inside the
/// solver.
pub const DEFAULT_CLAUSE_LIMIT: usize = 4_000_000;

/// Outcome of one SAT proof attempt.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SatVerdict {
    /// The solver found a test and the simulator confirmed it detects.
    TestExists,
    /// The CNF is unsatisfiable: no test exists under the constraints.
    ProvenUntestable,
    /// The conflict budget ran out before a verdict; the fault stays
    /// potentially testable.
    Aborted,
    /// The fault's environment falls outside the two-valued encoding
    /// (uncontrollable flip-flop output, floating net, or `X` force in the
    /// relevant fan-in); the caller should keep the search engine's verdict.
    Unsupported,
}

/// Marker error: the fan-in needed by the encoding contains a net the
/// two-valued CNF cannot represent exactly.
struct Unsupported;

/// A net's encoding: a known constant or a CNF literal.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Repr {
    Const(bool),
    Lit(Lit),
}

/// Accumulated observation terms of one fault encoding.
struct Detection {
    /// XOR-difference literals, one per observation net that can differ.
    terms: Vec<Lit>,
    /// Some difference folded to constant true: every consistent assignment
    /// detects the fault.
    trivially_detected: bool,
}

/// The exact input of one solve: the clauses the encoder handed
/// [`Solver::add_clause`], in order, the variable count, the assumptions and
/// the conflict limit. The solver is deterministic, so equal inputs run the
/// same search to the same answer.
#[derive(Default, PartialEq, Eq, Hash, Debug)]
struct SolveInput {
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// Length of each clause in `lits`.
    clause_lens: Vec<u32>,
    num_vars: usize,
    /// Unit assumptions pinning the mission forces.
    assumptions: Vec<Lit>,
    conflict_limit: u64,
}

/// Per-fault CNF under construction: the solver, the lazily resolved good
/// machine, and the assumption/input bookkeeping.
struct Cnf<'n> {
    netlist: &'n Netlist,
    forced: &'n HashMap<NetId, Logic>,
    control_ff_outputs: bool,
    solver: Solver,
    /// Good-machine encoding per net, resolved on demand through the fan-in.
    good: HashMap<NetId, Repr>,
    /// Everything handed to the solver so far, for the abort memo.
    solve_input: SolveInput,
    /// Free controllable variables, for replaying a model through the
    /// simulator. Order is deterministic (resolution order).
    inputs: Vec<(NetId, Var)>,
    true_lit: Option<Lit>,
    /// Scratch for the iterative fan-in walk.
    stack: Vec<NetId>,
}

impl<'n> Cnf<'n> {
    fn new(
        netlist: &'n Netlist,
        forced: &'n HashMap<NetId, Logic>,
        control_ff_outputs: bool,
    ) -> Self {
        Cnf {
            netlist,
            forced,
            control_ff_outputs,
            solver: Solver::new(),
            good: HashMap::new(),
            solve_input: SolveInput::default(),
            inputs: Vec::new(),
            true_lit: None,
            stack: Vec::new(),
        }
    }

    /// Adds a clause to the solver and records it in the solve input.
    fn add_clause(&mut self, lits: &[Lit]) {
        self.solve_input.lits.extend_from_slice(lits);
        self.solve_input.clause_lens.push(lits.len() as u32);
        self.solver.add_clause(lits);
    }

    /// A literal that is true in every model (created on first use).
    fn constant_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::positive(self.solver.new_var());
        self.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn lit_of(&mut self, r: Repr) -> Lit {
        match r {
            Repr::Lit(l) => l,
            Repr::Const(b) => {
                let t = self.constant_true();
                if b {
                    t
                } else {
                    !t
                }
            }
        }
    }

    fn negate(r: Repr) -> Repr {
        match r {
            Repr::Const(b) => Repr::Const(!b),
            Repr::Lit(l) => Repr::Lit(!l),
        }
    }

    fn and_reprs(&mut self, ins: &[Repr]) -> Repr {
        let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
        for &r in ins {
            match r {
                Repr::Const(false) => return Repr::Const(false),
                Repr::Const(true) => {}
                Repr::Lit(l) => {
                    if lits.contains(&!l) {
                        return Repr::Const(false);
                    }
                    if !lits.contains(&l) {
                        lits.push(l);
                    }
                }
            }
        }
        match lits.len() {
            0 => Repr::Const(true),
            1 => Repr::Lit(lits[0]),
            _ => {
                let y = Lit::positive(self.solver.new_var());
                let mut all = Vec::with_capacity(lits.len() + 1);
                all.push(y);
                for &l in &lits {
                    self.add_clause(&[!y, l]);
                    all.push(!l);
                }
                self.add_clause(&all);
                Repr::Lit(y)
            }
        }
    }

    fn or_reprs(&mut self, ins: &[Repr]) -> Repr {
        let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
        for &r in ins {
            match r {
                Repr::Const(true) => return Repr::Const(true),
                Repr::Const(false) => {}
                Repr::Lit(l) => {
                    if lits.contains(&!l) {
                        return Repr::Const(true);
                    }
                    if !lits.contains(&l) {
                        lits.push(l);
                    }
                }
            }
        }
        match lits.len() {
            0 => Repr::Const(false),
            1 => Repr::Lit(lits[0]),
            _ => {
                let y = Lit::positive(self.solver.new_var());
                let mut all = Vec::with_capacity(lits.len() + 1);
                all.push(!y);
                for &l in &lits {
                    self.add_clause(&[y, !l]);
                    all.push(l);
                }
                self.add_clause(&all);
                Repr::Lit(y)
            }
        }
    }

    fn xor2(&mut self, a: Repr, b: Repr) -> Repr {
        match (a, b) {
            (Repr::Const(x), Repr::Const(y)) => Repr::Const(x ^ y),
            (Repr::Const(false), r) | (r, Repr::Const(false)) => r,
            (Repr::Const(true), r) | (r, Repr::Const(true)) => Self::negate(r),
            (Repr::Lit(p), Repr::Lit(q)) if p == q => Repr::Const(false),
            (Repr::Lit(p), Repr::Lit(q)) if p == !q => Repr::Const(true),
            (Repr::Lit(p), Repr::Lit(q)) => {
                let y = Lit::positive(self.solver.new_var());
                self.add_clause(&[!p, !q, !y]);
                self.add_clause(&[p, q, !y]);
                self.add_clause(&[p, !q, y]);
                self.add_clause(&[!p, q, y]);
                Repr::Lit(y)
            }
        }
    }

    fn xor_all(&mut self, ins: &[Repr]) -> Repr {
        let mut acc = Repr::Const(false);
        for &r in ins {
            acc = self.xor2(acc, r);
        }
        acc
    }

    fn mux(&mut self, d0: Repr, d1: Repr, s: Repr) -> Repr {
        match s {
            Repr::Const(false) => d0,
            Repr::Const(true) => d1,
            Repr::Lit(sl) => {
                if d0 == d1 {
                    return d0;
                }
                let l0 = self.lit_of(d0);
                let l1 = self.lit_of(d1);
                let y = Lit::positive(self.solver.new_var());
                self.add_clause(&[sl, !y, l0]);
                self.add_clause(&[sl, y, !l0]);
                self.add_clause(&[!sl, !y, l1]);
                self.add_clause(&[!sl, y, !l1]);
                Repr::Lit(y)
            }
        }
    }

    /// Encodes one combinational gate over already-encoded inputs, constant
    /// folding where the operands allow it. The fold directions mirror
    /// [`crate::compiled`]'s `compute_gate` two-valued semantics exactly.
    fn gate_repr(&mut self, kind: CellKind, ins: &[Repr]) -> Repr {
        match kind {
            CellKind::Buf => ins[0],
            CellKind::Not => Self::negate(ins[0]),
            CellKind::And(_) => self.and_reprs(ins),
            CellKind::Nand(_) => {
                let a = self.and_reprs(ins);
                Self::negate(a)
            }
            CellKind::Or(_) => self.or_reprs(ins),
            CellKind::Nor(_) => {
                let o = self.or_reprs(ins);
                Self::negate(o)
            }
            CellKind::Xor(_) => self.xor_all(ins),
            CellKind::Xnor(_) => {
                let x = self.xor_all(ins);
                Self::negate(x)
            }
            CellKind::Mux2 => self.mux(ins[0], ins[1], ins[2]),
            other => unreachable!("non-combinational {other:?} reached the gate encoder"),
        }
    }

    /// A fresh unconstrained variable standing for a controllable net.
    fn free_var(&mut self, net: NetId) -> Repr {
        let v = self.solver.new_var();
        self.inputs.push((net, v));
        Repr::Lit(Lit::positive(v))
    }

    /// Resolves the good-machine encoding of `net`, walking its fan-in
    /// iteratively (the fan-in of an industrial cone can be deep).
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the fan-in contains a net the two-valued encoding
    /// cannot represent exactly: an `X` force, a floating (driverless) net,
    /// or a flip-flop output while the environment says those are not
    /// controllable.
    fn good_repr(&mut self, net: NetId) -> Result<Repr, Unsupported> {
        debug_assert!(self.stack.is_empty());
        let netlist = self.netlist;
        self.stack.push(net);
        while let Some(&n) = self.stack.last() {
            if self.good.contains_key(&n) {
                self.stack.pop();
                continue;
            }
            if let Some(&value) = self.forced.get(&n) {
                // Mission force: a fresh variable pinned by a unit
                // assumption, so learnt clauses stay environment-free.
                let Some(bit) = value.to_bool() else {
                    self.stack.clear();
                    return Err(Unsupported);
                };
                let v = self.solver.new_var();
                self.solve_input.assumptions.push(Lit::new(v, bit));
                self.good.insert(n, Repr::Lit(Lit::positive(v)));
                self.stack.pop();
                continue;
            }
            let Some(driver) = netlist.driver_of(n) else {
                // Floating net: permanently X in simulation.
                self.stack.clear();
                return Err(Unsupported);
            };
            let cell = netlist.cell(driver);
            let kind = cell.kind();
            let repr = match kind {
                CellKind::Input => self.free_var(n),
                CellKind::Tie0 => Repr::Const(false),
                CellKind::Tie1 => Repr::Const(true),
                CellKind::Dff { .. } | CellKind::Sdff { .. } => {
                    if self.control_ff_outputs {
                        self.free_var(n)
                    } else {
                        self.stack.clear();
                        return Err(Unsupported);
                    }
                }
                _ => {
                    debug_assert!(kind.is_combinational());
                    let before = self.stack.len();
                    for &in_net in cell.inputs() {
                        if !self.good.contains_key(&in_net) {
                            self.stack.push(in_net);
                        }
                    }
                    if self.stack.len() != before {
                        // Resolve the fan-in first; `n` is revisited after.
                        continue;
                    }
                    let ins: Vec<Repr> = cell.inputs().iter().map(|i| self.good[i]).collect();
                    self.gate_repr(kind, &ins)
                }
            };
            self.good.insert(n, repr);
            self.stack.pop();
        }
        Ok(self.good[&net])
    }
}

/// Builds the faulty cone copies and the detection terms for one fault.
///
/// `gates` are the compiled gates of the site's fanout cone in ascending
/// (topological) gate order; `faulty` arrives seeded with the site override
/// for stem faults and leaves holding the faulty encoding of every net that
/// can differ from the good machine.
fn encode_fault(
    cnf: &mut Cnf<'_>,
    gates: &[(u32, CellId)],
    fault: StuckAt,
    site_net: NetId,
    is_obs_net: &[bool],
    observation_pins: &HashSet<(CellId, PinIndex)>,
    faulty: &mut HashMap<NetId, Repr>,
) -> Result<Detection, Unsupported> {
    let netlist = cnf.netlist;
    let stuck = fault.value;
    for &(_, cell_id) in gates {
        let kind = netlist.cell(cell_id).kind();
        let out = netlist
            .output_net(cell_id)
            .expect("compiled gates drive a net");
        if cnf.forced.contains_key(&out) {
            // Gates never overwrite forced nets, in either machine.
            continue;
        }
        let pins = netlist.cell(cell_id).inputs();
        let mut ins = Vec::with_capacity(pins.len());
        for (pin, &net) in pins.iter().enumerate() {
            let faulted_pin = matches!(
                fault.site,
                FaultSite::CellInput { cell, pin: fpin }
                    if cell == cell_id && usize::from(fpin) == pin
            );
            let r = if faulted_pin {
                // Branch fault: only this cell's read of the net is stuck.
                Repr::Const(stuck)
            } else if let Some(&fr) = faulty.get(&net) {
                fr
            } else {
                cnf.good_repr(net)?
            };
            ins.push(r);
        }
        let out_repr = cnf.gate_repr(kind, &ins);
        faulty.insert(out, out_repr);
    }

    // Observation: XOR differences where the machines can diverge. Sorted for
    // a deterministic CNF (and thus deterministic conflict budgets) no matter
    // the hash order.
    let mut diff_nets: Vec<NetId> = faulty
        .keys()
        .copied()
        .filter(|net| is_obs_net[net.index()])
        .collect();
    diff_nets.sort_unstable();
    let mut terms = Vec::new();
    let mut trivially_detected = false;
    for net in diff_nets {
        let g = cnf.good_repr(net)?;
        let f = faulty[&net];
        match cnf.xor2(g, f) {
            Repr::Const(false) => {}
            Repr::Const(true) => trivially_detected = true,
            Repr::Lit(l) => terms.push(l),
        }
    }
    if let FaultSite::CellInput { cell, pin } = fault.site {
        if observation_pins.contains(&(cell, pin)) {
            // Branch observation: the faulted pin itself is an observation
            // point, so the fault is seen whenever the good value differs
            // from the stuck value.
            let g = cnf.good_repr(site_net)?;
            match cnf.xor2(g, Repr::Const(stuck)) {
                Repr::Const(false) => {}
                Repr::Const(true) => trivially_detected = true,
                Repr::Lit(l) => terms.push(l),
            }
        }
    }
    Ok(Detection {
        terms,
        trivially_detected,
    })
}

/// Replays a SAT model through the three-valued simulator and checks the
/// detection the encoding promised, using PODEM's exact criterion.
#[allow(clippy::too_many_arguments)]
fn replay_detects(
    sim: &CombSim<'_>,
    forced: &HashMap<NetId, Logic>,
    observation_nets: &[NetId],
    observation_pins: &HashSet<(CellId, PinIndex)>,
    fault: StuckAt,
    site_net: NetId,
    assignment: &[(NetId, bool)],
    good: &mut NetValues,
    faulty: &mut NetValues,
    scratch: &mut SimScratch,
) -> bool {
    good.fill(Logic::X);
    faulty.fill(Logic::X);
    for &(net, value) in assignment {
        good[net.index()] = Logic::from_bool(value);
        faulty[net.index()] = Logic::from_bool(value);
    }
    sim.propagate_with(good, forced, None, scratch);
    sim.propagate_with(faulty, forced, Some(fault), scratch);
    for &net in observation_nets {
        let g = good[net.index()];
        let f = faulty[net.index()];
        if g.is_definite() && f.is_definite() && g != f {
            return true;
        }
    }
    if let FaultSite::CellInput { cell, pin } = fault.site {
        if observation_pins.contains(&(cell, pin)) {
            let g = good[site_net.index()];
            if g.is_definite() && g != Logic::from_bool(fault.value) {
                return true;
            }
        }
    }
    false
}

/// Cumulative work of one [`SatProver`] — or, summed over its workers, of
/// one proof campaign.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct SatCounters {
    /// Solver runs (memo hits excluded).
    pub solves: u64,
    /// Conflicts spent across those runs.
    pub conflicts: u64,
    /// Solves skipped because an identical instance had already exhausted
    /// its conflict budget.
    pub memo_hits: u64,
    /// Escalations a pool test concluded [`SatVerdict::TestExists`] without
    /// an encoding or a solve.
    pub pool_hits: u64,
    /// Replayed SAT models kept in the test pool.
    pub pool_tests: u64,
}

impl std::ops::AddAssign for SatCounters {
    fn add_assign(&mut self, other: Self) {
        self.solves += other.solves;
        self.conflicts += other.conflicts;
        self.memo_hits += other.memo_hits;
        self.pool_hits += other.pool_hits;
        self.pool_tests += other.pool_tests;
    }
}

/// One test of the pool: a replayed SAT model's input assignment and the
/// fault-free machine it produces.
#[derive(Clone, Debug)]
pub(crate) struct PoolTest {
    /// The model's controllable-net values, in encoding order.
    pub(crate) assignment: Vec<(NetId, bool)>,
    /// The three-valued good machine under `assignment`.
    good: NetValues,
}

/// The fanout cone of the last prepared fault site, shared by the encoder
/// and pool grading.
#[derive(Debug)]
struct SiteCone {
    site: Option<NetId>,
    /// The cone's compiled gates with their cells, in ascending gate (=
    /// topological) order.
    gates: Vec<(u32, CellId)>,
    /// The gate indices of `gates` alone: the clipped faulty-machine program.
    program: Vec<u32>,
    /// The site net plus every net a cone cell reads or writes: the only
    /// nets where the faulty machine can differ from the good one.
    neighborhood: Vec<u32>,
    /// Dense membership bitmap over `neighborhood`.
    in_neighborhood: Vec<bool>,
    /// Observation nets inside the neighbourhood.
    obs_nets: Vec<NetId>,
}

/// SAT-backed untestability prover over the full-scan combinational frame.
///
/// Shares PODEM's view of the environment: primary inputs and flip-flop
/// outputs are controllable (unless forced), primary outputs and flip-flop
/// input pins are observation points (unless masked). Each
/// [`prove`](Self::prove) call encodes the fault's cone-clipped good/faulty
/// machine pair into a fresh CNF and asks the CDCL core ([`sat::Solver`])
/// whether any detecting assignment exists.
///
/// # Test pool
///
/// Every model that passes the simulation replay is kept in a pool, and
/// each later call grades its fault against the pool before encoding it. A
/// pool test that detects the fault concludes [`SatVerdict::TestExists`]
/// with no solve; a fault that reaches the solver and gets a replayed model
/// adds that model to the pool. Grading is the replay's own criterion: the
/// test's good machine is stored, the faulty machine is simulated over the
/// site's fanout cone only
/// ([`CompiledProgram::propagate_scalar_clipped`](crate::compiled::CompiledProgram::propagate_scalar_clipped)),
/// and a definite difference at an observation net, or at the faulted
/// observation pin itself, detects — exactly what a full replay of the test
/// would decide. Only SAT models enter the pool, and the pool never yields
/// [`SatVerdict::ProvenUntestable`]. The pool lives as long as the prover;
/// this sequence of calls is the definition the proof campaign
/// ([`crate::proof`]) reproduces under any thread count.
///
/// # Abort memo
///
/// Bit-sliced datapaths give byte-identical per-fault CNFs, because
/// variables are numbered in resolution order, so a worklist meets the same
/// instance several times. The prover remembers every instance that
/// exhausted its conflict budget, keyed by the exact solver input (the
/// clause stream, variable count, assumptions and conflict limit; equality,
/// not the hash, decides a hit), and answers a repeat with
/// [`SatVerdict::Aborted`] / [`AbortReason::Conflicts`] without solving —
/// what the deterministic solver would return. Nothing else is memoised:
/// interrupt and deadline stops may conclude on a later attempt, every
/// [`SatVerdict::ProvenUntestable`] comes from a real solve, and every
/// [`SatVerdict::TestExists`] from a replayed model. The memo lives as long
/// as the prover (one per proof worker per campaign).
#[derive(Debug)]
pub struct SatProver<'a> {
    netlist: &'a Netlist,
    sim: CombSim<'a>,
    forced: HashMap<NetId, Logic>,
    /// Dense never-overwrite bitmap of the forced nets.
    forced_mask: Vec<bool>,
    control_ff_outputs: bool,
    observation_nets: Vec<NetId>,
    observation_pins: HashSet<(CellId, PinIndex)>,
    is_obs_net: Vec<bool>,
    extractor: graph::ConeExtractor,
    gate_of_cell: Vec<u32>,
    cone: SiteCone,
    conflict_limit: u64,
    clause_limit: usize,
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    deadline: Option<std::time::Instant>,
    last_abort_reason: Option<AbortReason>,
    corrupt_next_model: bool,
    /// Inputs whose solve exhausted the conflict budget.
    aborted_inputs: HashSet<SolveInput>,
    /// The test pool of [`prove`](Self::prove), in insertion order.
    pool: Vec<PoolTest>,
    counters: SatCounters,
    good_buf: NetValues,
    faulty_buf: NetValues,
    scratch: SimScratch,
}

impl<'a> SatProver<'a> {
    /// Builds a prover for the given design and environment.
    /// `conflict_limit` bounds each proof attempt (use `u64::MAX` for an
    /// effectively unbounded search).
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn new(
        netlist: &'a Netlist,
        constraints: &ConstraintSet,
        conflict_limit: u64,
    ) -> Result<Self, graph::CombinationalLoop> {
        let sim = CombSim::new(netlist)?;
        let forced = constraints.forced_nets.clone();
        let mut forced_mask = vec![false; netlist.num_nets()];
        for &net in forced.keys() {
            forced_mask[net.index()] = true;
        }
        let mut observation_nets = Vec::new();
        let mut observation_pins = HashSet::new();
        for po in netlist.primary_outputs() {
            if constraints.masked_outputs.contains(&po) {
                continue;
            }
            observation_nets.push(netlist.cell(po).inputs()[0]);
            observation_pins.insert((po, 0));
        }
        if constraints.observe_ff_inputs {
            for ff in netlist.sequential_cells() {
                for (pin, &net) in netlist.cell(ff).inputs().iter().enumerate() {
                    observation_nets.push(net);
                    observation_pins.insert((ff, pin as PinIndex));
                }
            }
        }
        observation_nets.sort_unstable();
        observation_nets.dedup();
        let mut is_obs_net = vec![false; netlist.num_nets()];
        for &net in &observation_nets {
            is_obs_net[net.index()] = true;
        }
        let extractor = graph::ConeExtractor::new(netlist);
        let gate_of_cell = sim.program().gate_index_by_cell();
        let cone = SiteCone {
            site: None,
            gates: Vec::new(),
            program: Vec::new(),
            neighborhood: Vec::new(),
            in_neighborhood: vec![false; netlist.num_nets()],
            obs_nets: Vec::new(),
        };
        let good_buf = sim.blank_values();
        let faulty_buf = sim.blank_values();
        let scratch = sim.scratch();
        Ok(SatProver {
            netlist,
            sim,
            forced,
            forced_mask,
            control_ff_outputs: constraints.control_ff_outputs,
            observation_nets,
            observation_pins,
            is_obs_net,
            extractor,
            gate_of_cell,
            cone,
            conflict_limit,
            clause_limit: DEFAULT_CLAUSE_LIMIT,
            interrupt: None,
            deadline: None,
            last_abort_reason: None,
            corrupt_next_model: false,
            aborted_inputs: HashSet::new(),
            pool: Vec::new(),
            counters: SatCounters::default(),
            good_buf,
            faulty_buf,
            scratch,
        })
    }

    /// Installs (or clears) the cooperative search limits: an interrupt flag
    /// and a wall-clock deadline handed to the CDCL solver of every
    /// subsequent [`prove`](Self::prove) call.
    pub fn set_search_limits(
        &mut self,
        interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
        deadline: Option<std::time::Instant>,
    ) {
        self.interrupt = interrupt;
        self.deadline = deadline;
    }

    /// Overrides the clause-count guard (default
    /// [`DEFAULT_CLAUSE_LIMIT`]). An encoding larger than the limit comes
    /// back [`SatVerdict::Unsupported`].
    pub fn set_clause_limit(&mut self, limit: usize) {
        self.clause_limit = limit;
    }

    /// Why the most recent [`prove`](Self::prove) call came back
    /// [`SatVerdict::Aborted`] or [`SatVerdict::Unsupported`] (`None` after
    /// a concluded verdict).
    pub fn last_abort_reason(&self) -> Option<AbortReason> {
        self.last_abort_reason
    }

    /// Cumulative solves, conflicts, memo hits and pool work since
    /// construction.
    pub fn counters(&self) -> SatCounters {
        self.counters
    }

    /// Failure injection (test harness): corrupt the model extracted by the
    /// *next* `Sat` answer before the simulation replay, proving the replay
    /// check rejects a bogus test instead of trusting it. Until that answer,
    /// [`prove`](Self::prove) skips the test pool so the fault reaches the
    /// solver.
    #[doc(hidden)]
    pub fn corrupt_next_model(&mut self) {
        self.corrupt_next_model = true;
    }

    /// Attempts a definitive verdict for one stuck-at fault: the test pool
    /// first, the solver when no pool test detects the fault (see the
    /// [type docs](Self)).
    pub fn prove(&mut self, fault: StuckAt) -> SatVerdict {
        if !self.corrupt_next_model {
            let pool = std::mem::take(&mut self.pool);
            let hit = self.pool_detects(fault, &pool);
            self.pool = pool;
            if hit {
                self.last_abort_reason = None;
                self.counters.pool_hits += 1;
                return SatVerdict::TestExists;
            }
        }
        let (verdict, test) = self.solve(fault);
        if let Some(test) = test {
            self.pool.push(test);
            self.counters.pool_tests += 1;
        }
        verdict
    }

    /// The net a fault sits on (`None` for a detached output pin).
    fn site_net(&self, fault: StuckAt) -> Option<NetId> {
        match fault.site {
            FaultSite::CellOutput { cell } => self.netlist.output_net(cell),
            FaultSite::CellInput { cell, pin } => Some(self.netlist.input_net(cell, pin)),
        }
    }

    /// Extracts the fanout cone of `site_net` into [`SiteCone`] (kept until
    /// another site is prepared).
    fn prepare_cone(&mut self, site_net: NetId) {
        let cone = &mut self.cone;
        if cone.site == Some(site_net) {
            return;
        }
        for &n in &cone.neighborhood {
            cone.in_neighborhood[n as usize] = false;
        }
        cone.site = Some(site_net);
        cone.gates.clear();
        cone.neighborhood.clear();
        cone.obs_nets.clear();
        let SiteCone {
            gates,
            neighborhood,
            in_neighborhood,
            ..
        } = cone;
        let mut reach = |net: NetId| {
            if !in_neighborhood[net.index()] {
                in_neighborhood[net.index()] = true;
                neighborhood.push(net.index() as u32);
            }
        };
        reach(site_net);
        for &c in self.extractor.fanout_cone_with(self.netlist, &[site_net]) {
            let g = self.gate_of_cell[c.index()];
            if g != NO_INDEX {
                gates.push((g, c));
            }
            let cell = self.netlist.cell(c);
            for &n in cell.inputs() {
                reach(n);
            }
            if let Some(out) = cell.output() {
                reach(out);
            }
        }
        cone.gates.sort_unstable();
        cone.program.clear();
        cone.program.extend(cone.gates.iter().map(|&(g, _)| g));
        for &n in &cone.neighborhood {
            if self.is_obs_net[n as usize] {
                cone.obs_nets.push(NetId::from_index(n as usize));
            }
        }
    }

    /// Whether any of `tests` detects `fault` under the replay criterion:
    /// the test's stored good machine against a faulty machine simulated
    /// over the site's fanout cone.
    pub(crate) fn pool_detects(&mut self, fault: StuckAt, tests: &[PoolTest]) -> bool {
        let Some(site_net) = self.site_net(fault) else {
            return false;
        };
        let stuck = Logic::from_bool(fault.value);
        // A test that leaves the site at `X` or at the stuck value cannot
        // detect: three-valued simulation is monotone, so the faulty machine
        // only refines the good one. The order cannot change the answer;
        // the newest tests, from the nearest faults of the worklist, go
        // first.
        let mut excited = tests
            .iter()
            .rev()
            .filter(|t| {
                let g = t.good[site_net.index()];
                g.is_definite() && g != stuck
            })
            .peekable();
        if excited.peek().is_none() {
            return false;
        }
        if let FaultSite::CellInput { cell, pin } = fault.site {
            if self.observation_pins.contains(&(cell, pin)) {
                // Branch observation: the excited pin is itself observed.
                return true;
            }
        }
        self.prepare_cone(site_net);
        // A combinational output fault overrides its net unless the net is
        // forced; a source output fault is applied inside the clipped
        // propagation.
        let on_gate_output = matches!(fault.site, FaultSite::CellOutput { cell }
            if self.netlist.cell(cell).kind().is_combinational())
            && !self.forced_mask[site_net.index()];
        let program = self.sim.program();
        let faulty = &mut self.faulty_buf;
        for test in excited {
            let good = &test.good;
            for &n in &self.cone.neighborhood {
                faulty[n as usize] = good[n as usize];
            }
            if on_gate_output {
                faulty[site_net.index()] = stuck;
            }
            program.propagate_scalar_clipped(
                self.netlist,
                faulty,
                &self.forced_mask,
                Some(fault),
                &self.cone.program,
            );
            let differs = |net: &NetId| {
                let (g, f) = (good[net.index()], faulty[net.index()]);
                g.is_definite() && f.is_definite() && g != f
            };
            if self.cone.obs_nets.iter().any(differs) {
                return true;
            }
        }
        false
    }

    /// Rebuilds a pool test from a model's assignment (a checkpointed test).
    pub(crate) fn pool_test(&mut self, assignment: Vec<(NetId, bool)>) -> PoolTest {
        self.good_buf.fill(Logic::X);
        for &(net, value) in &assignment {
            self.good_buf[net.index()] = Logic::from_bool(value);
        }
        self.sim
            .propagate_with(&mut self.good_buf, &self.forced, None, &mut self.scratch);
        PoolTest {
            assignment,
            good: self.good_buf.clone(),
        }
    }

    /// Encodes and solves one fault, ignoring the pool: the verdict, plus
    /// the replayed model as a pool test when the solver found one.
    pub(crate) fn solve(&mut self, fault: StuckAt) -> (SatVerdict, Option<PoolTest>) {
        self.last_abort_reason = None;
        let Some(site_net) = self.site_net(fault) else {
            // Detached output pin: nothing downstream can observe it.
            return (SatVerdict::ProvenUntestable, None);
        };
        let stuck = fault.value;
        let mut faulty: HashMap<NetId, Repr> = HashMap::new();
        match fault.site {
            FaultSite::CellOutput { cell } => {
                if !self.netlist.cell(cell).kind().is_combinational() {
                    // Source stem (input / tie / flip-flop output): the stuck
                    // value overrides the site even when the net is forced.
                    faulty.insert(site_net, Repr::Const(stuck));
                } else if self.forced.contains_key(&site_net) {
                    // A forced net is never overwritten by its gate: the
                    // faulty machine equals the good one everywhere.
                    return (SatVerdict::ProvenUntestable, None);
                } else {
                    faulty.insert(site_net, Repr::Const(stuck));
                }
            }
            FaultSite::CellInput { .. } => {}
        }
        self.prepare_cone(site_net);

        let mut cnf = Cnf::new(self.netlist, &self.forced, self.control_ff_outputs);
        let detection = match encode_fault(
            &mut cnf,
            &self.cone.gates,
            fault,
            site_net,
            &self.is_obs_net,
            &self.observation_pins,
            &mut faulty,
        ) {
            Ok(d) => d,
            Err(Unsupported) => {
                self.last_abort_reason = Some(AbortReason::Unsupported);
                return (SatVerdict::Unsupported, None);
            }
        };
        if !detection.trivially_detected {
            if detection.terms.is_empty() {
                // The machines agree at every observation point under every
                // assignment: untestable, no solving needed.
                return (SatVerdict::ProvenUntestable, None);
            }
            cnf.add_clause(&detection.terms);
        }
        if cnf.solver.num_clauses() > self.clause_limit {
            // The cone blew past the clause guard: decline before handing the
            // solver an encoding that could exhaust memory.
            self.last_abort_reason = Some(AbortReason::Unsupported);
            return (SatVerdict::Unsupported, None);
        }
        cnf.solve_input.num_vars = cnf.solver.num_vars();
        cnf.solve_input.conflict_limit = self.conflict_limit;
        if self.aborted_inputs.contains(&cnf.solve_input) {
            self.counters.memo_hits += 1;
            self.last_abort_reason = Some(AbortReason::Conflicts);
            return (SatVerdict::Aborted, None);
        }
        cnf.solver.set_conflict_limit(Some(self.conflict_limit));
        cnf.solver.set_interrupt(self.interrupt.clone());
        cnf.solver.set_deadline(self.deadline);
        let result = cnf
            .solver
            .solve_with_assumptions(&cnf.solve_input.assumptions);
        self.counters.solves += 1;
        self.counters.conflicts += cnf.solver.conflicts();
        match result {
            SolveResult::Unsat => (SatVerdict::ProvenUntestable, None),
            SolveResult::Unknown => {
                self.last_abort_reason = Some(if cnf.solver.was_interrupted() {
                    AbortReason::Timeout
                } else {
                    self.aborted_inputs.insert(cnf.solve_input);
                    AbortReason::Conflicts
                });
                (SatVerdict::Aborted, None)
            }
            SolveResult::Sat => {
                let injected = std::mem::take(&mut self.corrupt_next_model);
                let mut assignment: Vec<(NetId, bool)> = cnf
                    .inputs
                    .iter()
                    .map(|&(net, var)| (net, cnf.solver.model_value(var).unwrap_or(false)))
                    .collect();
                if injected {
                    // Failure injection: flip every model bit so the replay
                    // check faces a maximally wrong test.
                    for (_, value) in &mut assignment {
                        *value = !*value;
                    }
                }
                let detected = replay_detects(
                    &self.sim,
                    &self.forced,
                    &self.observation_nets,
                    &self.observation_pins,
                    fault,
                    site_net,
                    &assignment,
                    &mut self.good_buf,
                    &mut self.faulty_buf,
                    &mut self.scratch,
                );
                if detected {
                    // The replay left the model's good machine in `good_buf`.
                    let test = PoolTest {
                        assignment,
                        good: self.good_buf.clone(),
                    };
                    (SatVerdict::TestExists, Some(test))
                } else {
                    // The simulator refused the model: the encoding and the
                    // engine disagree somewhere. Never trust the model.
                    debug_assert!(injected, "SAT model failed simulation replay for {fault:?}");
                    self.last_abort_reason = Some(AbortReason::Unsupported);
                    (SatVerdict::Aborted, None)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemConfig, ProofOutcome};
    use faultmodel::FaultList;
    use netlist::NetlistBuilder;

    fn prover<'a>(netlist: &'a Netlist, constraints: &ConstraintSet) -> SatProver<'a> {
        SatProver::new(netlist, constraints, u64::MAX).expect("acyclic")
    }

    #[test]
    fn detects_testable_stem_faults_and_replay_confirms() {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::TestExists
        );
        assert_eq!(p.prove(StuckAt::output(cell, true)), SatVerdict::TestExists);
    }

    #[test]
    fn proves_the_classic_static_redundancy() {
        // y = a OR (a AND b): the AND output stuck-at-0 is redundant, the
        // stuck-at-1 is testable (a=0, b arbitrary observes the difference).
        let mut b = NetlistBuilder::new("redundant");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.and2(a, bb);
        let y = b.or2(a, g);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let and_cell = n.driver_of(g).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(and_cell, false)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(
            p.prove(StuckAt::output(and_cell, true)),
            SatVerdict::TestExists
        );
    }

    #[test]
    fn mission_forces_enter_as_assumptions() {
        // en tied to 0 keeps the AND output at 0: stuck-at-0 on the output is
        // untestable, stuck-at-1 is trivially detected (constant difference).
        let mut b = NetlistBuilder::new("tied");
        let a = b.input("a");
        let en = b.input("en");
        let y = b.and2(a, en);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(en, false);
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(p.prove(StuckAt::output(cell, true)), SatVerdict::TestExists);
        // The branch fault on the `a` pin is blocked by the tie either way.
        let site = FaultSite::CellInput { cell, pin: 0 };
        assert_eq!(
            p.prove(StuckAt::new(site, true)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(
            p.prove(StuckAt::new(site, false)),
            SatVerdict::ProvenUntestable
        );
    }

    #[test]
    fn masked_outputs_drop_their_observation_terms() {
        let mut b = NetlistBuilder::new("masked");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let po = b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.mask_output(po);
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::ProvenUntestable
        );
    }

    #[test]
    fn flip_flop_boundary_faults_use_branch_observation() {
        // d feeds a flip-flop: the D-pin branch fault is observed at the
        // flip-flop input pin itself.
        let mut b = NetlistBuilder::new("ff");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.dff(d, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let ff = n.driver_of(q).unwrap();
        let site = FaultSite::CellInput { cell: ff, pin: 0 };
        assert_eq!(p.prove(StuckAt::new(site, false)), SatVerdict::TestExists);
        assert_eq!(p.prove(StuckAt::new(site, true)), SatVerdict::TestExists);
        // The flip-flop output stem is a controllable source: stuck values
        // propagate through the inverter to the primary output.
        assert_eq!(p.prove(StuckAt::output(ff, false)), SatVerdict::TestExists);
    }

    #[test]
    fn uncontrollable_flip_flop_outputs_are_declined() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.dff(d, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.control_ff_outputs = false;
        let mut p = prover(&n, &constraints);
        let inv = n.driver_of(y).unwrap();
        // The inverter's fan-in is the flip-flop output, which the
        // environment says is not controllable: decline, don't guess.
        assert_eq!(
            p.prove(StuckAt::output(inv, false)),
            SatVerdict::Unsupported
        );
    }

    #[test]
    fn conflict_limit_exhaustion_reports_aborted() {
        // The redundancy proof needs at least one decision-level conflict, so
        // a zero conflict budget must abort — and a fresh prover with budget
        // finishes the same proof.
        let mut b = NetlistBuilder::new("limited");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.and2(a, bb);
        let y = b.or2(a, g);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let and_cell = n.driver_of(g).unwrap();
        let fault = StuckAt::output(and_cell, false);
        let mut limited = SatProver::new(&n, &constraints, 0).expect("acyclic");
        assert_eq!(limited.prove(fault), SatVerdict::Aborted);
        let mut free = prover(&n, &constraints);
        assert_eq!(free.prove(fault), SatVerdict::ProvenUntestable);
    }

    /// Two identical bit slices of the classic redundancy `y = a OR (a AND
    /// b)`; returns each slice's AND cell.
    fn twin_slices() -> (Netlist, [CellId; 2]) {
        let mut b = NetlistBuilder::new("twins");
        let mut ands = Vec::new();
        for i in 0..2 {
            let a = b.input(format!("a{i}"));
            let bb = b.input(format!("b{i}"));
            let g = b.and2(a, bb);
            let y = b.or2(a, g);
            b.output(format!("y{i}"), y);
            ands.push(g);
        }
        let n = b.finish();
        let cells = [n.driver_of(ands[0]).unwrap(), n.driver_of(ands[1]).unwrap()];
        (n, cells)
    }

    #[test]
    fn a_twin_of_a_budget_exhausted_instance_is_not_solved_again() {
        let (n, ands) = twin_slices();
        let constraints = ConstraintSet::full_scan();
        // A zero conflict budget cannot finish the redundancy proof.
        let mut p = SatProver::new(&n, &constraints, 0).expect("acyclic");
        for cell in ands {
            assert_eq!(p.prove(StuckAt::output(cell, false)), SatVerdict::Aborted);
            assert_eq!(p.last_abort_reason(), Some(AbortReason::Conflicts));
        }
        assert_eq!(
            p.counters(),
            SatCounters {
                solves: 1,
                conflicts: 1,
                memo_hits: 1,
                pool_hits: 0,
                pool_tests: 0
            }
        );
        // Concluded verdicts are never memoised: each twin is solved.
        let mut free = prover(&n, &constraints);
        for cell in ands {
            assert_eq!(
                free.prove(StuckAt::output(cell, false)),
                SatVerdict::ProvenUntestable
            );
        }
        assert_eq!(free.counters().solves, 2);
        assert_eq!(free.counters().memo_hits, 0);
    }

    #[test]
    fn a_deadline_abort_is_not_memoised() {
        let (n, ands) = twin_slices();
        let fault = StuckAt::output(ands[0], false);
        let mut p = prover(&n, &ConstraintSet::full_scan());
        p.set_search_limits(None, Some(std::time::Instant::now()));
        assert_eq!(p.prove(fault), SatVerdict::Aborted);
        assert_eq!(p.last_abort_reason(), Some(AbortReason::Timeout));
        p.set_search_limits(None, None);
        assert_eq!(p.prove(fault), SatVerdict::ProvenUntestable);
        assert_eq!(p.counters().solves, 2);
        assert_eq!(p.counters().memo_hits, 0);
    }

    #[test]
    fn agrees_with_podem_on_a_mux_design_with_constraints() {
        // The doc-example degenerate mux plus a live second channel, under a
        // mission tie: every fault of the universe must agree with PODEM.
        let mut b = NetlistBuilder::new("mux");
        let sel = b.input("sel");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let m = b.mux2(d0, d1, sel);
        let inv = b.not(m);
        b.output("m", m);
        b.output("inv", inv);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(sel, false);
        let mut sat_prover = prover(&n, &constraints);
        let mut podem = Podem::new(
            &n,
            &constraints,
            PodemConfig {
                backtrack_limit: 1_000_000,
                ..PodemConfig::default()
            },
        )
        .expect("acyclic");
        let faults = FaultList::full_universe(&n);
        for &fault in faults.faults() {
            let expected = podem.prove(fault);
            let got = sat_prover.prove(fault);
            let want = match expected {
                ProofOutcome::TestExists => SatVerdict::TestExists,
                ProofOutcome::ProvenUntestable => SatVerdict::ProvenUntestable,
                ProofOutcome::Aborted => unreachable!("unbounded PODEM aborted"),
            };
            assert_eq!(got, want, "disagreement on {fault:?}");
        }
    }
}
