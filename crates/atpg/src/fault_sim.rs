//! Differential parallel-fault stuck-at fault simulation on the compiled
//! engine.
//!
//! The simulator packs up to 63 faulty machines plus the good machine into
//! the bits of a `u64` per net and simulates them in lockstep over a sequence
//! of input vectors (one vector per clock cycle). A fault is *detected* when
//! the value observed at any primary output differs from the good machine in
//! the corresponding bit position.
//!
//! Two-valued logic is used: all flip-flops start at 0 (a deterministic reset
//! state) and every input vector must assign a definite value to every
//! primary input it mentions (unmentioned inputs default to 0). This is the
//! standard setting for evaluating SBST program coverage, where the processor
//! is reset before the test program runs.
//!
//! The simulation is *differential*, after PROOFS (Niermann, Cheng & Patel,
//! IEEE TCAD 1992). The good machine runs once per vector batch over the
//! [`CompiledProgram`] into a bit trace of every net in every cycle. A chunk
//! of faulty machines then evaluates, per cycle, only the gates where one of
//! them can differ from that trace — gates with a diverged input net and
//! gates carrying an injected fault — in ascending (topological) gate order
//! off a bitmap worklist; every other net is read as the broadcast good bit.
//! Flip-flops capture only where an input diverged or a fault sits, and a
//! state word is kept only where it differs from the good next state.
//! Observation checks only diverged nets and faulty output pins. On the SBST
//! suites about 3% of a full sweep's gate evaluations have a diverged input,
//! so a chunk-cycle costs a small fraction of the gate program.
//!
//! Chunks of still-undetected faults are fanned out across scoped worker
//! threads, each with its own scratch, and faults detected by one batch are
//! dropped before the next.

use crate::compiled::{good_word, CompiledProgram, Fanout, GoodTrace, PackedInjection};
use faultmodel::{FaultClass, FaultList, StuckAt};
use netlist::{graph, CellId, Netlist};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One input vector: values applied to primary-input nets for one cycle.
pub type InputVector = HashMap<netlist::NetId, bool>;

/// Result of a fault-simulation campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSimOutcome {
    /// Number of faults newly marked detected.
    pub detected: usize,
    /// Number of faults simulated.
    pub simulated: usize,
    /// Gate evaluations performed by the faulty-machine chunks (the
    /// good-machine trace is not counted).
    pub gate_evals: u64,
    /// Chunk-cycles simulated: one per 63-fault chunk per cycle it ran,
    /// after batch dropping and per-chunk early exit.
    pub chunk_cycles: u64,
}

/// Parallel-fault simulator over a fixed netlist.
#[derive(Debug)]
pub struct FaultSim<'a> {
    netlist: &'a Netlist,
    program: CompiledProgram,
    fanout: Fanout,
    outputs: Vec<CellId>,
}

impl<'a> FaultSim<'a> {
    /// Builds the simulator: compiles the netlist into the flat program and
    /// builds its net→reader fanout tables.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational logic contains a cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Self, graph::CombinationalLoop> {
        let program = CompiledProgram::compile(netlist)?;
        Ok(FaultSim {
            netlist,
            fanout: program.fanout(),
            program,
            outputs: netlist.primary_outputs(),
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Simulates `vectors` (one per cycle, starting from the all-zero reset
    /// state) against every fault in `faults` and returns, for each fault,
    /// whether it was detected at any primary output.
    pub fn detect(&self, faults: &[StuckAt], vectors: &[InputVector]) -> Vec<bool> {
        self.detect_at(faults, vectors, &self.outputs)
    }

    /// Like [`detect`](Self::detect), but only the given `Output` pseudo-cells
    /// count as observation points — the way an on-line functional test only
    /// observes the system bus, not the scan-out or debug-observation ports.
    pub fn detect_at(
        &self,
        faults: &[StuckAt],
        vectors: &[InputVector],
        observed_outputs: &[CellId],
    ) -> Vec<bool> {
        self.detect_batches(faults, &[vectors], observed_outputs)
    }

    /// Grades `faults` against several vector batches (e.g. one SBST program
    /// per batch, each restarting from the reset state). Faults detected by
    /// an earlier batch are dropped from the later batches' simulations, so a
    /// mature suite grades far fewer fault-machines than `batches × faults`.
    pub fn detect_batches(
        &self,
        faults: &[StuckAt],
        batches: &[&[InputVector]],
        observed_outputs: &[CellId],
    ) -> Vec<bool> {
        self.grade_batches(faults, batches, observed_outputs).0
    }

    /// [`detect_batches`](Self::detect_batches) plus an outcome that counts
    /// the detections and the simulation work (gate evaluations and
    /// chunk-cycles) they took.
    pub fn grade_batches(
        &self,
        faults: &[StuckAt],
        batches: &[&[InputVector]],
        observed_outputs: &[CellId],
    ) -> (Vec<bool>, FaultSimOutcome) {
        let mut detected = vec![false; faults.len()];
        let mut outcome = FaultSimOutcome {
            simulated: faults.len(),
            ..FaultSimOutcome::default()
        };
        let observed = Observed::new(self.netlist, observed_outputs);
        for &batch in batches {
            let remaining: Vec<u32> = (0..faults.len() as u32)
                .filter(|&i| !detected[i as usize])
                .collect();
            if remaining.is_empty() {
                break;
            }
            let trace = self.program.good_trace(&self.program.pack_vectors(batch));
            let masks = self.simulate_chunks(&remaining, faults, &trace, &observed, &mut outcome);
            for (chunk, mask) in remaining.chunks(63).zip(masks) {
                for (bit, &fault_index) in chunk.iter().enumerate() {
                    if mask & (1u64 << (bit + 1)) != 0 {
                        detected[fault_index as usize] = true;
                        outcome.detected += 1;
                    }
                }
            }
        }
        (detected, outcome)
    }

    /// Runs [`detect`](Self::detect) over every still-undetected fault in the
    /// list and marks the detected ones as [`FaultClass::Detected`].
    pub fn run_and_classify(
        &self,
        faults: &mut FaultList,
        vectors: &[InputVector],
    ) -> FaultSimOutcome {
        self.run_batches_and_classify(faults, &[vectors], &self.outputs)
    }

    /// Batch-aware [`run_and_classify`](Self::run_and_classify): grades the
    /// still-undetected faults against every batch in turn (dropping freshly
    /// detected faults between batches) while observing only the given
    /// outputs.
    pub fn run_batches_and_classify(
        &self,
        faults: &mut FaultList,
        batches: &[&[InputVector]],
        observed_outputs: &[CellId],
    ) -> FaultSimOutcome {
        let (indices, targets): (Vec<usize>, Vec<StuckAt>) = faults.undetected().unzip();
        let (detected, outcome) = self.grade_batches(&targets, batches, observed_outputs);
        for (index, hit) in indices.into_iter().zip(detected) {
            if hit {
                faults.classify_at(index, FaultClass::Detected);
            }
        }
        outcome
    }

    /// Simulates the good machine only and returns the per-cycle values of
    /// the primary outputs (useful for building expected responses).
    pub fn good_responses(&self, vectors: &[InputVector]) -> Vec<Vec<bool>> {
        let packed = self.program.pack_vectors(vectors);
        let mut scratch = self.program.packed_scratch();
        (0..packed.cycles())
            .map(|cycle| {
                self.program.run_cycle(&packed, cycle, &mut scratch);
                self.outputs
                    .iter()
                    .map(|&po| self.program.observe_output(&scratch, po) & 1 == 1)
                    .collect()
            })
            .collect()
    }

    /// Simulates every 63-fault chunk of `remaining` (indices into `faults`)
    /// against one batch's good trace and returns one detection mask per
    /// chunk, fanning the chunks out across scoped worker threads when the
    /// machine and the workload allow. The work counters land in `outcome`.
    fn simulate_chunks(
        &self,
        remaining: &[u32],
        faults: &[StuckAt],
        trace: &GoodTrace,
        observed: &Observed,
        outcome: &mut FaultSimOutcome,
    ) -> Vec<u64> {
        let chunks: Vec<&[u32]> = remaining.chunks(63).collect();
        // Spawning workers costs thread setup plus one scratch + injection
        // table each; only fan out when a full sweep of the campaign would
        // be large enough to amortise that.
        const MIN_PARALLEL_GATE_EVALS: usize = 4_000_000;
        let work = chunks.len() * trace.cycles() * self.program.num_gates().max(1);
        let workers = if work < MIN_PARALLEL_GATE_EVALS {
            1
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(chunks.len())
        };
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut scratch = ChunkScratch::new(&self.program);
            let mut injection = self.program.packed_injection();
            let mut masks = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&chunk) = chunks.get(index) else {
                    break;
                };
                injection.load(
                    &self.program,
                    self.netlist,
                    chunk.iter().map(|&i| faults[i as usize]),
                );
                masks.push((index, scratch.simulate(self, trace, observed, &injection)));
            }
            (masks, scratch)
        };
        let results = if workers <= 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fault-simulation worker panicked"))
                    .collect()
            })
        };
        let mut masks = vec![0u64; chunks.len()];
        for (worker_masks, scratch) in results {
            for (index, mask) in worker_masks {
                masks[index] = mask;
            }
            outcome.gate_evals += scratch.gate_evals;
            outcome.chunk_cycles += scratch.chunk_cycles;
        }
        masks
    }
}

/// The observation points of one grading call, as dense flags: the nets the
/// observed outputs read, and the observed `Output` cells themselves.
struct Observed {
    nets: Vec<bool>,
    cells: Vec<bool>,
}

impl Observed {
    fn new(netlist: &Netlist, outputs: &[CellId]) -> Self {
        let mut observed = Observed {
            nets: vec![false; netlist.num_nets()],
            cells: vec![false; netlist.num_cells()],
        };
        for &po in outputs {
            observed.cells[po.index()] = true;
            if let Some(&net) = netlist.cell(po).inputs().first() {
                observed.nets[net.index()] = true;
            }
        }
        observed
    }
}

/// Per-worker state of the differential chunk simulation, reused across
/// chunks. Net and flop words are meaningful only where flagged diverged;
/// everywhere else the good trace is authoritative.
struct ChunkScratch {
    /// Packed faulty-machine values of the diverged nets.
    values: Vec<u64>,
    /// Per net: does some faulty machine differ from the good one this cycle?
    diverged: Vec<bool>,
    /// The nets flagged in `diverged`.
    diverged_nets: Vec<u32>,
    /// Bitmap worklist over compiled gate indices.
    worklist: Vec<u64>,
    /// Lowest and highest worklist word that may hold a bit (`lo > hi` when
    /// the worklist is empty).
    lo: usize,
    hi: usize,
    /// Per flop: the captured state word, meaningful for `diverged_flops`.
    state: Vec<u64>,
    /// Flops whose state differs from the good machine's.
    diverged_flops: Vec<u32>,
    /// `diverged_flops` of the cycle being captured.
    next_flops: Vec<u32>,
    /// The flops to capture this cycle, and their membership flags.
    captures: Vec<u32>,
    queued: Vec<bool>,
    /// The chunk's machines not yet detected. Machines are independent bit
    /// lanes, so silencing a detected machine's divergence (fault dropping
    /// within the chunk) cannot change another machine's outcome.
    live: u64,
    gate_evals: u64,
    chunk_cycles: u64,
}

impl ChunkScratch {
    fn new(program: &CompiledProgram) -> Self {
        ChunkScratch {
            values: vec![0; program.num_nets()],
            diverged: vec![false; program.num_nets()],
            diverged_nets: Vec::new(),
            worklist: vec![0; program.num_gates().div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
            state: vec![0; program.num_flops()],
            diverged_flops: Vec::new(),
            next_flops: Vec::new(),
            captures: Vec::new(),
            queued: vec![false; program.num_flops()],
            live: 0,
            gate_evals: 0,
            chunk_cycles: 0,
        }
    }

    /// The packed value of net `n` this cycle; `good` is the trace row.
    /// Branch-free: whether a net diverged is data-dependent and
    /// unpredictable, and `values` holds a stale word where it did not.
    #[inline(always)]
    fn read(&self, n: usize, good: &[u64]) -> u64 {
        let own = 0u64.wrapping_sub(u64::from(self.diverged[n]));
        (self.values[n] & own) | (good_word(good, n) & !own)
    }

    /// Records `value` for net `n` if a live machine differs from the good
    /// value there; detected machines are read as good from then on.
    #[inline]
    fn set(&mut self, n: usize, value: u64, good: &[u64]) -> bool {
        let good = good_word(good, n);
        let value = good ^ ((value ^ good) & self.live);
        if value == good {
            return false;
        }
        if !self.diverged[n] {
            self.diverged[n] = true;
            self.diverged_nets.push(n as u32);
        }
        self.values[n] = value;
        true
    }

    #[inline]
    fn queue_gate(&mut self, g: u32) {
        let w = g as usize / 64;
        self.worklist[w] |= 1u64 << (g % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    #[inline]
    fn queue_capture(&mut self, fi: u32) {
        if !self.queued[fi as usize] {
            self.queued[fi as usize] = true;
            self.captures.push(fi);
        }
    }

    /// Simulates the faulty machines of `injection` over every cycle of
    /// `trace` and returns the mask of machines detected at an observed
    /// output (stopping early once every machine is detected).
    fn simulate(
        &mut self,
        sim: &FaultSim<'_>,
        trace: &GoodTrace,
        observed: &Observed,
        injection: &PackedInjection,
    ) -> u64 {
        let program = &sim.program;
        let fanout = &sim.fanout;
        let fault_bits = injection.fault_bits();
        let mut detected = 0u64;
        self.live = fault_bits;
        self.diverged_flops.clear();
        for cycle in 0..trace.cycles() {
            self.chunk_cycles += 1;
            let good = trace.cycle(cycle);
            for &n in &self.diverged_nets {
                self.diverged[n as usize] = false;
            }
            self.diverged_nets.clear();

            // Sources: flip-flops holding a diverged state, then the nets
            // of faulty primary inputs, ties and flip-flop outputs.
            for k in 0..self.diverged_flops.len() {
                let fi = self.diverged_flops[k] as usize;
                self.set(program.flop_q(fi) as usize, self.state[fi], good);
            }
            for &n in injection.sources() {
                let n = n as usize;
                let value = injection.apply_net(n, self.read(n, good));
                self.set(n, value, good);
            }
            for k in 0..self.diverged_nets.len() {
                for &g in fanout.gates_of(self.diverged_nets[k] as usize) {
                    self.queue_gate(g);
                }
            }
            for &g in injection.gates() {
                self.queue_gate(g);
            }

            // Gates in ascending (topological) order: a gate is queued only
            // by its sources or by lower-numbered gates, so every queueing
            // happens before the sweep reaches it.
            let mut w = self.lo;
            while w <= self.hi {
                let bits = self.worklist[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                self.worklist[w] = bits & (bits - 1);
                let g = w * 64 + bits.trailing_zeros() as usize;
                self.gate_evals += 1;
                let out = program.gate_output(g) as usize;
                let value = if injection.is_faulty_gate(g) {
                    let value = program.eval_packed(g, |slot| {
                        injection.apply_pin(slot, self.read(program.pin_net(slot), good))
                    });
                    injection.apply_net(out, value)
                } else {
                    program.eval_packed(g, |slot| self.read(program.pin_net(slot), good))
                };
                if self.set(out, value, good) {
                    for &reader in fanout.gates_of(out) {
                        self.queue_gate(reader);
                    }
                }
            }
            self.lo = usize::MAX;
            self.hi = 0;

            // Observation: a machine differs at an output only through a
            // diverged net or a fault on the output's own pin (each machine
            // carries one fault, so the two never mix within a bit).
            for &n in &self.diverged_nets {
                if observed.nets[n as usize] {
                    detected |= self.values[n as usize] ^ good_word(good, n as usize);
                }
            }
            for &(po, slot) in injection.outputs() {
                if observed.cells[po.index()] {
                    let n = program.pin_net(slot as usize);
                    detected |=
                        injection.apply_pin(slot as usize, self.read(n, good)) ^ good_word(good, n);
                }
            }
            detected &= fault_bits;
            self.live = fault_bits & !detected;
            if self.live == 0 || cycle + 1 == trace.cycles() {
                break;
            }

            // Capture: only flops with a diverged input or a fault can end
            // up in a state other than the good next state.
            for k in 0..self.diverged_nets.len() {
                for &fi in fanout.flops_of(self.diverged_nets[k] as usize) {
                    self.queue_capture(fi);
                }
            }
            for &fi in injection.flops() {
                self.queue_capture(fi);
            }
            let good_next = trace.cycle(cycle + 1);
            self.next_flops.clear();
            for k in 0..self.captures.len() {
                let fi = self.captures[k] as usize;
                self.queued[fi] = false;
                let data = program.capture_flop(fi, |slot| {
                    injection.apply_pin(slot, self.read(program.pin_net(slot), good))
                });
                let q = program.flop_q(fi) as usize;
                let good_q = good_word(good_next, q);
                let data = good_q ^ ((injection.apply_net(q, data) ^ good_q) & self.live);
                if data != good_q {
                    self.state[fi] = data;
                    self.next_flops.push(fi as u32);
                }
            }
            self.captures.clear();
            std::mem::swap(&mut self.diverged_flops, &mut self.next_flops);
        }
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellKind, NetId, NetlistBuilder};

    fn vector(pairs: &[(NetId, bool)]) -> InputVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn detects_combinational_faults_with_exhaustive_patterns() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.xor2(y, a);
        b.output("z", z);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4)
            .map(|p| vector(&[(a, p & 1 == 1), (c, p & 2 == 2)]))
            .collect();
        let mut faults = FaultList::full_universe(&n);
        let outcome = sim.run_and_classify(&mut faults, &vectors);
        assert_eq!(outcome.simulated, faults.len());
        // With exhaustive patterns every testable fault of this tiny circuit
        // is found; coverage should be high (>70 %).
        assert!(outcome.detected * 10 >= faults.len() * 7, "{outcome:?}");
        // And the AND output stuck-at-0 must definitely be among them.
        let and = n.driver_of(y).unwrap();
        assert_eq!(
            faults.class_of(StuckAt::output(and, false)),
            Some(FaultClass::Detected)
        );
    }

    #[test]
    fn undetectable_fault_stays_undetected() {
        // y = a OR (a AND b): the AND output stuck-at-0 is undetectable
        // (redundant logic).
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4)
            .map(|p| vector(&[(a, p & 1 == 1), (c, p & 2 == 2)]))
            .collect();
        let detected = sim.detect(&[StuckAt::output(and, false)], &vectors);
        assert_eq!(detected, vec![false]);
    }

    #[test]
    fn sequential_fault_detection_through_state() {
        // A 1-bit toggle register: q' = q XOR en. A stuck-at on the XOR is
        // only observable after a clock cycle.
        let mut b = NetlistBuilder::new("tog");
        let en = b.input("en");
        let ck = b.input("ck");
        let d = b.netlist_mut().add_net("d");
        let q = b.dff(d, ck);
        let x = b.xor2(q, en);
        b.netlist_mut().add_cell(CellKind::Buf, "fb", &[x], Some(d));
        b.output("q", q);
        let n = b.finish();
        let xor = n.driver_of(x).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4).map(|_| vector(&[(en, true), (ck, true)])).collect();
        let faults = [StuckAt::output(xor, false), StuckAt::input(xor, 1, false)];
        let detected = sim.detect(&faults, &vectors);
        assert_eq!(detected, vec![true, true]);
    }

    /// `r' = load ? a : r` (a hold register closed through its own state)
    /// observed as `y = r AND en`.
    fn hold_register() -> (Netlist, [NetId; 4]) {
        let mut b = NetlistBuilder::new("hold");
        let a = b.input("a");
        let load = b.input("load");
        let en = b.input("en");
        let ck = b.input("ck");
        let d = b.netlist_mut().add_net("d");
        let r = b.dff(d, ck);
        let next = b.mux2(r, a, load);
        b.netlist_mut()
            .add_cell(CellKind::Buf, "fb", &[next], Some(d));
        let y = b.and2(r, en);
        b.output("y", y);
        (b.finish(), [a, load, en, ck])
    }

    #[test]
    fn held_divergence_reemerges_from_flop_state() {
        let (n, [a, load, en, ck]) = hold_register();
        let fault = StuckAt::output(n.driver_of(a).unwrap(), false);
        let step = |a_v, load_v, en_v| vector(&[(a, a_v), (load, load_v), (en, en_v), (ck, true)]);
        // Cycle 0 captures the faulty `a`; cycles 1-2 hold it while `a`
        // agrees with the stuck value and `en` masks `y`, so every net but
        // the held state is back at its good value; cycle 3 re-emerges it.
        let vectors = vec![
            step(true, true, false),
            step(false, false, false),
            step(false, false, false),
            step(false, false, true),
        ];
        let sim = FaultSim::new(&n).unwrap();
        assert_eq!(sim.detect(&[fault], &vectors[..3]), vec![false]);
        assert_eq!(sim.detect(&[fault], &vectors), vec![true]);
        // Reloading a value both machines agree on re-converges the state
        // itself: nothing is left to re-emerge.
        let reloaded = vec![
            step(true, true, false),
            step(false, true, false),
            step(false, false, true),
        ];
        assert_eq!(sim.detect(&[fault], &reloaded), vec![false]);
    }

    #[test]
    fn outcome_counts_the_simulation_work() {
        let (n, [a, load, en, ck]) = hold_register();
        let sim = FaultSim::new(&n).unwrap();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let vectors: Vec<InputVector> = (0..6)
            .map(|p| {
                vector(&[
                    (a, p % 2 == 0),
                    (load, p % 3 == 0),
                    (en, p >= 3),
                    (ck, true),
                ])
            })
            .collect();
        let (detected, outcome) = sim.grade_batches(&faults, &[&vectors], &n.primary_outputs());
        assert_eq!(outcome.simulated, faults.len());
        assert_eq!(outcome.detected, detected.iter().filter(|&&d| d).count());
        // One chunk, cut short only by detecting every machine.
        assert!(outcome.chunk_cycles >= 1 && outcome.chunk_cycles <= vectors.len() as u64);
        // Gates are evaluated only where a machine diverges or a fault sits.
        let gates = sim.program.num_gates() as u64;
        assert!(outcome.gate_evals > 0 && outcome.gate_evals <= gates * outcome.chunk_cycles);
    }

    #[test]
    fn more_than_63_faults_use_multiple_chunks() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.input_bus("a", 8);
        let c = b.input_bus("b", 8);
        let x = b.xor_word(&a, &c);
        b.output_bus("y", &x);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let mut faults = FaultList::full_universe(&n);
        assert!(faults.len() > 63);
        let mut rng_patterns = Vec::new();
        for p in 0..16u64 {
            let mut v = InputVector::new();
            for (i, &net) in a.iter().enumerate() {
                v.insert(net, (p >> i) & 1 == 1);
            }
            for (i, &net) in c.iter().enumerate() {
                v.insert(net, (p.wrapping_mul(7) >> i) & 1 == 1);
            }
            rng_patterns.push(v);
        }
        let outcome = sim.run_and_classify(&mut faults, &rng_patterns);
        // XOR trees are highly testable; expect most faults detected.
        assert!(outcome.detected > faults.len() / 2);
    }

    #[test]
    fn good_responses_match_expected_logic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![
            vector(&[(a, true), (c, true)]),
            vector(&[(a, true), (c, false)]),
        ];
        let responses = sim.good_responses(&vectors);
        assert_eq!(responses, vec![vec![true], vec![false]]);
    }

    #[test]
    fn detect_at_restricts_observation_points() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y1 = b.not(a);
        let y2 = b.buf(a);
        b.output("bus", y1);
        b.output("debug_only", y2);
        let n = b.finish();
        let bus = n
            .primary_outputs()
            .into_iter()
            .find(|&po| n.cell(po).name() == "bus")
            .unwrap();
        let buf = n.driver_of(y2).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![vector(&[(a, true)]), vector(&[(a, false)])];
        let fault = StuckAt::output(buf, false);
        // Observable at the debug output…
        assert_eq!(sim.detect(&[fault], &vectors), vec![true]);
        // …but not when only the bus output counts.
        assert_eq!(sim.detect_at(&[fault], &vectors, &[bus]), vec![false]);
    }

    #[test]
    fn po_pin_fault_is_detected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish();
        let po = n.primary_outputs()[0];
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![vector(&[(a, true)]), vector(&[(a, false)])];
        let detected = sim.detect(
            &[StuckAt::input(po, 0, false), StuckAt::input(po, 0, true)],
            &vectors,
        );
        assert_eq!(detected, vec![true, true]);
    }

    #[test]
    fn batches_drop_detected_faults_and_agree_with_single_passes() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.or2(a, c);
        b.output("y", y);
        b.output("z", z);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let batch1 = vec![vector(&[(a, true), (c, true)])];
        let batch2 = vec![
            vector(&[(a, false), (c, true)]),
            vector(&[(a, true), (c, false)]),
        ];
        let combined = sim.detect_batches(&faults, &[&batch1, &batch2], &n.primary_outputs());
        let first = sim.detect(&faults, &batch1);
        let second = sim.detect(&faults, &batch2);
        for i in 0..faults.len() {
            assert_eq!(combined[i], first[i] || second[i], "fault {:?}", faults[i]);
        }
    }

    #[test]
    fn run_batches_and_classify_counts_each_fault_once() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let mut faults = FaultList::full_universe(&n);
        let batch1 = vec![vector(&[(a, true)])];
        let batch2 = vec![vector(&[(a, false)])];
        let outcome =
            sim.run_batches_and_classify(&mut faults, &[&batch1, &batch2], &n.primary_outputs());
        assert_eq!(outcome.simulated, faults.len());
        assert_eq!(outcome.detected, faults.counts().detected);
        // Exhaustive single-input patterns detect everything on a BUF/NOT path.
        assert_eq!(outcome.detected, faults.len());
    }
}
