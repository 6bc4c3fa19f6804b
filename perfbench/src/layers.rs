//! Traced calls into the screening, fault-simulation and frontend layers,
//! and the per-layer metric set every traced run reports.

use crate::replay::{layer_metrics, Replay};
use crate::trace::Tracer;
use crate::Metrics;
use atpg::{FaultSim, InputVector};
use faultmodel::FaultList;
use online_untestable::{Design, FlowConfig, IdentificationFlow, IdentificationReport};

/// The screening rules (baseline plus the §3 rules), from the report's
/// stage totals.
#[derive(Copy, Clone, Debug, Default)]
pub struct Rules {
    /// Summed stage wall-clock, seconds.
    pub busy_s: f64,
    /// Faults the rules classified.
    pub classified: usize,
}

/// The SBST fault-simulation stage, split into its three calls.
#[derive(Copy, Clone, Debug, Default)]
pub struct FaultSimSplit {
    /// `Design::stimuli`, seconds.
    pub stimuli_s: f64,
    /// `FaultSim::new`, seconds.
    pub compile_s: f64,
    /// `run_batches_and_classify`, seconds.
    pub simulate_s: f64,
    /// Faults handed to the simulator.
    pub faults_in: usize,
    /// Faults it detected.
    pub detected: usize,
    /// Stimulus cycles over all batches.
    pub cycles: usize,
}

impl FaultSimSplit {
    fn busy_s(&self) -> f64 {
        self.stimuli_s + self.compile_s + self.simulate_s
    }
}

/// Netlist loading through the frontends.
#[derive(Copy, Clone, Debug, Default)]
pub struct Frontend {
    /// `load_netlist` wall-clock, seconds.
    pub parse_s: f64,
    /// Cells built.
    pub cells: usize,
}

/// A stage's wall-clock from the report's stage totals (`0` when the stage
/// did not run), seconds.
pub fn stage_s(report: &IdentificationReport, name: &str) -> f64 {
    report.phase(name).map_or(0.0, |p| p.duration.as_secs_f64())
}

/// Runs the screening rules only (`config` with simulation and proof off)
/// and returns the classified fault list.
pub fn traced_rules<D: Design>(
    design: &D,
    config: &FlowConfig,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<(FaultList, Rules), String> {
    let span = tracer.open("rules", Some(parent));
    let flow = IdentificationFlow::new(FlowConfig {
        run_sbst_simulation: false,
        run_atpg_proof: false,
        ..config.clone()
    });
    let (report, faults) = flow
        .run_with_faults(design)
        .map_err(|e| format!("screening rules: {e}"))?;
    tracer.close(span);
    let stages: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            format!(
                "{}={}/{:.6}s",
                p.name,
                p.newly_classified,
                p.duration.as_secs_f64()
            )
        })
        .collect();
    tracer.annotate(span, stages.join(" "));
    Ok((
        faults,
        Rules {
            busy_s: report.phases.iter().map(|p| p.duration.as_secs_f64()).sum(),
            classified: report.phases.iter().map(|p| p.newly_classified).sum(),
        },
    ))
}

/// The SBST simulation stage, call by call: stimulus generation, simulator
/// compilation, and batch simulation over the still-undetected faults.
pub fn traced_fault_sim<D: Design>(
    design: &D,
    faults: &mut FaultList,
    max_cycles: usize,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<FaultSimSplit, String> {
    let span = tracer.open("fault_sim", Some(parent));
    let call = tracer.open("fault_sim.stimuli", Some(span));
    let stimuli = design
        .stimuli(max_cycles)
        .ok_or("the design provides no stimuli")?;
    let stimuli_s = tracer.close(call);
    let call = tracer.open("fault_sim.compile", Some(span));
    let sim = FaultSim::new(design.netlist()).map_err(|e| format!("fault simulator: {e}"))?;
    let compile_s = tracer.close(call);
    let batches: Vec<&[InputVector]> = stimuli.batches.iter().map(Vec::as_slice).collect();
    let faults_in = faults.counts().undetected;
    let call = tracer.open("fault_sim.simulate", Some(span));
    let outcome = sim.run_batches_and_classify(faults, &batches, &stimuli.observed_outputs);
    let simulate_s = tracer.close(call);
    tracer.close(span);
    Ok(FaultSimSplit {
        stimuli_s,
        compile_s,
        simulate_s,
        faults_in,
        detected: outcome.detected,
        cycles: batches.iter().map(|b| b.len()).sum(),
    })
}

/// Everything a traced run measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Untraced campaign wall-clock measured in the same run, seconds.
    pub campaign_s: f64,
    /// Traced campaign wall-clock, seconds.
    pub traced_s: f64,
    /// Screening rules.
    pub rules: Rules,
    /// SBST simulation (absent without stimuli).
    pub fault_sim: FaultSimSplit,
    /// Frontend parsing (absent for generated designs).
    pub frontend: Frontend,
    /// Proof worklist replay (empty without a proof stage).
    pub replay: Replay,
    /// The proof stage's wall-clock in the untraced campaign, seconds.
    pub proof_stage_s: f64,
}

impl Layers {
    /// Pushes every per-layer metric, zero where the layer did no work.
    pub fn push(&self, metrics: &mut Metrics) {
        metrics.push("rules.busy_s", self.rules.busy_s, "s");
        metrics.push("rules.classified", self.rules.classified as f64, "count");

        let fs = &self.fault_sim;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        metrics.push("fault_sim.busy_s", fs.busy_s(), "s");
        metrics.push("fault_sim.stimuli_s", fs.stimuli_s, "s");
        metrics.push("fault_sim.compile_s", fs.compile_s, "s");
        metrics.push("fault_sim.simulate_s", fs.simulate_s, "s");
        metrics.push("fault_sim.faults_in", fs.faults_in as f64, "count");
        metrics.push("fault_sim.detected", fs.detected as f64, "count");
        metrics.push(
            "fault_sim.detect_ratio",
            ratio(fs.detected as f64, fs.faults_in as f64),
            "ratio",
        );
        metrics.push(
            "fault_sim.fault_cycles_per_s",
            ratio(fs.faults_in as f64 * fs.cycles as f64, fs.simulate_s),
            "1/s",
        );

        layer_metrics(&self.replay, self.proof_stage_s, metrics);

        let fe = &self.frontend;
        metrics.push("frontend.parse_s", fe.parse_s, "s");
        metrics.push(
            "frontend.cells_per_s",
            ratio(fe.cells as f64, fe.parse_s),
            "1/s",
        );

        let podem_s: f64 = self.replay.attempts.iter().map(|a| a.podem_s).sum();
        let sat_s: f64 = self
            .replay
            .attempts
            .iter()
            .filter_map(|a| a.sat.map(|(s, _)| s))
            .sum();
        let covered = self.rules.busy_s + fs.busy_s() + podem_s + sat_s + fe.parse_s;
        metrics.push("trace.campaign_s", self.campaign_s, "s");
        metrics.push("trace.traced_s", self.traced_s, "s");
        metrics.push(
            "trace.unaccounted_frac",
            ratio(self.campaign_s - covered, self.campaign_s),
            "ratio",
        );
    }
}
