//! `corpus`: every committed circuit, parsed through the `.bench` and EDIF
//! frontends and run through screening and proof at the default thread
//! count.

use crate::layers::{stage_s, traced_rules, Layers};
use crate::replay::{prove_individually, proven_indices, replay, replay_matches, Engines};
use crate::trace::Tracer;
use crate::verdicts::{write_reference, Reference};
use crate::{
    check_partition, end_to_end, measure, resolved, setup_batch, Campaign, Options, Outcome,
};
use faultmodel::{FaultList, StuckAt, UntestableSource};
use netlist::load_netlist;
use online_untestable::{
    ConstraintSpec, Design, FlowConfig, IdentificationFlow, IdentificationReport, NetlistDesign,
    ProofStageConfig,
};
use std::time::Instant;

/// Corpus passes per end-to-end run, at least.
const MIN_CAMPAIGNS: usize = 5;

/// The proof engines at the flow's defaults.
const ENGINES: Engines = Engines {
    backtrack_limit: 32,
    sat_conflicts: 20_000,
};

/// Recorded proof verdicts of every corpus circuit.
const REFERENCE: &str = "perfbench/reference/corpus.verdicts";

/// One committed circuit: netlist, optional mission spec, the faults
/// baseline and the rules find untestable, and the untestable total once
/// the proof stage has run (the reference records no aborts, so the
/// monotone rule fixes the total too).
struct Circuit {
    path: &'static str,
    mission: Option<&'static str>,
    screened: usize,
    untestable: usize,
}

const CIRCUITS: [Circuit; 6] = [
    Circuit {
        path: "circuits/c17.bench",
        mission: None,
        screened: 0,
        untestable: 0,
    },
    Circuit {
        path: "circuits/s27.bench",
        mission: None,
        screened: 0,
        untestable: 0,
    },
    Circuit {
        path: "circuits/half_adder.edif",
        mission: None,
        screened: 0,
        untestable: 0,
    },
    Circuit {
        path: "circuits/synth_c432.bench",
        mission: Some("circuits/synth_c432.mission"),
        screened: 157,
        untestable: 184,
    },
    Circuit {
        path: "circuits/synth_c880.bench",
        mission: None,
        screened: 0,
        untestable: 27,
    },
    Circuit {
        path: "circuits/synth_c1355.bench",
        mission: None,
        screened: 0,
        untestable: 29,
    },
];

fn config() -> FlowConfig {
    FlowConfig {
        proof: ProofStageConfig {
            backtrack_limit: ENGINES.backtrack_limit,
            sat_conflict_limit: ENGINES.sat_conflicts,
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// Parses one circuit (and its mission spec) into a design.
fn load(circuit: &Circuit) -> Result<NetlistDesign, String> {
    let netlist = load_netlist(circuit.path, None).map_err(|e| e.to_string())?;
    match circuit.mission {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = ConstraintSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            NetlistDesign::with_constraints(netlist, &spec).map_err(|e| format!("{path}: {e}"))
        }
        None => Ok(NetlistDesign::new(netlist)),
    }
}

/// Checks one circuit's campaign: partition, screening count, and the
/// proof verdicts against the reference.
fn check(
    circuit: &Circuit,
    report: &IdentificationReport,
    faults: &FaultList,
    reference: &Reference,
) -> Result<(), String> {
    check_partition(report, faults)?;
    let untestable = report.baseline_structural + report.total_untestable();
    let screened = untestable - report.count_for(UntestableSource::AtpgProof);
    if (screened, untestable) != (circuit.screened, circuit.untestable) {
        return Err(format!(
            "{}: {screened} untestable after screening and {untestable} in all, reference {} and {}",
            circuit.path, circuit.screened, circuit.untestable
        ));
    }
    let tests = report.engine_breakdown.map_or(0, |b| b.test_exists_total());
    reference.check_campaign(
        circuit.path,
        &reference.indices(circuit.path),
        &proven_indices(faults),
        tests,
    )
}

/// One parse-and-run pass over the corpus: its wall-clock and each
/// circuit's report and classified fault list.
fn run_all(
    flow: &IdentificationFlow,
) -> Result<(f64, Vec<(IdentificationReport, FaultList)>), String> {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(CIRCUITS.len());
    for circuit in &CIRCUITS {
        let design = load(circuit)?;
        let run = flow
            .run_with_faults(&design)
            .map_err(|e| format!("{}: identification flow: {e}", circuit.path))?;
        runs.push(run);
    }
    Ok((start.elapsed().as_secs_f64(), runs))
}

/// Checks every circuit's run.
fn check_all(
    runs: &[(IdentificationReport, FaultList)],
    reference: &Reference,
) -> Result<(), String> {
    CIRCUITS
        .iter()
        .zip(runs)
        .try_for_each(|(circuit, (report, faults))| check(circuit, report, faults, reference))
}

/// One checked corpus campaign.
fn campaign(flow: &IdentificationFlow, reference: &Reference) -> Result<Campaign, String> {
    let (wall_s, runs) = run_all(flow)?;
    Ok(Campaign {
        wall_s,
        resolved: runs.iter().map(|(report, _)| resolved(report)).sum(),
        check: check_all(&runs, reference),
    })
}

fn read_reference() -> Result<Reference, String> {
    let text =
        std::fs::read_to_string(REFERENCE).map_err(|e| format!("cannot read {REFERENCE}: {e}"))?;
    Reference::parse(&text)
}

/// Runs the `corpus` workload.
pub fn run(options: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let reference = read_reference()?;
    let mut load_all = || CIRCUITS.iter().map(load).collect::<Result<Vec<_>, _>>();
    let (_, first_setup) = setup_batch(&mut load_all)?;
    let flow = IdentificationFlow::new(config());
    let mut outcome = Outcome::default();
    if !options.trace {
        let measured = measure(
            options.seconds,
            MIN_CAMPAIGNS,
            &mut outcome,
            first_setup,
            || setup_batch(&mut load_all).map(|(_, s)| s),
            || campaign(&flow, &reference),
        )?;
        end_to_end(&mut outcome, &measured);
        return Ok(outcome);
    }

    let (campaign_s, runs) = run_all(&flow)?;
    outcome.check("campaign", check_all(&runs, &reference));
    let root = tracer.open("campaign", None);
    let mut layers = Layers {
        campaign_s,
        ..Layers::default()
    };
    for (circuit, (report, faults)) in CIRCUITS.iter().zip(&runs) {
        let span = tracer.open("frontend.load", Some(root));
        let design = load(circuit)?;
        layers.frontend.parse_s += tracer.close(span);
        tracer.annotate(span, format!("path={}", circuit.path));
        layers.frontend.cells += design.netlist().num_cells();

        let (screened, rules) = traced_rules(&design, flow.config(), tracer, root)?;
        layers.rules.busy_s += rules.busy_s;
        layers.rules.classified += rules.classified;
        let worklist: Vec<(usize, StuckAt)> = screened.undetected().collect();
        let span = tracer.open("proof.constraints", Some(root));
        let constraints = flow
            .mission_constraints(&design)
            .map_err(|e| format!("{}: mission constraints: {e}", circuit.path))?;
        tracer.close(span);
        let replayed = replay(
            design.netlist(),
            &constraints,
            &worklist,
            ENGINES,
            tracer,
            root,
        )?;

        outcome.check(
            "replay verdicts",
            reference.check_verdicts(circuit.path, &replayed.verdicts),
        );
        outcome.check(
            "replay matches the campaign",
            replay_matches(&replayed, report, faults),
        );
        layers.replay.extend(replayed);
        layers.proof_stage_s += stage_s(report, "atpg-proof");
    }
    layers.traced_s = tracer.close(root);
    for line in crate::replay::slowest(&layers.replay, 10) {
        eprintln!("perfbench: slowest {line}");
    }
    layers.push(&mut outcome.metrics);
    Ok(outcome)
}

/// Re-records [`REFERENCE`]: every screening survivor of every corpus
/// circuit proven individually.
pub fn record_reference() -> Result<(), String> {
    let flow = IdentificationFlow::new(FlowConfig {
        run_atpg_proof: false,
        ..config()
    });
    let mut reference = Reference::default();
    let mut total = 0;
    for circuit in &CIRCUITS {
        let design = load(circuit)?;
        let (_, faults) = flow
            .run_with_faults(&design)
            .map_err(|e| format!("{}: identification flow: {e}", circuit.path))?;
        let constraints = flow
            .mission_constraints(&design)
            .map_err(|e| format!("{}: mission constraints: {e}", circuit.path))?;
        let worklist: Vec<(usize, StuckAt)> = faults.undetected().collect();
        let netlist = design.netlist();
        for a in prove_individually(netlist, &constraints, &worklist, ENGINES, 2)? {
            reference.insert(circuit.path, a.index, a.verdict());
        }
        total += worklist.len();
    }
    let header = format!(
        "Proof verdicts of every screening survivor of the committed circuits ({total}\n\
         faults), each proven on its own: PODEM (backtrack limit {}), SAT on a PODEM\n\
         abort (conflict limit {}). P = proven untestable, T = test exists, A = aborted.\n\
         Re-record: cargo run --release --manifest-path perfbench/Cargo.toml -- reference corpus",
        ENGINES.backtrack_limit, ENGINES.sat_conflicts
    );
    write_reference(REFERENCE, &reference.render(&header))
}
