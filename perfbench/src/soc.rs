//! The two SoC workloads: `soc_screen` (industrial SoC, rules and SBST
//! simulation) and `soc_proof` (reduced SoC, full pipeline over a seeded
//! proof sample).

use crate::layers::{stage_s, traced_fault_sim, traced_rules, Layers};
use crate::replay::{prove_individually, proven_indices, replay, replay_matches, Engines};
use crate::trace::Tracer;
use crate::verdicts::{write_reference, Reference};
use crate::{
    check_partition, end_to_end, measure, resolved, setup_batch, Campaign, Options, Outcome,
};
use cpu::soc::{Soc, SocBuilder};
use faultmodel::{FaultList, StuckAt, UntestableSource};
use online_untestable::{FlowConfig, IdentificationFlow, IdentificationReport, ProofStageConfig};
use std::time::Instant;

/// Campaigns per end-to-end run, at least.
const MIN_CAMPAIGNS: usize = 3;

/// SBST cycle budget per program (the flow's default).
const SBST_CYCLES: usize = 2_000;

/// Survivors sampled into the `soc_proof` worklist, through the proof
/// stage's own `max_faults`/`sample_seed` sampling.
const PROOF_SAMPLE: usize = 300;

/// The sample seed of the `soc_proof` worklist. It is fixed rather than
/// taken from the workload seed: which 300 survivors are drawn decides how
/// many conflict-budget aborts (about 1.6 s each) and slow SAT tests (up to
/// 2.8 s) the campaign holds, and from the recorded per-fault costs a fresh
/// sample per seed would spread `campaign_s` by 20-30% between quartiles
/// at any affordable sample size. This sample holds 3 conflict-budget
/// aborts and 65 SAT escalations (21.5% of the population escalates), and
/// its recorded engine time is within 10% of an average 300-fault sample's.
const PROOF_SAMPLE_SEED: u64 = 1;

/// The proof engines of `soc_proof` (as in the reduced-SoC quick pipeline).
const PROOF_ENGINES: Engines = Engines {
    backtrack_limit: 16,
    sat_conflicts: 20_000,
};

/// Recorded verdicts of every SBST survivor of the reduced SoC.
const PROOF_REFERENCE: &str = "perfbench/reference/soc_proof.verdicts";

/// Screening outcome a SoC campaign must reproduce exactly.
struct ScreenReference {
    /// Structurally untestable before the mission environment (baseline).
    baseline: usize,
    /// On-line untestable by the four §3 rules.
    online: usize,
    /// Detected by the SBST suite.
    detected: usize,
    /// Left for the proof stage.
    survivors: usize,
}

const INDUSTRIAL: ScreenReference = ScreenReference {
    baseline: 1_060,
    online: 9_597,
    detected: 40_269,
    survivors: 18_546,
};

const REDUCED: ScreenReference = ScreenReference {
    baseline: 856,
    online: 3_025,
    detected: 15_292,
    survivors: 10_693,
};

fn screen_config() -> FlowConfig {
    FlowConfig {
        sbst_max_cycles: SBST_CYCLES,
        run_atpg_proof: false,
        ..FlowConfig::full_pipeline()
    }
}

fn proof_config() -> FlowConfig {
    FlowConfig {
        sbst_max_cycles: SBST_CYCLES,
        proof: ProofStageConfig {
            backtrack_limit: PROOF_ENGINES.backtrack_limit,
            sat_conflict_limit: PROOF_ENGINES.sat_conflicts,
            threads: 1,
            max_faults: Some(PROOF_SAMPLE),
            sample_seed: Some(PROOF_SAMPLE_SEED),
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// Checks the partition and the screening counts of a SoC campaign.
fn check_screen(
    report: &IdentificationReport,
    faults: &FaultList,
    reference: &ScreenReference,
) -> Result<(), String> {
    check_partition(report, faults)?;
    let online = report.total_untestable() - report.count_for(UntestableSource::AtpgProof);
    let survivors = report.phase("sbst-sim").map_or(0, |p| p.undetected_after);
    let observed = [
        report.baseline_structural,
        online,
        report.counts.detected,
        survivors,
    ];
    let expected = [
        reference.baseline,
        reference.online,
        reference.detected,
        reference.survivors,
    ];
    if observed != expected {
        return Err(format!(
            "baseline/on-line untestable/SBST-detected/survivors {observed:?}, reference {expected:?}"
        ));
    }
    Ok(())
}

/// The proof stage's seeded sample (`ProofStageConfig::sample_seed`): a
/// Fisher–Yates shuffle driven by splitmix64, then truncation. Reproduced
/// here so each campaign knows which faults it attempted.
fn sample<T>(items: &mut Vec<T>, seed: u64, cap: usize) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items.truncate(cap);
}

/// Runs one SoC campaign and checks it.
fn campaign(
    soc: &Soc,
    flow: &IdentificationFlow,
    reference: &ScreenReference,
    proof_check: impl Fn(&IdentificationReport, &FaultList) -> Result<(), String>,
) -> Result<(Campaign, IdentificationReport, FaultList), String> {
    let start = Instant::now();
    let (report, faults) = flow
        .run_with_faults(soc)
        .map_err(|e| format!("identification flow: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let check =
        check_screen(&report, &faults, reference).and_then(|()| proof_check(&report, &faults));
    Ok((
        Campaign {
            wall_s,
            resolved: resolved(&report),
            check,
        },
        report,
        faults,
    ))
}

/// `soc_screen`: the industrial SoC through baseline, the §3 rules and the
/// SBST simulation.
pub fn run_screen(options: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut build = || Ok(SocBuilder::industrial().build());
    let (soc, first_setup) = setup_batch(&mut build)?;
    let flow = IdentificationFlow::new(screen_config());
    let no_proof = |_: &IdentificationReport, _: &FaultList| Ok(());
    let mut outcome = Outcome::default();
    if !options.trace {
        let measured = measure(
            options.seconds,
            MIN_CAMPAIGNS,
            &mut outcome,
            first_setup,
            || setup_batch(&mut build).map(|(_, s)| s),
            || campaign(&soc, &flow, &INDUSTRIAL, no_proof).map(|(c, _, _)| c),
        )?;
        end_to_end(&mut outcome, &measured);
        return Ok(outcome);
    }

    let (untraced, report, _) = campaign(&soc, &flow, &INDUSTRIAL, no_proof)?;
    outcome.check("campaign", untraced.check);
    let root = tracer.open("campaign", None);
    let (mut faults, rules) = traced_rules(&soc, flow.config(), tracer, root)?;
    let fault_sim = traced_fault_sim(&soc, &mut faults, SBST_CYCLES, tracer, root)?;
    let traced_s = tracer.close(root);
    let expected = report.phase("sbst-sim").map_or(0, |p| p.newly_classified);
    outcome.check(
        "traced sbst-sim",
        if fault_sim.detected == expected {
            Ok(())
        } else {
            Err(format!(
                "{} detected, the report's sbst-sim delta is {expected}",
                fault_sim.detected
            ))
        },
    );
    let layers = Layers {
        campaign_s: untraced.wall_s,
        traced_s,
        rules,
        fault_sim,
        ..Layers::default()
    };
    layers.push(&mut outcome.metrics);
    Ok(outcome)
}

/// `soc_proof`: the reduced SoC through the full pipeline, the proof
/// worklist a fixed sample of the SBST survivors (see [`PROOF_SAMPLE_SEED`]).
pub fn run_proof(options: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let text = std::fs::read_to_string(PROOF_REFERENCE)
        .map_err(|e| format!("cannot read {PROOF_REFERENCE}: {e}"))?;
    let reference = Reference::parse(&text)?;
    let mut build = || Ok(SocBuilder::small().build());
    let (soc, first_setup) = setup_batch(&mut build)?;
    let design = soc.netlist.name().to_string();
    let flow = IdentificationFlow::new(proof_config());

    // The faults the campaign attempts: the sample of the survivors, which
    // the reference lists in universe order.
    let mut attempted = reference.indices(&design);
    if attempted.len() != REDUCED.survivors {
        return Err(format!(
            "{PROOF_REFERENCE} lists {} survivors, expected {}",
            attempted.len(),
            REDUCED.survivors
        ));
    }
    sample(&mut attempted, PROOF_SAMPLE_SEED, PROOF_SAMPLE);
    let proof_check = |report: &IdentificationReport, faults: &FaultList| {
        let tests = report.engine_breakdown.map_or(0, |b| b.test_exists_total());
        reference.check_campaign(&design, &attempted, &proven_indices(faults), tests)
    };

    let mut outcome = Outcome::default();
    if !options.trace {
        let measured = measure(
            options.seconds,
            MIN_CAMPAIGNS,
            &mut outcome,
            first_setup,
            || setup_batch(&mut build).map(|(_, s)| s),
            || campaign(&soc, &flow, &REDUCED, proof_check).map(|(c, _, _)| c),
        )?;
        end_to_end(&mut outcome, &measured);
        return Ok(outcome);
    }

    let (untraced, report, untraced_faults) = campaign(&soc, &flow, &REDUCED, proof_check)?;
    outcome.check("campaign", untraced.check);
    let root = tracer.open("campaign", None);
    let (mut faults, rules) = traced_rules(&soc, flow.config(), tracer, root)?;
    let fault_sim = traced_fault_sim(&soc, &mut faults, SBST_CYCLES, tracer, root)?;
    let mut worklist: Vec<(usize, StuckAt)> = faults.undetected().collect();
    sample(&mut worklist, PROOF_SAMPLE_SEED, PROOF_SAMPLE);
    let span = tracer.open("proof.constraints", Some(root));
    let constraints = flow
        .mission_constraints(&soc)
        .map_err(|e| format!("mission constraints: {e}"))?;
    tracer.close(span);
    let replayed = replay(
        &soc.netlist,
        &constraints,
        &worklist,
        PROOF_ENGINES,
        tracer,
        root,
    )?;
    let traced_s = tracer.close(root);

    outcome.check(
        "replay verdicts",
        reference.check_verdicts(&design, &replayed.verdicts),
    );
    outcome.check(
        "replay matches the campaign",
        replay_matches(&replayed, &report, &untraced_faults),
    );
    for line in crate::replay::slowest(&replayed, 10) {
        eprintln!("perfbench: slowest {line}");
    }
    let layers = Layers {
        campaign_s: untraced.wall_s,
        traced_s,
        rules,
        fault_sim,
        replay: replayed,
        proof_stage_s: stage_s(&report, "atpg-proof"),
        ..Layers::default()
    };
    layers.push(&mut outcome.metrics);
    Ok(outcome)
}

/// Re-records [`PROOF_REFERENCE`]: every SBST survivor of the reduced SoC
/// proven individually on two threads. Per-fault timings go to
/// `.bench_trace/reference-soc_proof.tsv`.
pub fn record_reference() -> Result<(), String> {
    let soc = SocBuilder::small().build();
    let flow = IdentificationFlow::new(screen_config());
    let (report, faults) = flow
        .run_with_faults(&soc)
        .map_err(|e| format!("identification flow: {e}"))?;
    check_screen(&report, &faults, &REDUCED)?;
    let constraints = flow
        .mission_constraints(&soc)
        .map_err(|e| format!("mission constraints: {e}"))?;
    let worklist: Vec<(usize, StuckAt)> = faults.undetected().collect();
    let start = Instant::now();
    let attempts = prove_individually(&soc.netlist, &constraints, &worklist, PROOF_ENGINES, 2)?;
    eprintln!(
        "perfbench: proved {} survivors in {:.1} s",
        attempts.len(),
        start.elapsed().as_secs_f64()
    );
    let design = soc.netlist.name();
    let mut reference = Reference::default();
    let mut timings = String::from("index\tverdict\tengine\tpodem_ms\tsat_ms\tbacktracks\n");
    for a in &attempts {
        reference.insert(design, a.index, a.verdict());
        timings.push_str(&format!(
            "{}\t{:?}\t{}\t{:.4}\t{:.4}\t{}\n",
            a.index,
            a.verdict(),
            a.engine(),
            a.podem_s * 1e3,
            a.sat.map_or(0.0, |(s, _)| s * 1e3),
            a.backtracks
        ));
    }
    let header = format!(
        "Proof verdicts of every SBST survivor of the reduced SoC ({} faults), each\n\
         proven on its own: PODEM (backtrack limit {}), SAT on a PODEM abort\n\
         (conflict limit {}). P = proven untestable, T = test exists, A = aborted.\n\
         Re-record: cargo run --release --manifest-path perfbench/Cargo.toml -- reference soc_proof",
        attempts.len(),
        PROOF_ENGINES.backtrack_limit,
        PROOF_ENGINES.sat_conflicts
    );
    write_reference(PROOF_REFERENCE, &reference.render(&header))?;
    std::fs::create_dir_all(".bench_trace").map_err(|e| e.to_string())?;
    std::fs::write(".bench_trace/reference-soc_proof.tsv", timings).map_err(|e| e.to_string())
}
