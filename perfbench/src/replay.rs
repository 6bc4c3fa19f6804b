//! Traced replay of a proof worklist through the public engines:
//! `Podem::prove` per fault, each PODEM abort escalated to
//! `SatProver::prove`, under the proof stage's collapse schedule.

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::verdicts::Verdict;
use crate::Metrics;
use atpg::{ConstraintSet, Podem, PodemConfig, ProofOutcome, SatProver, SatVerdict};
use faultmodel::{collapse_with_barriers, FaultClass, FaultList, StuckAt, UntestableSource};
use netlist::Netlist;
use online_untestable::IdentificationReport;
use std::fmt::Write as _;
use std::time::Instant;

/// Engine settings, mirroring the proof stage's.
#[derive(Copy, Clone, Debug)]
pub struct Engines {
    /// PODEM backtrack budget per fault.
    pub backtrack_limit: usize,
    /// SAT conflict budget per escalation.
    pub sat_conflicts: u64,
}

impl Engines {
    fn podem_config(self) -> PodemConfig {
        PodemConfig {
            backtrack_limit: self.backtrack_limit,
            cone_clip: true,
            scoap_guidance: true,
            x_path_check: true,
        }
    }

    /// Builds both engines for one design and environment.
    pub fn build<'a>(
        self,
        netlist: &'a Netlist,
        constraints: &ConstraintSet,
    ) -> Result<(Podem<'a>, SatProver<'a>), String> {
        let podem = Podem::new(netlist, constraints, self.podem_config())
            .map_err(|e| format!("PODEM engine: {e}"))?;
        let sat = SatProver::new(netlist, constraints, self.sat_conflicts)
            .map_err(|e| format!("SAT engine: {e}"))?;
        Ok((podem, sat))
    }
}

/// One engine attempt on one fault.
#[derive(Copy, Clone, Debug)]
pub struct Attempt {
    /// Universe index of the fault.
    pub index: usize,
    /// Wall-clock of `Podem::prove`, seconds.
    pub podem_s: f64,
    /// PODEM backtracks spent.
    pub backtracks: usize,
    /// PODEM's outcome.
    pub podem: ProofOutcome,
    /// The SAT escalation of a PODEM abort: seconds and verdict.
    pub sat: Option<(f64, SatVerdict)>,
    /// Start and end of the two calls, for the spans.
    times: [Instant; 3],
}

impl Attempt {
    /// The portfolio verdict of this attempt.
    pub fn verdict(&self) -> Verdict {
        let concluded = match (self.podem, self.sat) {
            (ProofOutcome::Aborted, Some((_, SatVerdict::TestExists))) => ProofOutcome::TestExists,
            (ProofOutcome::Aborted, Some((_, SatVerdict::ProvenUntestable))) => {
                ProofOutcome::ProvenUntestable
            }
            (outcome, _) => outcome,
        };
        match concluded {
            ProofOutcome::TestExists => Verdict::TestExists,
            ProofOutcome::ProvenUntestable => Verdict::Proven,
            ProofOutcome::Aborted => Verdict::Aborted,
        }
    }

    /// Total engine time, seconds.
    pub fn total_s(&self) -> f64 {
        self.podem_s + self.sat.map_or(0.0, |(s, _)| s)
    }

    /// The engine that produced the verdict.
    pub fn engine(&self) -> &'static str {
        if self.sat.is_some() {
            "sat"
        } else {
            "podem"
        }
    }
}

/// Proves one fault on the portfolio: PODEM, then SAT on a PODEM abort.
pub fn attempt(
    podem: &mut Podem<'_>,
    sat: &mut SatProver<'_>,
    index: usize,
    fault: StuckAt,
) -> Attempt {
    let start = Instant::now();
    let outcome = podem.prove(fault);
    let podem_end = Instant::now();
    let backtracks = podem.last_backtracks();
    let sat_result = (outcome == ProofOutcome::Aborted).then(|| sat.prove(fault));
    let end = Instant::now();
    Attempt {
        index,
        podem_s: (podem_end - start).as_secs_f64(),
        backtracks,
        podem: outcome,
        sat: sat_result.map(|verdict| ((end - podem_end).as_secs_f64(), verdict)),
        times: [start, podem_end, end],
    }
}

/// The result of replaying one worklist.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The verdict of every worklist fault, by universe index, in worklist
    /// order.
    pub verdicts: Vec<(usize, Verdict)>,
    /// Every engine attempt, in proof order.
    pub attempts: Vec<Attempt>,
}

impl Replay {
    /// Appends another design's replay.
    pub fn extend(&mut self, other: Replay) {
        self.verdicts.extend(other.verdicts);
        self.attempts.extend(other.attempts);
    }

    /// Number of worklist faults with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|(_, v)| *v == verdict).count()
    }
}

/// Replays the proof stage over `worklist` (universe index, fault) under
/// the stage's collapse schedule: one representative per structural class
/// is proven, concluded verdicts cover the class, members of aborted
/// classes are proven one by one. Each engine call is a span under
/// `parent`.
pub fn replay(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    worklist: &[(usize, StuckAt)],
    engines: Engines,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<Replay, String> {
    let span = tracer.open("proof.replay", Some(parent));
    let build = tracer.open("proof.engines", Some(span));
    let (mut podem, mut sat) = engines.build(netlist, constraints)?;
    tracer.close(build);

    let faults: Vec<StuckAt> = worklist.iter().map(|&(_, f)| f).collect();
    let list = FaultList::from_faults(faults.clone());
    let collapsed = collapse_with_barriers(netlist, &list, |net| {
        constraints.forced_nets.contains_key(&net)
    });
    let class_of: Vec<usize> = faults
        .iter()
        .map(|&f| collapsed.representative_of(list.index_of(f).expect("fault in its own list")))
        .collect();
    let mut prover_of_class: Vec<Option<usize>> = vec![None; faults.len()];
    let mut provers = Vec::new();
    for (i, &class) in class_of.iter().enumerate() {
        if prover_of_class[class].is_none() {
            prover_of_class[class] = Some(i);
            provers.push(i);
        }
    }

    let mut verdicts: Vec<Option<Verdict>> = vec![None; faults.len()];
    let mut attempts = Vec::new();
    let mut prove = |i: usize, attempts: &mut Vec<Attempt>, tracer: &mut Tracer| {
        let a = attempt(&mut podem, &mut sat, worklist[i].0, faults[i]);
        let mut detail = String::new();
        let _ = write!(
            detail,
            "fault={} outcome={:?} backtracks={}",
            a.index, a.podem, a.backtracks
        );
        tracer.record("podem.prove", Some(span), a.times[0], a.times[1], detail);
        if let Some((_, verdict)) = a.sat {
            let detail = format!("fault={} verdict={verdict:?}", a.index);
            tracer.record("sat.prove", Some(span), a.times[1], a.times[2], detail);
        }
        attempts.push(a);
        a.verdict()
    };
    for &i in &provers {
        verdicts[i] = Some(prove(i, &mut attempts, tracer));
    }
    for i in 0..faults.len() {
        if verdicts[i].is_some() {
            continue;
        }
        let prover = prover_of_class[class_of[i]].expect("every class has a prover");
        let representative = verdicts[prover].expect("representatives proven first");
        verdicts[i] = Some(if representative == Verdict::Aborted {
            prove(i, &mut attempts, tracer)
        } else {
            representative
        });
    }
    tracer.close(span);
    Ok(Replay {
        verdicts: worklist
            .iter()
            .zip(verdicts)
            .map(|(&(index, _), v)| (index, v.expect("every fault visited")))
            .collect(),
        attempts,
    })
}

/// The PODEM and SAT layer metrics of a replay, and the proof-stage totals
/// (`stage_s` is the stage's wall-clock in the untraced campaign).
pub fn layer_metrics(replay: &Replay, stage_s: f64, metrics: &mut Metrics) {
    let podem_ms: Vec<f64> = replay.attempts.iter().map(|a| a.podem_s * 1e3).collect();
    metrics.push("podem.busy_s", podem_ms.iter().sum::<f64>() / 1e3, "s");
    metrics.push("podem.calls", podem_ms.len() as f64, "count");
    let podem_aborts = replay
        .attempts
        .iter()
        .filter(|a| a.podem == ProofOutcome::Aborted)
        .count();
    metrics.push("podem.aborted", podem_aborts as f64, "count");
    let backtracks: usize = replay.attempts.iter().map(|a| a.backtracks).sum();
    metrics.push("podem.backtracks", backtracks as f64, "count");
    push_percentile(metrics, "podem.fault_p50", &podem_ms, 50.0);
    push_percentile(metrics, "podem.fault_p99", &podem_ms, 99.0);

    let sat: Vec<(f64, SatVerdict)> = replay.attempts.iter().filter_map(|a| a.sat).collect();
    let split = |pick: fn(SatVerdict) -> bool| -> (f64, usize) {
        let hits = sat.iter().filter(|(_, v)| pick(*v));
        (hits.clone().map(|(s, _)| s).sum(), hits.count())
    };
    let (unsat_s, unsat) = split(|v| v == SatVerdict::ProvenUntestable);
    let (sat_s, sats) = split(|v| v == SatVerdict::TestExists);
    let (unknown_s, unknown) =
        split(|v| matches!(v, SatVerdict::Aborted | SatVerdict::Unsupported));
    metrics.push("sat.busy_s", unsat_s + sat_s + unknown_s, "s");
    metrics.push("sat.unsat_s", unsat_s, "s");
    metrics.push("sat.sat_s", sat_s, "s");
    metrics.push("sat.unknown_s", unknown_s, "s");
    metrics.push("sat.unsat", unsat as f64, "count");
    metrics.push("sat.sat", sats as f64, "count");
    metrics.push("sat.unknown", unknown as f64, "count");
    let sat_ms: Vec<f64> = sat.iter().map(|(s, _)| s * 1e3).collect();
    metrics.push("sat.calls", sat_ms.len() as f64, "count");
    push_percentile(metrics, "sat.fault_p50", &sat_ms, 50.0);
    push_percentile(metrics, "sat.fault_p90", &sat_ms, 90.0);

    let attempted = replay.verdicts.len();
    let unresolved = replay.count(Verdict::Aborted);
    metrics.push("proof.busy_s", stage_s, "s");
    metrics.push("proof.attempted", attempted as f64, "count");
    metrics.push(
        "proof.proven",
        replay.count(Verdict::Proven) as f64,
        "count",
    );
    metrics.push(
        "proof.test_exists",
        replay.count(Verdict::TestExists) as f64,
        "count",
    );
    metrics.push("proof.unresolved", unresolved as f64, "count");
    let frac = if attempted == 0 {
        0.0
    } else {
        unresolved as f64 / attempted as f64
    };
    metrics.push("proof.unresolved_frac", frac, "ratio");
}

/// `<name>_ms` and `<name>_pct`: the latency percentile and the percentile
/// actually reported (lowered until ten samples lie beyond it; both `0`
/// with too few samples).
fn push_percentile(metrics: &mut Metrics, name: &str, samples_ms: &[f64], want: f64) {
    let p = percentile(samples_ms, want);
    metrics.push(format!("{name}_ms"), p.map_or(0.0, |p| p.value), "ms");
    metrics.push(format!("{name}_pct"), p.map_or(0.0, |p| p.pct), "%");
}

/// Universe indices of the faults a campaign classified as proven.
pub fn proven_indices(faults: &FaultList) -> Vec<usize> {
    faults
        .iter()
        .enumerate()
        .filter(|(_, (_, class))| {
            *class == FaultClass::OnlineUntestable(UntestableSource::AtpgProof)
        })
        .map(|(i, _)| i)
        .collect()
}

/// The replay concluded what the campaign's proof stage concluded.
pub fn replay_matches(
    replayed: &Replay,
    report: &IdentificationReport,
    faults: &FaultList,
) -> Result<(), String> {
    let mut proven: Vec<usize> = replayed
        .verdicts
        .iter()
        .filter(|(_, v)| *v == Verdict::Proven)
        .map(|&(i, _)| i)
        .collect();
    proven.sort_unstable();
    let breakdown = report.engine_breakdown.unwrap_or_default();
    let tests = replayed.count(Verdict::TestExists);
    let aborts = replayed.count(Verdict::Aborted);
    if proven != proven_indices(faults)
        || tests != breakdown.test_exists_total()
        || aborts != breakdown.aborted_total()
    {
        return Err(format!(
            "replay {} proven / {tests} tests / {aborts} aborted, campaign {breakdown}",
            proven.len()
        ));
    }
    Ok(())
}

/// The slowest attempts, slowest first, one line each.
pub fn slowest(replay: &Replay, n: usize) -> Vec<String> {
    let mut attempts: Vec<&Attempt> = replay.attempts.iter().collect();
    attempts.sort_by(|a, b| b.total_s().total_cmp(&a.total_s()));
    attempts
        .iter()
        .take(n)
        .map(|a| {
            format!(
                "fault {:>6}  {:>9.3} ms  engine {:<5}  verdict {:?}  backtracks {}",
                a.index,
                a.total_s() * 1e3,
                a.engine(),
                a.verdict(),
                a.backtracks
            )
        })
        .collect()
}

/// Proves every worklist fault on its own (no collapse schedule), fanned
/// out over `threads` workers with one engine pair each; attempts come back
/// in worklist order.
pub fn prove_individually(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    worklist: &[(usize, StuckAt)],
    engines: Engines,
    threads: usize,
) -> Result<Vec<Attempt>, String> {
    let threads = threads.max(1);
    let per_thread: Vec<Result<Vec<(usize, Attempt)>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let (mut podem, mut sat) = engines.build(netlist, constraints)?;
                    Ok(worklist
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, &(index, fault))| {
                            (i, attempt(&mut podem, &mut sat, index, fault))
                        })
                        .collect())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("proof worker panicked"))
            .collect()
    });
    let mut attempts = Vec::with_capacity(worklist.len());
    for part in per_thread {
        attempts.extend(part?);
    }
    attempts.sort_by_key(|&(i, _)| i);
    Ok(attempts.into_iter().map(|(_, a)| a).collect())
}
