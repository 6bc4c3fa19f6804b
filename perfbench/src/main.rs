//! End-to-end and per-layer benchmark of the on-line untestable fault
//! identification pipeline.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload soc_proof --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `soc_proof` — the reduced SoC through the full pipeline, the proof
//!   worklist a seeded sample of the SBST survivors, one proof thread;
//! * `corpus` — every committed circuit under `circuits/`, parsed and run
//!   through screening and proof at the default thread count;
//! * `soc_screen` — the industrial SoC through baseline, the four §3 rules
//!   and the SBST fault simulation (no proof stage). Not listed in
//!   `BENCHMARK.json`: its two-threaded ~9 s campaigns spread by 13-27%
//!   between quartiles over ten runs on a 2-vCPU VM, past any usable
//!   bound; it stays runnable for work on the fault simulator.
//!
//! With `--trace 0` the run sets the designs up several times, then repeats
//! campaigns for `--seconds` and reports medians. With `--trace 1` it runs
//! one untraced campaign and one traced one, with spans around each call
//! into a layer, written to `.bench_trace/` when the run ends. The last
//! line of standard output is one JSON object; every campaign checks its
//! output, and a failed check counts as a failed operation and makes the
//! exit status 1.
//!
//! `perfbench reference <soc_proof|corpus>` re-records the proof verdicts
//! under `perfbench/reference/` that campaigns are checked against.

mod corpus;
mod layers;
mod replay;
mod soc;
mod stats;
mod trace;
mod verdicts;

use faultmodel::{ClassCounts, FaultList};
use online_untestable::{IdentificationReport, JsonValue};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Named measurements with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
                let value = if value.is_finite() { value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Command-line options.
#[derive(Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget of one run, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made: one per campaign, plus the traced run's replay
    /// checks.
    pub attempted: usize,
    /// Output checks that failed.
    pub failed: usize,
    /// The metrics to report.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one output check.
    pub fn check(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            eprintln!("perfbench: output check failed ({what}): {reason}");
        }
    }
}

/// One end-to-end campaign: wall-clock, faults given a definitive verdict,
/// and the output check.
pub struct Campaign {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Faults resolved: untestable, SBST-detected, or shown testable.
    pub resolved: usize,
    /// The output check.
    pub check: Result<(), String>,
}

/// Campaigns repeated for a measurement budget, with set-up batches
/// spread over the run.
pub struct Measured {
    /// Per-campaign wall-clock, seconds.
    pub walls: Vec<f64>,
    /// Mean set-up time of each set-up batch, seconds.
    pub setups: Vec<f64>,
    /// Faults resolved per campaign (the same in every campaign).
    pub resolved: usize,
}

/// Set-up batches per run, at most; `setup_s` is the median of the batch
/// means.
const SETUP_BATCHES: usize = 8;

/// How long each set-up batch repeats the set-up. One set-up takes
/// milliseconds, while on a shared 2-vCPU VM core speed was measured to
/// swing by up to 2x over tenths of a second to minutes: single set-ups
/// give a bimodal median, batch means spread over the run see the same
/// swings the campaigns do.
const SETUP_BATCH_S: f64 = 0.3;

/// One set-up batch: `build` repeated for [`SETUP_BATCH_S`]. Returns the
/// last design and the mean time of one set-up.
pub fn setup_batch<T>(build: &mut impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let batch = Instant::now();
    let (mut busy, mut count, mut last) = (0.0, 0, None);
    while last.is_none() || batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
        let start = Instant::now();
        let built = build()?;
        busy += start.elapsed().as_secs_f64();
        count += 1;
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), busy / f64::from(count)))
}

/// Repeats `campaign` until the next one would overrun `seconds` of
/// campaign time (at least `min` campaigns), counting each output check in
/// `outcome`. `first_setup` is the batch that built the campaigns' design;
/// further `setup` batches run between campaigns, one per
/// `seconds / SETUP_BATCHES` of campaign time, outside the budget.
pub fn measure(
    seconds: f64,
    min: usize,
    outcome: &mut Outcome,
    first_setup: f64,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut campaign: impl FnMut() -> Result<Campaign, String>,
) -> Result<Measured, String> {
    let mut setups = vec![first_setup];
    let mut walls = Vec::new();
    let mut spent = 0.0;
    loop {
        let start = Instant::now();
        let c = campaign()?;
        outcome.check("campaign", c.check);
        walls.push(c.wall_s);
        spent += start.elapsed().as_secs_f64();
        if walls.len() >= min && spent + stats::median(&walls) > seconds {
            return Ok(Measured {
                walls,
                setups,
                resolved: c.resolved,
            });
        }
        if setups.len() < SETUP_BATCHES
            && spent >= setups.len() as f64 * seconds / SETUP_BATCHES as f64
        {
            setups.push(setup()?);
        }
    }
}

/// Pushes the end-to-end metrics of a measured run.
pub fn end_to_end(outcome: &mut Outcome, measured: &Measured) {
    let campaign_s = stats::median(&measured.walls);
    let setup_s = stats::median(&measured.setups);
    eprintln!(
        "perfbench: {} campaigns {:.4?} s, median {campaign_s:.4} s, {} faults resolved per \
         campaign; set-up batch means {:.6?} s",
        measured.walls.len(),
        measured.walls,
        measured.resolved,
        measured.setups
    );
    let m = &mut outcome.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("campaign_s", campaign_s, "s");
    m.push(
        "resolved_per_s",
        measured.resolved as f64 / campaign_s,
        "1/s",
    );
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Faults with a definitive verdict: everything classified, plus the
/// faults a proof engine showed testable (they stay unclassified).
pub fn resolved(report: &IdentificationReport) -> usize {
    let tests = report.engine_breakdown.map_or(0, |b| b.test_exists_total());
    report.total_faults - report.counts.undetected - report.counts.possibly_detected + tests
}

/// The report's classes partition the fault universe: they match the fault
/// list fault by fault, sum to the universe, and every stage's delta
/// accounts for the faults it took from the previous stage.
pub fn check_partition(report: &IdentificationReport, faults: &FaultList) -> Result<(), String> {
    let mut counts = ClassCounts::default();
    for (_, class) in faults.iter() {
        counts.add(class, 1);
    }
    if counts != report.counts {
        return Err(format!(
            "report counts {:?} differ from the fault list {counts:?}",
            report.counts
        ));
    }
    if counts.total() != report.total_faults || faults.len() != report.total_faults {
        return Err(format!(
            "classes sum to {} of a {}-fault universe",
            counts.total(),
            report.total_faults
        ));
    }
    let mut left = report.total_faults;
    for phase in &report.phases {
        if left.checked_sub(phase.newly_classified) != Some(phase.undetected_after) {
            return Err(format!(
                "stage {} classified {} of {left} leaving {}",
                phase.name, phase.newly_classified, phase.undetected_after
            ));
        }
        left = phase.undetected_after;
    }
    if left != counts.undetected {
        return Err(format!(
            "stages leave {left}, the list {}",
            counts.undetected
        ));
    }
    Ok(())
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` when the run starts in a
/// clone (no process is spawned).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| format!("{reference} (unresolved)")),
        None => head,
    }
}

/// UTC wall-clock time, `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (H. Hinnant's algorithm).
    let days = (secs / 86_400) as i64 + 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let tod = secs % 86_400;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        tod / 60 % 60,
        tod % 60
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload's one-line reason, from `BENCHMARK.json`.
fn workload_why(workload: &str) -> String {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| {
            doc.get("workloads")?
                .as_array()?
                .iter()
                .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))?
                .get("why")?
                .as_str()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a run's numbers depend on besides the code: workload, seed,
/// machine, revision and date.
fn context(options: &Options) -> JsonValue {
    let field = |key: &str, value: JsonValue| (key.to_string(), value);
    JsonValue::Object(vec![
        field("workload", JsonValue::string(options.workload.clone())),
        field("why", JsonValue::string(workload_why(&options.workload))),
        field("seed", JsonValue::Number(options.seed as f64)),
        field("seconds", JsonValue::Number(options.seconds)),
        field("trace", JsonValue::Bool(options.trace)),
        field("nproc", JsonValue::Number(nproc() as f64)),
        field("revision", JsonValue::string(git_revision())),
        field("date", JsonValue::string(utc_now())),
    ])
}

const USAGE: &str = "usage: perfbench --workload <soc_screen|soc_proof|corpus> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench reference <soc_proof|corpus>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => options.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<Outcome, String> {
    if let [command, workload] = args {
        if command == "reference" {
            return match workload.as_str() {
                "soc_proof" => soc::record_reference(),
                "corpus" => corpus::record_reference(),
                other => Err(format!("no reference for workload `{other}`")),
            }
            .map(|()| Outcome::default());
        }
    }
    let options = parse_options(args)?;
    let context = context(&options);
    eprintln!("perfbench: context {context}");
    let mut tracer = trace::Tracer::new(format!("{}-{}", options.workload, options.seed));
    let outcome = match options.workload.as_str() {
        "soc_screen" => soc::run_screen(&options, &mut tracer),
        "soc_proof" => soc::run_proof(&options, &mut tracer),
        "corpus" => corpus::run(&options, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if options.trace {
        let path =
            Path::new(".bench_trace").join(format!("{}-{}.jsonl", options.workload, options.seed));
        tracer
            .write(&path, &context.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(outcome) if outcome.attempted == 0 => ExitCode::SUCCESS,
        Ok(outcome) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.failed == 0,
                outcome.attempted,
                outcome.failed,
                outcome.metrics.to_json()
            );
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
