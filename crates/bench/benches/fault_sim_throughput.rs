//! Fault-simulation throughput on the industrial SoC SBST campaign — the
//! workload behind the §4 coverage-grading step.
//!
//! The campaign grades a seeded random sample of stuck-at faults against the
//! full four-program SBST suite, observing only the system bus. The bench
//! reports the end-to-end campaign wall-clock, derived detected-faults/s and
//! chunk-cycles/s figures, and the differential engine's activity: gate
//! evaluations per chunk-cycle beside the compiled gate count a full sweep
//! would evaluate. `BENCH_faultsim.json` at the repo root keeps the measured
//! numbers of each engine generation.
//!
//! The workload itself is defined once in `bench::FaultsimCampaign` and
//! shared with the `perf_smoke` CI gate, so the committed numbers and the
//! gate always replay the same campaign.

use atpg::CompiledProgram;
use bench::{industrial_soc, FaultsimCampaign, FAULTSIM_SAMPLE, FAULTSIM_SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn fault_sim_throughput(c: &mut Criterion) {
    let soc = industrial_soc();
    let campaign = FaultsimCampaign::prepare(&soc, FAULTSIM_SAMPLE, FAULTSIM_SEED);
    let total_cycles = campaign.total_cycles();

    // One measured reference run for the report.
    let result = campaign.run();
    let secs = result.wall_clock.as_secs_f64();
    println!("--- SBST fault-simulation campaign (industrial SoC) -----------");
    println!("nets                    : {}", soc.netlist.num_nets());
    println!("faults simulated        : {}", result.faults);
    println!("suite vector cycles     : {total_cycles}");
    println!("faults detected         : {}", result.detected);
    println!("campaign wall-clock     : {secs:.3} s");
    println!(
        "detected faults per sec : {:.1}",
        result.detected as f64 / secs
    );
    // Nominal figure: cycles × 63-fault chunks scheduled, ignoring the work
    // the engine skips via batch-dropping and per-chunk early exit.
    println!(
        "nominal chunk-cycles/sec: {:.0}",
        (total_cycles * result.faults.div_ceil(63)) as f64 / secs
    );
    let gates = CompiledProgram::compile(&soc.netlist)
        .expect("compiled program")
        .num_gates();
    println!("chunk-cycles simulated  : {}", result.chunk_cycles);
    println!("gate evaluations        : {}", result.gate_evals);
    println!(
        "evals per chunk-cycle   : {:.1} of {gates} compiled gates ({:.2}%)",
        result.gate_evals as f64 / result.chunk_cycles.max(1) as f64,
        100.0 * result.gate_evals as f64 / (result.chunk_cycles.max(1) * gates as u64) as f64
    );

    let mut group = c.benchmark_group("fault_sim_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(10));
    group.bench_function("sbst_campaign_industrial_soc_1260_faults", |b| {
        b.iter(|| campaign.run())
    });
    group.finish();
}

criterion_group!(benches, fault_sim_throughput);
criterion_main!(benches);
