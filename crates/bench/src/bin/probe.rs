//! Calibration probe (not a paper figure): per-program solo comparison of
//! all policies on the single-core system, with diagnostics. Used to check
//! that the reproduction's result *shapes* match the paper before running
//! the figure benches.

use profess_bench::harness::TraceCollector;
use profess_bench::{init_trace_flag, usage_error, Cell};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;
use std::time::Instant;

fn main() {
    init_trace_flag();
    let target: u64 = match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        None => 40_000,
        Some(s) => s.parse().unwrap_or_else(|_| {
            usage_error(&format!(
                "memory-operation target `{s}` is not an unsigned integer"
            ))
        }),
    };
    let mut traces = TraceCollector::from_env("probe");
    let cfg = SystemConfig::scaled_single();
    let mut t = TextTable::new(vec![
        "program", "policy", "ipc", "m1frac", "swaps", "rdlat", "stc", "secs",
    ]);
    for prog in SpecProgram::ALL {
        for pk in [
            PolicyKind::Static,
            PolicyKind::Pom,
            PolicyKind::MemPod,
            PolicyKind::Mdm,
        ] {
            let t0 = Instant::now();
            let r = Cell::solo(&cfg, pk, prog, target).run();
            traces.record(&format!("{}:{}", prog.name(), pk.name()), &r);
            let p = &r.programs[0];
            t.row(vec![
                prog.name().to_string(),
                r.policy.clone(),
                format!("{:.3}", p.ipc),
                format!("{:.3}", p.m1_fraction()),
                format!("{}", r.swaps),
                format!("{:.1}", r.avg_read_latency_cycles),
                format!("{:.3}", r.stc_hit_rate),
                format!("{:.1}", t0.elapsed().as_secs_f64()),
            ]);
        }
    }
    println!("{t}");
    traces.finish();
}
