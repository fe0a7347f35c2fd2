//! Calibration probe for the multiprogram shapes (not a paper figure):
//! runs selected Table 10 workloads under PoM / MDM / ProFess and prints
//! per-program slowdowns, weighted speedup, unfairness and swap fraction.

use profess_bench::{
    init_trace_flag, usage_error, workload_or_usage, CellPlan, Figure, SlowdownCells,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let pos: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let target: u64 = match pos.first() {
        None => 60_000,
        Some(s) => s.parse().unwrap_or_else(|_| {
            usage_error(&format!(
                "memory-operation target `{s}` is not an unsigned integer"
            ))
        }),
    };
    let ids: Vec<String> = pos.iter().skip(1).cloned().collect();
    let ids = if ids.is_empty() {
        vec!["w09".to_string(), "w16".to_string(), "w19".to_string()]
    } else {
        ids
    };
    let cfg = SystemConfig::scaled_quad();
    let mut plan = CellPlan::new();
    let cells: Vec<SlowdownCells> = ids
        .iter()
        .flat_map(|id| {
            let w = workload_or_usage(id);
            [PolicyKind::Pom, PolicyKind::Mdm, PolicyKind::Profess].map(|pk| (w, pk))
        })
        .map(|(w, pk)| SlowdownCells::declare(&mut plan, &cfg, pk, &w, target))
        .collect();
    let mut fig = Figure::start("probe_multi");
    let run = fig.execute(&plan);
    let verbose = std::env::var_os("PROFESS_VERBOSE").is_some();
    let mut t = TextTable::new(vec![
        "wl", "policy", "sdn0", "sdn1", "sdn2", "sdn3", "wspeed", "unfair", "swap%", "eff",
    ]);
    for c in &cells {
        let (Some(m), Some(multi)) = (c.metrics(&run), run.report(c.multi)) else {
            continue;
        };
        let id = c.workload.id;
        if verbose {
            for pr in &multi.programs {
                eprintln!(
                    "  {} {}: ipc={:.4} m1frac={:.3} rdlat={:.1} served={}",
                    multi.policy,
                    pr.name,
                    pr.ipc,
                    pr.m1_fraction(),
                    pr.read_latency_avg,
                    pr.served
                );
            }
        }
        if let (Some(g), true) = (multi.diag.guidance, verbose) {
            eprintln!(
                "{id} {}: guidance help={} protect={} protect3={} default={} sfs={:?}",
                multi.policy,
                g.help_m2,
                g.protect_m1,
                g.protect_m1_product,
                g.default_mdm,
                multi
                    .diag
                    .sfs
                    .iter()
                    .map(|&(a, b)| (format!("{a:.2}"), format!("{b:.2}")))
                    .collect::<Vec<_>>()
            );
        }
        t.row(vec![
            id.to_string(),
            multi.policy.clone(),
            format!("{:.2}", m.slowdowns[0]),
            format!("{:.2}", m.slowdowns[1]),
            format!("{:.2}", m.slowdowns[2]),
            format!("{:.2}", m.slowdowns[3]),
            format!("{:.3}", m.weighted_speedup),
            format!("{:.2}", m.unfairness),
            format!("{:.2}", m.swap_fraction * 100.0),
            format!("{:.0}", m.energy_efficiency),
        ]);
    }
    println!("{t}");
    fig.finish(run.report_health());
}
