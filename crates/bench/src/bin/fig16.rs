//! **Figure 16** — Per-program slowdowns under PoM, MDM and ProFess for
//! workloads w09, w16 and w19 (paper §5.4).
//!
//! Paper reference: MDM reduces the max slowdown solely by speeding
//! programs (e.g. soplex in w09); ProFess further improves fairness by
//! penalizing lightly loaded programs to help the most-suffering ones
//! (in w09 it slows lbm and GemsFDTD to speed mcf and soplex). w16 is
//! special: ProFess finds no fairness opportunity beyond MDM's.

use profess_bench::{
    init_trace_flag, target_from_args, workload_or_usage, CellPlan, Figure, SlowdownCells,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(profess_bench::MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let mut plan = CellPlan::new();
    let cells: Vec<Vec<SlowdownCells>> = ["w09", "w16", "w19"]
        .into_iter()
        .map(|id| {
            let w = workload_or_usage(id);
            [PolicyKind::Pom, PolicyKind::Mdm, PolicyKind::Profess]
                .into_iter()
                .map(|pk| SlowdownCells::declare(&mut plan, &cfg, pk, &w, target))
                .collect()
        })
        .collect();
    let mut fig = Figure::start("fig16");
    println!("Figure 16: per-program slowdowns under the evaluated schemes\n");
    let run = fig.execute(&plan);
    for per_workload in &cells {
        let w = per_workload[0].workload;
        let Some(per_policy) = per_workload
            .iter()
            .map(|c| c.metrics(&run))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let mut t = TextTable::new(vec!["program", "PoM", "MDM", "ProFess"]);
        for (i, prog) in w.programs.iter().enumerate() {
            t.row(vec![
                prog.name().to_string(),
                format!("{:.2}", per_policy[0].slowdowns[i]),
                format!("{:.2}", per_policy[1].slowdowns[i]),
                format!("{:.2}", per_policy[2].slowdowns[i]),
            ]);
        }
        t.row(vec![
            "max".to_string(),
            format!("{:.2}", per_policy[0].unfairness),
            format!("{:.2}", per_policy[1].unfairness),
            format!("{:.2}", per_policy[2].unfairness),
        ]);
        println!("{}:\n{t}", w.id);
    }
    println!("Paper: ProFess helps the most-suffering programs at the cost");
    println!("of lightly loaded ones (w09); w16 offers no opportunity.");
    fig.finish(run.report_health());
}
