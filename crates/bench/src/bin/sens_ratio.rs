//! **§5.2 sensitivity to the M1:M2 capacity ratio** — MDM vs PoM solo at
//! 1:4, 1:8 and 1:16 (total M1 capacity fixed; M2 scales).
//!
//! Paper reference: moving from 1:8 to 1:4 slightly reduces MDM's average
//! improvement (14% → 12%, excluding the programs that then fit entirely
//! in the doubled relative M1); moving to 1:16 leaves it at ~14%. Expected
//! shape: the improvement at 1:4 is no larger than at 1:8/1:16.

use profess_bench::{
    init_trace_flag, summarize, target_from_args, Cell, CellPlan, Figure, SOLO_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(SOLO_TARGET_MISSES);
    let mut plan = CellPlan::new();
    let ratios: Vec<_> = [4u32, 8, 16]
        .into_iter()
        .map(|ratio| {
            let cfg = SystemConfig::scaled_single().with_capacity_ratio(ratio);
            // Exclude programs whose footprint fits the relatively larger
            // M1 (the paper excludes leslie3d, libquantum and zeusmp at
            // 1:4 for this reason; we exclude by the same criterion).
            let pairs: Vec<_> = SpecProgram::ALL
                .into_iter()
                .filter(|&prog| prog.footprint_lines(cfg.footprint_div) * 64 > cfg.org.m1_bytes)
                .map(|prog| {
                    [PolicyKind::Pom, PolicyKind::Mdm].map(|pk| {
                        plan.add(Cell::solo(&cfg, pk, prog, target).labelled(format!(
                            "{}:{}:1to{ratio}",
                            prog.name(),
                            pk.name()
                        )))
                    })
                })
                .collect();
            (ratio, pairs)
        })
        .collect();
    let mut fig = Figure::start("sens_ratio");
    println!("Sensitivity to the M1:M2 capacity ratio (MDM/PoM solo IPC)\n");
    let run = fig.execute(&plan);
    let ok = run.report_health();
    if ok {
        let mut t = TextTable::new(vec!["M1:M2", "geomean MDM/PoM", "best", "worst"]);
        for (ratio, pairs) in &ratios {
            let ratios: Vec<f64> = pairs
                .iter()
                .filter_map(|&[pom, mdm]| Some(run.solo_ipc(mdm)? / run.solo_ipc(pom)?))
                .collect();
            let s = summarize(&ratios);
            t.row(vec![
                format!("1:{ratio}"),
                format!("{:+.1}%", (s.geomean - 1.0) * 100.0),
                format!("{:+.1}%", (s.best - 1.0) * 100.0),
                format!("{:+.1}%", (s.worst - 1.0) * 100.0),
            ]);
        }
        println!("{t}");
        println!("Paper: 1:4 +12%, 1:8 +14%, 1:16 +14% (footprint-fitting");
        println!("programs excluded at 1:4).");
    }
    fig.finish(ok);
}
