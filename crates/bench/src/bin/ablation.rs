//! **Ablation studies** of the design choices DESIGN.md calls out (not a
//! paper figure; supports the paper's §3.3 design discussion):
//!
//! 1. *Case 3 product rule*: ProFess with Case 3 disabled vs full ProFess
//!    on the three Figure 16 workloads. The paper argues Case 3 is needed
//!    to avoid disproportionately large SF_B — expect full ProFess to be
//!    at least as fair.
//! 2. *min_benefit (K) sweep*: MDM solo with min_benefit ∈ {2, 8, 32}.
//!    K = 8 derives from the swap/latency arithmetic (§4.1); far smaller
//!    values over-swap, far larger values under-swap.

use profess_bench::{
    init_trace_flag, summarize, target_from_args, workload_or_usage, Cell, CellPlan, Figure,
    SlowdownCells, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let mut plan = CellPlan::new();
    let case3: Vec<[SlowdownCells; 2]> = ["w09", "w16", "w19"]
        .into_iter()
        .map(|id| {
            let w = workload_or_usage(id);
            [PolicyKind::Profess, PolicyKind::ProfessNoCase3]
                .map(|pk| SlowdownCells::declare(&mut plan, &cfg, pk, &w, target))
        })
        .collect();
    let progs = [
        SpecProgram::Bwaves,
        SpecProgram::Mcf,
        SpecProgram::Omnetpp,
        SpecProgram::Zeusmp,
    ];
    // K = 8 is both the baseline and one of the sweep points: the plan
    // runs it once.
    let k_cells = |plan: &mut CellPlan, k: u32| {
        progs.map(|p| {
            let mut c = SystemConfig::scaled_single();
            c.mdm.min_benefit = k;
            plan.add(
                Cell::solo(&c, PolicyKind::Mdm, p, target)
                    .labelled(format!("{}:MDM:K{k}", p.name())),
            )
        })
    };
    let base = k_cells(&mut plan, 8);
    let sweep = [2u32, 8, 32].map(|k| (k, k_cells(&mut plan, k)));
    let mut fig = Figure::start("ablation");
    println!("Ablation 1: ProFess Case 3 product rule\n");
    let run = fig.execute(&plan);
    let ok = run.report_health();
    if ok {
        let mut t = TextTable::new(vec![
            "workload",
            "unfair full",
            "unfair noC3",
            "wspeed full",
            "wspeed noC3",
        ]);
        for pair in &case3 {
            let [Some(full), Some(no_c3)] = [&pair[0], &pair[1]].map(|c| c.metrics(&run)) else {
                continue;
            };
            t.row(vec![
                pair[0].workload.id.to_string(),
                format!("{:.2}", full.unfairness),
                format!("{:.2}", no_c3.unfairness),
                format!("{:.3}", full.weighted_speedup),
                format!("{:.3}", no_c3.weighted_speedup),
            ]);
        }
        println!("{t}");

        println!("Ablation 2: MDM min_benefit (K) sweep, solo\n");
        let mut t = TextTable::new(vec!["min_benefit", "geomean IPC vs K=8", "swaps vs K=8"]);
        for (k, cells) in &sweep {
            let mut ipc_ratios = Vec::new();
            let mut swap_ratios = Vec::new();
            for (&c, &b) in cells.iter().zip(&base) {
                let (Some(r), Some(b)) = (run.report(c), run.report(b)) else {
                    continue;
                };
                ipc_ratios.push(r.programs[0].ipc / b.programs[0].ipc);
                swap_ratios.push((r.swaps.max(1)) as f64 / (b.swaps.max(1)) as f64);
            }
            t.row(vec![
                format!("{k}"),
                format!("{:+.1}%", (summarize(&ipc_ratios).geomean - 1.0) * 100.0),
                format!("{:.2}x", summarize(&swap_ratios).geomean),
            ]);
        }
        println!("{t}");
        println!("Expected: K = 2 swaps much more for little gain; K = 32");
        println!("forgoes profitable promotions.");
    }
    fig.finish(ok);
}
