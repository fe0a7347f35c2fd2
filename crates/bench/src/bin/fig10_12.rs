//! **Figures 10, 11 and 12** — Multi-program evaluation of MDM vs PoM
//! (paper §5.3): max slowdown (Figure 10), weighted-speedup performance
//! (Figure 11) and memory-system energy efficiency (Figure 12) for the 19
//! Table 10 workloads, normalized to PoM.
//!
//! Paper reference: MDM reduces the max slowdown by 6% on average (up to
//! 19% for w12) purely by speeding programs up, improves weighted speedup
//! by 7% (up to 16% for w12), and energy efficiency by 7% (up to 26% for
//! w18); w04/w05/w10/w15/w18 can be *less* fair than PoM since MDM
//! ignores slowdowns, just like PoM.
//!
//! The sweep runs supervised: `PROFESS_CHECKPOINT` journals completed
//! cells for kill-and-resume, `PROFESS_RETRIES` / `PROFESS_TASK_TIMEOUT_MS`
//! bound recovery (a failed or timed-out cell is retried from cycle 0),
//! and `PROFESS_FAULT` injects deterministic failures.
//! Trailing workload-id arguments restrict the sweep to a subset.

use profess_bench::{
    init_trace_flag, print_sweep, report_skipped, sweep_args, write_rows_artifact, CellPlan,
    Figure, NormalizedSweep, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let (target, workloads) = sweep_args(MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let mut plan = CellPlan::new();
    let sweep = NormalizedSweep::declare(&mut plan, &cfg, PolicyKind::Mdm, target, &workloads);
    let mut fig = Figure::start_journaled("fig10_12");
    let run = fig.execute(&plan);
    let (rows, skipped) = sweep.rows(&run);
    write_rows_artifact("fig10_12", &rows);
    if !rows.is_empty() {
        let (unf, ws, eff) = print_sweep(
            &format!(
                "Figures 10-12: MDM normalized to PoM over {} workload(s)",
                rows.len()
            ),
            &rows,
        );
        println!();
        println!(
            "Paper: max slowdown -6% avg (ours {:+.1}%), weighted speedup +7% avg (ours {:+.1}%), energy efficiency +7% avg (ours {:+.1}%).",
            (unf - 1.0) * 100.0,
            (ws - 1.0) * 100.0,
            (eff - 1.0) * 100.0
        );
        let mixed_fairness = rows.iter().any(|r| r.unfairness > 1.0);
        println!(
            "Some workloads less fair than PoM (expected, MDM ignores slowdowns): {}",
            if mixed_fairness {
                "yes, as in the paper"
            } else {
                "no"
            }
        );
    }
    fig.finish(run.report_health() & report_skipped(&skipped));
}
