//! **Figures 13, 14 and 15** — Multi-program evaluation of ProFess
//! (MDM + RSM) vs PoM (paper §5.4): max slowdown (Figure 13), weighted
//! speedup (Figure 14) and energy efficiency (Figure 15) for the 19
//! Table 10 workloads, normalized to PoM.
//!
//! Paper reference: ProFess improves fairness by 15% on average (up to
//! 29% for w12), eliminating MDM's fairness regressions; outperforms PoM
//! by 12% (up to 29% for w19); improves energy efficiency by 11% (up to
//! 30% for w19); reduces the average read latency by 9% and the fraction
//! of swaps among served requests by 24% (up to 54% for w19).
//!
//! The key *mechanism* check — printed at the end — compares ProFess
//! against plain MDM: RSM guidance should improve fairness, weighted
//! speedup and swap fraction relative to MDM on most workloads.
//!
//! Both sweeps are declared into one cell plan, so the PoM baseline
//! cells they share run once; the plan runs supervised with one
//! checkpoint journal (`PROFESS_CHECKPOINT`); see `fig10_12` for the
//! resilience knobs.
//! Trailing workload-id arguments restrict the sweeps to a subset.

use profess_bench::{
    init_trace_flag, print_sweep, report_skipped, sweep_args, write_rows_artifact, CellPlan,
    Figure, NormalizedSweep, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::geomean;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let (target, workloads) = sweep_args(MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let mut plan = CellPlan::new();
    let profess_sweep =
        NormalizedSweep::declare(&mut plan, &cfg, PolicyKind::Profess, target, &workloads);
    // The mechanism check vs plain MDM, as a second stage: the keys
    // differ by policy, so only the PoM cells are shared, and they run
    // once.
    plan.next_stage();
    let mdm_sweep = NormalizedSweep::declare(&mut plan, &cfg, PolicyKind::Mdm, target, &workloads);
    let mut fig = Figure::start_journaled("fig13_15");
    let run = fig.execute(&plan);
    let (profess, profess_skipped) = profess_sweep.rows(&run);
    let (mdm, mdm_skipped) = mdm_sweep.rows(&run);
    write_rows_artifact("fig13_15", &profess);
    if !profess.is_empty() {
        let (unf, ws, eff) = print_sweep(
            &format!(
                "Figures 13-15: ProFess normalized to PoM over {} workload(s)",
                profess.len()
            ),
            &profess,
        );
        println!();
        println!(
            "Paper: fairness +15% avg (ours {:+.1}%), performance +12% avg (ours {:+.1}%), energy efficiency +11% avg (ours {:+.1}%).",
            (1.0 - unf) * 100.0,
            (ws - 1.0) * 100.0,
            (eff - 1.0) * 100.0
        );
    }
    if profess_skipped.is_empty() && mdm_skipped.is_empty() {
        let rel = |a: &[f64], b: &[f64]| geomean(a) / geomean(b);
        let unf_vs_mdm = rel(
            &profess.iter().map(|r| r.unfairness).collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.unfairness).collect::<Vec<_>>(),
        );
        let ws_vs_mdm = rel(
            &profess
                .iter()
                .map(|r| r.weighted_speedup)
                .collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.weighted_speedup).collect::<Vec<_>>(),
        );
        let swap_vs_mdm = rel(
            &profess.iter().map(|r| r.swap_fraction).collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.swap_fraction).collect::<Vec<_>>(),
        );
        println!();
        println!("RSM mechanism (ProFess vs plain MDM, geomeans over workloads):");
        println!(
            "  max slowdown {:+.1}%  weighted speedup {:+.1}%  swap fraction {:+.1}%",
            (unf_vs_mdm - 1.0) * 100.0,
            (ws_vs_mdm - 1.0) * 100.0,
            (swap_vs_mdm - 1.0) * 100.0
        );
        println!(
            "  expected: slowdown and swaps down, speedup up -> {}",
            if unf_vs_mdm < 1.0 && ws_vs_mdm > 1.0 && swap_vs_mdm < 1.0 {
                "shape holds"
            } else {
                "shape PARTIALLY holds (see EXPERIMENTS.md)"
            }
        );
    } else {
        eprintln!("mechanism check skipped: sweep incomplete");
    }
    let ok = run.report_health() & report_skipped(&profess_skipped) & report_skipped(&mdm_skipped);
    fig.finish(ok);
}
