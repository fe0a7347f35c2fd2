//! **§2.5 MemPod vs PoM** — average main-memory access time (AMMAT, the
//! metric preferred by MemPod's authors) under MemPod relative to PoM.
//!
//! Paper reference: in this technology setting (DRAM + NVM rather than
//! MemPod's original on-/off-chip DRAM), MemPod's average access time is
//! *longer* than PoM's by 19% (single-program) and 18% (multi-program),
//! because it lacks cost-benefit analysis; this motivates PoM as the
//! paper's baseline.
//!
//! The solo and multiprogram runs form one supervised cell plan
//! (`PROFESS_RETRIES`, `PROFESS_TASK_TIMEOUT_MS`, `PROFESS_FAULT`): a
//! failed simulation drops its comparison pair and the binary exits
//! non-zero, instead of one panic killing the batch. This comparison is
//! not checkpointed — it renders from full reports, which the journal
//! does not keep; the resumable sweeps are `fig10_12`/`fig13_15`.

use profess_bench::{
    init_trace_flag, summarize, target_from_args, CellPlan, Figure, PlanRun, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::{workloads, SpecProgram};
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(MULTI_TARGET_MISSES);
    let mut plan = CellPlan::new();
    let pair = [PolicyKind::Pom, PolicyKind::MemPod];
    // Single-program.
    let cfg1 = SystemConfig::scaled_single();
    let solo: Vec<_> = SpecProgram::ALL
        .into_iter()
        .map(|p| (p, pair.map(|pk| plan.solo(&cfg1, pk, p, target))))
        .collect();
    // Multi-program over a subset of workloads (every fourth, for time).
    let cfg4 = SystemConfig::scaled_quad();
    let multi: Vec<_> = workloads()
        .iter()
        .step_by(4)
        .map(|w| pair.map(|pk| plan.multi(&cfg4, pk, w, target)))
        .collect();
    let mut fig = Figure::start("mempod_vs_pom");
    println!("MemPod vs PoM: average read latency (AMMAT proxy)\n");
    let run = fig.execute(&plan);
    let mut t = TextTable::new(vec!["program", "PoM lat", "MemPod lat", "ratio"]);
    let mut solo_ratios = Vec::new();
    for (prog, ids) in &solo {
        let Some([pom, pod]) = latencies(&run, *ids) else {
            continue;
        };
        let r = pod / pom;
        solo_ratios.push(r);
        t.row(vec![
            prog.name().to_string(),
            format!("{pom:.1}"),
            format!("{pod:.1}"),
            format!("{r:.3}"),
        ]);
    }
    println!("{t}");
    let solo_geomean = if solo_ratios.is_empty() {
        f64::NAN
    } else {
        let s = summarize(&solo_ratios);
        println!(
            "single-program geomean: {:+.1}% (paper: +19%)\n",
            (s.geomean - 1.0) * 100.0
        );
        s.geomean
    };
    let multi_ratios: Vec<f64> = multi
        .iter()
        .filter_map(|&ids| latencies(&run, ids).map(|[pom, pod]| pod / pom))
        .collect();
    if !multi_ratios.is_empty() {
        let m = summarize(&multi_ratios);
        println!(
            "multi-program geomean ({} workloads): {:+.1}% (paper: +18%)",
            multi_ratios.len(),
            (m.geomean - 1.0) * 100.0
        );
        println!(
            "shape {}",
            if solo_geomean > 1.0 && m.geomean > 1.0 {
                "holds: MemPod's access time is longer than PoM's"
            } else {
                "DEVIATES: MemPod did not lose to PoM here"
            }
        );
    }
    fig.finish(run.report_health());
}

/// Mean read latencies of a (PoM, MemPod) cell pair, if both ran.
fn latencies(run: &PlanRun, ids: [profess_bench::CellId; 2]) -> Option<[f64; 2]> {
    let [pom, pod] = ids.map(|c| run.report(c).map(|r| r.avg_read_latency_cycles));
    Some([pom?, pod?])
}
