//! **§5.2 sensitivity to M2 write latency** — MDM vs PoM solo with
//! t_WR_M2 halved and doubled.
//!
//! Paper reference: doubling t_WR_M2 raises MDM's average improvement
//! over PoM from +14% to +18% (up to +61% for lbm); halving it lowers the
//! improvement to +12% (up to +27% for lbm). Expected shape: the MDM/PoM
//! geomean rises monotonically with t_WR_M2.

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
    let base_twr = SystemConfig::scaled_single().mem.m2.t_wr;
    let mut plan = CellPlan::new();
    let sweeps: Vec<_> = [0.5f64, 1.0, 2.0]
        .into_iter()
        .map(|mult| {
            let mut cfg = SystemConfig::scaled_single();
            cfg.mem.m2.t_wr = ((base_twr as f64) * mult) as u64;
            let pairs: Vec<_> = SpecProgram::ALL
                .into_iter()
                .filter(|&prog| prog != SpecProgram::Libquantum)
                .map(|prog| {
                    [PolicyKind::Pom, PolicyKind::Mdm].map(|pk| {
                        plan.add(Cell::solo(&cfg, pk, prog, target).labelled(format!(
                            "{}:{}:twr{mult}",
                            prog.name(),
                            pk.name()
                        )))
                    })
                })
                .collect();
            (mult, pairs)
        })
        .collect();
    let mut fig = Figure::start("sens_wr");
    println!("Sensitivity to M2 write latency (MDM/PoM solo IPC)\n");
    let run = fig.execute(&plan);
    let ok = run.report_health();
    if ok {
        let mut t = TextTable::new(vec!["t_WR_M2", "geomean MDM/PoM", "best", "worst"]);
        let mut geomeans = Vec::new();
        for (mult, pairs) in &sweeps {
            let ratios: Vec<f64> = pairs
                .iter()
                .filter_map(|&[pom, mdm]| Some(run.solo_ipc(mdm)? / run.solo_ipc(pom)?))
                .collect();
            let s = summarize(&ratios);
            geomeans.push(s.geomean);
            t.row(vec![
                format!("{mult:.1}x ({} cyc)", ((base_twr as f64) * mult) as u64),
                format!("{:+.1}%", (s.geomean - 1.0) * 100.0),
                format!("{:+.1}%", (s.best - 1.0) * 100.0),
                format!("{:+.1}%", (s.worst - 1.0) * 100.0),
            ]);
        }
        println!("{t}");
        let monotone = geomeans[0] <= geomeans[1] && geomeans[1] <= geomeans[2];
        println!(
            "MDM advantage vs t_WR_M2 is {}",
            if monotone {
                "monotonically increasing: shape holds (paper: 12% -> 14% -> 18%)"
            } else {
                "not monotone: shape DEVIATES from the paper (12% -> 14% -> 18%)"
            }
        );
    }
    fig.finish(ok);
}
