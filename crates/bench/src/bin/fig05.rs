//! **Figure 5** — Single-program performance of MDM normalized to PoM
//! (paper §5.1).
//!
//! IPC of each Table 9 program running alone on the single-core system
//! under MDM, normalized to PoM, summarized as a Tukey box plot with the
//! geometric mean, as in the paper.
//!
//! Paper reference: MDM outperforms PoM by 14% on average (geomean), up
//! to +38% for lbm, with omnetpp insignificantly lower (~-1.5%).
//! libquantum is shown separately: at default scale its footprint fits M1
//! entirely and the schemes perform identically; in an appropriately
//! reduced-M1 system MDM wins (+30% in the paper) — both checks appear at
//! the end of the output.

use profess_bench::{
    init_trace_flag, summarize, target_from_args, Cell, CellPlan, Figure, SOLO_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_metrics::BoxPlot;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(SOLO_TARGET_MISSES);
    let cfg = SystemConfig::scaled_single();
    let progs: Vec<SpecProgram> = SpecProgram::ALL
        .into_iter()
        .filter(|&p| p != SpecProgram::Libquantum) // shown separately below
        .collect();
    let mut plan = CellPlan::new();
    let pairs: Vec<_> = progs
        .iter()
        .map(|&prog| {
            (
                plan.solo(&cfg, PolicyKind::Pom, prog, target),
                plan.solo(&cfg, PolicyKind::Mdm, prog, target),
            )
        })
        .collect();
    // libquantum at default scale (fits M1) and with a reduced M1.
    // The paper's reduced system: 4 MB M1 / 32 MB M2 at its scale; ours is
    // that divided by the same 32 => 128 KB M1. The smallest geometry that
    // keeps 128 regions is 512 KB M1, still well below the 1 MB footprint.
    let lq = SpecProgram::Libquantum;
    let small =
        profess_types::geometry::Geometry::new(2048, 64, 4096, 1, 512 << 10, 8, 128, 16, 8192, 8);
    let mut cfg_small = cfg.clone();
    cfg_small.org = small;
    cfg_small.stc.entries = 32;
    let lq_cells: Vec<_> = [
        (&cfg, PolicyKind::Pom, ""),
        (&cfg, PolicyKind::Mdm, ""),
        (&cfg_small, PolicyKind::Pom, ":smallM1"),
        (&cfg_small, PolicyKind::Mdm, ":smallM1"),
    ]
    .into_iter()
    .map(|(c, pk, tag)| {
        plan.add(Cell::solo(c, pk, lq, target).labelled(format!("libquantum:{}{tag}", pk.name())))
    })
    .collect();

    let mut fig = Figure::start("fig05");
    println!("Figure 5: single-program IPC of MDM normalized to PoM\n");
    let run = fig.execute(&plan);
    let ipc = |id| run.solo_ipc(id);
    let mut t = TextTable::new(vec!["program", "PoM IPC", "MDM IPC", "MDM/PoM"]);
    let mut ratios = Vec::new();
    for (prog, &(pom, mdm)) in progs.iter().zip(&pairs) {
        let (Some(pom), Some(mdm)) = (ipc(pom), ipc(mdm)) else {
            continue;
        };
        let r = mdm / pom;
        ratios.push(r);
        t.row(vec![
            prog.name().to_string(),
            format!("{pom:.3}"),
            format!("{mdm:.3}"),
            format!("{r:.3}"),
        ]);
    }
    println!("{t}");
    let ok = run.report_health();
    if ok {
        let s = summarize(&ratios);
        println!("Box plot: {}", BoxPlot::from_values(&ratios));
        println!(
            "geomean {:+.1}%  best {:+.1}%  worst {:+.1}%",
            (s.geomean - 1.0) * 100.0,
            (s.best - 1.0) * 100.0,
            (s.worst - 1.0) * 100.0
        );
        println!("Paper: avg +14%, up to +38% (lbm), omnetpp ~-1.5%.\n");
        let lq_ratio = |pom: usize, mdm: usize| {
            ipc(lq_cells[mdm]).unwrap_or(f64::NAN) / ipc(lq_cells[pom]).unwrap_or(f64::NAN)
        };
        println!(
            "libquantum, default scale (footprint fits M1): MDM/PoM = {:.3} (paper: ~1.00)",
            lq_ratio(0, 1)
        );
        println!(
            "libquantum, reduced M1 (512 KB < footprint): MDM/PoM = {:.3} (paper: +30% in its reduced system)",
            lq_ratio(2, 3)
        );
    }
    fig.finish(ok);
}
