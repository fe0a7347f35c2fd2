//! **Figure 7** — Single-program STC hit rates under MDM (paper §5.1).
//!
//! Paper reference: most programs sit in the high 90s; mcf's irregular
//! accesses drop it to ~85% and omnetpp's very irregular accesses to
//! ~70%. The reproduction's expected shape: regular (scan/hot-spot)
//! programs well above the irregular pointer-chasers, with omnetpp and
//! mcf lowest.

use profess_bench::{init_trace_flag, target_from_args, CellPlan, Figure, SOLO_TARGET_MISSES};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(SOLO_TARGET_MISSES);
    let cfg = SystemConfig::scaled_single();
    let mut plan = CellPlan::new();
    let cells: Vec<_> = SpecProgram::ALL
        .into_iter()
        .map(|prog| (prog, plan.solo(&cfg, PolicyKind::Mdm, prog, target)))
        .collect();
    let mut fig = Figure::start("fig07");
    println!("Figure 7: single-program STC hit rates under MDM\n");
    let run = fig.execute(&plan);
    let ok = run.report_health();
    if ok {
        let rows: Vec<(String, f64)> = cells
            .iter()
            .filter_map(|&(prog, c)| Some((prog.name().to_string(), run.report(c)?.stc_hit_rate)))
            .collect();
        print_rates(&rows);
    }
    fig.finish(ok);
}

fn print_rates(rows: &[(String, f64)]) {
    let mut t = TextTable::new(vec!["program", "STC hit rate (%)"]);
    for (name, hr) in rows {
        t.row(vec![name.clone(), format!("{:.1}", 100.0 * hr)]);
    }
    println!("{t}");
    let irregular: Vec<&(String, f64)> = rows
        .iter()
        .filter(|(n, _)| n == "mcf" || n == "omnetpp")
        .collect();
    let regular_min = rows
        .iter()
        .filter(|(n, _)| n != "mcf" && n != "omnetpp")
        .map(|&(_, h)| h)
        .fold(f64::MAX, f64::min);
    let irregular_max = irregular.iter().map(|&&(_, h)| h).fold(f64::MIN, f64::max);
    println!(
        "regular programs' minimum: {:.1}%; irregular maximum: {:.1}% ({})",
        100.0 * regular_min,
        100.0 * irregular_max,
        if irregular_max < regular_min {
            "shape holds: irregular < regular, as in the paper"
        } else {
            "shape DEVIATES from the paper"
        }
    );
    println!("Paper: ~94% typical; mcf ~85%; omnetpp ~70%.");
}
