//! **Table 4** — Estimates of RSM sampling accuracy (paper §3.1.3).
//!
//! For bwaves, milc and omnetpp running alone, reports — for three
//! sampling-period durations M_samp — the mean per-region request-count
//! standard deviation (σ̂_req), and the standard deviation of the raw and
//! exponentially smoothed SF_A estimates across sampling periods.
//!
//! The paper sweeps M_samp ∈ {64 K, 128 K, 256 K} requests at its scale;
//! this reproduction sweeps the scaled analogues {8 K, 16 K, 32 K}
//! (capacities and run lengths are 1/32; see DESIGN.md). The paper's
//! reference values: averaging reduces σ of SF_A several-fold (e.g. milc
//! at 128 K: raw 13% → smoothed 3.3%), and doubling M_samp shrinks σ̂_req.
//! The eq. 4 analytic lower bound is printed for context.

use profess_bench::{init_trace_flag, target_from_args, Cell, CellPlan, Figure};
use profess_core::policies::rsm::analytic_sigma_fraction;
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(300_000);
    let mut plan = CellPlan::new();
    let cells: Vec<_> = [SpecProgram::Bwaves, SpecProgram::Milc, SpecProgram::Omnetpp]
        .into_iter()
        .flat_map(|prog| [8 * 1024u64, 16 * 1024, 32 * 1024].map(|m_samp| (prog, m_samp)))
        .map(|(prog, m_samp)| {
            let mut cfg = SystemConfig::scaled_single();
            cfg.rsm.m_samp = m_samp;
            // RSM's private regions require the ProFess OS support; the
            // paper's Table 4 likewise measures RSM while it is active.
            let cell = Cell::solo(&cfg, PolicyKind::Profess, prog, target)
                .sampled()
                .labelled(format!("{}:ProFess:msamp{m_samp}", prog.name()));
            (prog, m_samp, plan.add(cell))
        })
        .collect();
    let mut fig = Figure::start("table4");
    println!("Table 4: RSM sampling accuracy (scaled M_samp sweep)\n");
    println!(
        "eq. 4 analytic sigma (uniform model), N = 128 regions, M = 2^17: {:.1}%\n",
        100.0 * analytic_sigma_fraction(128, 1 << 17)
    );
    let run = fig.execute(&plan);
    let mut t = TextTable::new(vec![
        "program",
        "M_samp",
        "mean sigma_req (%)",
        "sigma raw_SFA (%)",
        "sigma avg_SFA (%)",
        "mean raw_SFA",
        "periods",
    ]);
    let mut ok = run.report_health();
    for (prog, m_samp, c) in cells {
        let Some(report) = run.report(c) else {
            continue;
        };
        let Some(s) = report.sampling[0].as_ref() else {
            eprintln!(
                "{}: no RSM sampling period completed at M_samp {m_samp}; raise the target",
                prog.name()
            );
            ok = false;
            continue;
        };
        // The SF_A sigmas are reported relative to the mean (~1 when
        // running alone), matching the paper's percentage convention.
        t.row(vec![
            prog.name().to_string(),
            format!("{}K", m_samp / 1024),
            format!("{:.1}", 100.0 * s.mean_sigma_req),
            format!("{:.1}", 100.0 * s.sigma_raw_sfa / s.mean_raw_sfa),
            format!("{:.1}", 100.0 * s.sigma_avg_sfa / s.mean_raw_sfa),
            format!("{:.3}", s.mean_raw_sfa),
            format!("{}", s.periods),
        ]);
    }
    println!("{t}");
    println!("Paper (at 32x scale, M_samp 64K/128K/256K):");
    println!("  bwaves  sigma_req 36/26/18%  raw_SFA 3/2/1%    avg_SFA 0.5/0.3/0.2%");
    println!("  milc    sigma_req 27/20/15%  raw_SFA 21/13/10% avg_SFA 5.1/3.3/2.7%");
    println!("  omnetpp sigma_req 15/12/10%  raw_SFA 6/5/4%    avg_SFA 2.1/1.6/1.4%");
    println!("Expected shape: sigma_req falls as M_samp doubles; smoothing");
    println!("cuts the SF_A sigma several-fold; mean raw SF_A ~= 1.");
    fig.finish(ok);
}
