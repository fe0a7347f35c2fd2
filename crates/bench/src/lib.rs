//! Shared harness code for the benchmark binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see
//! `DESIGN.md` for the experiment index). This library provides the run
//! orchestration they share: the cell planner ([`plan`]) every binary
//! declares its simulations into, slowdown computation against
//! per-policy solo references (eq. 1), normalized PoM-relative sweeps,
//! and their printing and artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod exit;
pub mod harness;
pub mod plan;
pub mod surface;

use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
use profess_metrics::{unfairness, weighted_speedup};
use profess_trace::Workload;
use profess_types::SystemConfig;

pub use checkpoint::{Journal, MultiCell};
pub use plan::{Cell, CellId, CellPlan, CellRecord, Figure, PlanRun};
pub use profess_par::{FaultPlan, Pool, SuperviseConfig, Supervised, TaskOutcome};

/// Default memory operations per program for single-program experiments.
pub const SOLO_TARGET_MISSES: u64 = 120_000;

/// Default memory operations per program for multiprogram experiments.
pub const MULTI_TARGET_MISSES: u64 = 60_000;

/// Terminates the current bench binary with a usage error (exit
/// status 2, the conventional Unix code for bad invocations).
///
/// The figure/table binaries share one argument shape — `[--trace]
/// [<target-misses>] [<workload-id>...]` — so malformed input gets one
/// diagnostic and a usage line instead of a panic backtrace per binary.
pub fn usage_error(msg: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or("bench");
    eprintln!("{bin}: error: {msg}");
    eprintln!("usage: {bin} [--trace] [<target-misses>] [<workload-id>...]");
    std::process::exit(exit::USAGE)
}

/// Reads the per-program memory-operation target: first non-flag CLI
/// argument (flags like `--trace` are skipped), then the
/// `PROFESS_TARGET` environment variable, then `default`. A present but
/// non-numeric value is a usage error, not a silent fallback.
pub fn target_from_args(default: u64) -> u64 {
    let (source, value) = match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(v) => ("argument", v),
        None => match std::env::var("PROFESS_TARGET") {
            Ok(v) => ("PROFESS_TARGET", v),
            Err(_) => return default,
        },
    };
    match value.parse() {
        Ok(t) => t,
        Err(_) => usage_error(&format!(
            "memory-operation target {source} `{value}` is not an unsigned integer"
        )),
    }
}

/// Looks a workload id up, exiting with a usage error naming the known
/// ids when it does not exist. Bench binaries should prefer this to
/// unwrapping [`workload_by_id`](profess_trace::workload::workload_by_id);
/// the typed [`profess_trace::UnknownWorkload`] error already lists
/// every valid id, so the usage path surfaces it verbatim.
pub fn workload_or_usage(id: &str) -> Workload {
    profess_trace::workload::workload_by_id(id).unwrap_or_else(|e| usage_error(&e.to_string()))
}

/// Reads the supervision config (`PROFESS_RETRIES`,
/// `PROFESS_TASK_TIMEOUT_MS`, `PROFESS_FAULT`) from the environment,
/// reporting invalid values as usage errors (exit 2) instead of a
/// panic backtrace.
pub fn supervise_from_env() -> SuperviseConfig {
    SuperviseConfig::from_env().unwrap_or_else(|e| usage_error(&e))
}

/// Opens the checkpoint journal selected by `PROFESS_CHECKPOINT` for
/// sweep artifact `name`: unset, empty, or `0` yields a disabled
/// journal; `1` journals to `CHECKPOINT_<name>.jsonl` in
/// [`harness::results_dir`]; any other value names the journal
/// directory. An unopenable journal is a usage error — silently
/// running without the checkpointing the caller asked for would make
/// a later kill unrecoverable.
pub fn journal_from_env(name: &str) -> Journal {
    let dir = match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Err(_) => return Journal::disabled(),
        Ok(v) if v.is_empty() || v == "0" => return Journal::disabled(),
        Ok(v) if v == "1" => harness::results_dir(),
        Ok(v) => std::path::PathBuf::from(v),
    };
    let path = dir.join(format!("CHECKPOINT_{name}.jsonl"));
    match Journal::load(&path) {
        Ok(j) => {
            println!(
                "checkpoint journal: {} ({} cells replayed, {} lines dropped)",
                path.display(),
                j.loaded(),
                j.rejected()
            );
            j
        }
        Err(e) => usage_error(&format!(
            "cannot open checkpoint journal {}: {e}",
            path.display()
        )),
    }
}

/// Parses the sweep binaries' shared CLI shape — `[--trace] [<target>]
/// [<workload-id>...]` — into the memory-operation target and the
/// workload subset. A numeric first non-flag argument is the target
/// (else `PROFESS_TARGET`, else `default_target`); the remaining
/// non-flag arguments select workloads (default: all Table 10
/// workloads). Unknown ids are usage errors.
pub fn sweep_args(default_target: u64) -> (u64, Vec<Workload>) {
    let rest: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    // profess: allow(determinism_taint): target override is config echoed into the checkpoint fingerprint; resumed runs see identical values
    let env_target = || match std::env::var("PROFESS_TARGET") {
        Ok(v) => match v.parse() {
            Ok(t) => t,
            Err(_) => usage_error(&format!(
                "memory-operation target PROFESS_TARGET `{v}` is not an unsigned integer"
            )),
        },
        Err(_) => default_target,
    };
    let (target, ids): (u64, &[String]) = match rest.split_first() {
        Some((first, tail)) => match first.parse::<u64>() {
            Ok(t) => (t, tail),
            Err(_) => (env_target(), &rest[..]),
        },
        None => (env_target(), &rest[..]),
    };
    let workloads = if ids.is_empty() {
        profess_trace::workloads().to_vec()
    } else {
        ids.iter().map(|id| workload_or_usage(id)).collect()
    };
    (target, workloads)
}

/// Handles the figure binaries' `--trace` flag: when present, sets
/// `PROFESS_TRACE=1` so every [`SystemBuilder`] constructed afterwards
/// (they default to [`profess_obs::TraceConfig::from_env`]) records a
/// trace. Returns whether tracing is active (flag or pre-set
/// environment). Call this before the first simulation.
pub fn init_trace_flag() -> bool {
    if std::env::args().skip(1).any(|a| a == "--trace") {
        std::env::set_var(profess_obs::TRACE_ENV, "1");
    }
    profess_obs::TraceConfig::from_env().enabled
}

/// Summary statistics of a normalized series (`measured / baseline`).
#[derive(Debug, Clone, Copy)]
pub struct NormSummary {
    /// Geometric mean of the ratios.
    pub geomean: f64,
    /// Best ratio (max for >1-is-better metrics, reported as-is).
    pub best: f64,
    /// Worst ratio.
    pub worst: f64,
}

/// Summarizes a series of ratios.
///
/// # Panics
///
/// Panics on an empty series.
pub fn summarize(ratios: &[f64]) -> NormSummary {
    NormSummary {
        geomean: profess_metrics::geomean(ratios),
        best: ratios.iter().copied().fold(f64::MIN, f64::max),
        worst: ratios.iter().copied().fold(f64::MAX, f64::min),
    }
}

/// Results of a multiprogram run reduced to the paper's figures of merit.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Workload id.
    pub id: String,
    /// Per-program slowdowns (eq. 1), in core order.
    pub slowdowns: Vec<f64>,
    /// Weighted speedup.
    pub weighted_speedup: f64,
    /// Max slowdown.
    pub unfairness: f64,
    /// Served requests per joule.
    pub energy_efficiency: f64,
    /// Mean read latency, cycles.
    pub read_latency: f64,
    /// Fraction of swaps among served requests.
    pub swap_fraction: f64,
}

/// Computes a workload's metrics from its multiprogram cell and the
/// matching solo (uncontended) IPCs per program, measured under the same
/// policy (eq. 1).
///
/// Both freshly-simulated and journal-restored cells flow through this
/// function, so the floating-point arithmetic — and therefore every
/// rendered figure — is identical whether a cell ran in this process or
/// was replayed from a checkpoint.
pub fn workload_metrics_cell(id: &str, cell: &MultiCell, solo_ipcs: &[f64]) -> WorkloadMetrics {
    assert_eq!(cell.ipcs.len(), solo_ipcs.len());
    let slowdowns: Vec<f64> = cell
        .ipcs
        .iter()
        .zip(solo_ipcs)
        .map(|(&ipc, &sp)| profess_metrics::slowdown(sp, ipc))
        .collect();
    WorkloadMetrics {
        id: id.to_string(),
        weighted_speedup: weighted_speedup(&slowdowns),
        unfairness: unfairness(&slowdowns),
        energy_efficiency: cell.requests_per_joule,
        read_latency: cell.avg_read_latency,
        swap_fraction: cell.swap_fraction(),
        slowdowns,
    }
}

/// A workload's multiprogram cell plus one solo reference per program,
/// all under one policy: the cells eq. 1 needs.
#[derive(Debug, Clone)]
pub struct SlowdownCells {
    /// The workload.
    pub workload: Workload,
    /// The multiprogram cell.
    pub multi: CellId,
    /// Solo references, in core order.
    pub solo: Vec<CellId>,
}

impl SlowdownCells {
    /// Declares `w`'s multiprogram cell and its solo references under
    /// `policy` on `cfg`.
    pub fn declare(
        plan: &mut CellPlan,
        cfg: &SystemConfig,
        policy: PolicyKind,
        w: &Workload,
        target: u64,
    ) -> SlowdownCells {
        let solo = w
            .programs
            .iter()
            .map(|&p| plan.solo(cfg, policy, p, target))
            .collect();
        SlowdownCells {
            workload: *w,
            multi: plan.multi(cfg, policy, w, target),
            solo,
        }
    }

    /// The workload's metrics, or `None` if any of its cells failed.
    pub fn metrics(&self, run: &PlanRun) -> Option<WorkloadMetrics> {
        let solo: Vec<f64> = self
            .solo
            .iter()
            .map(|&c| run.solo_ipc(c))
            .collect::<Option<_>>()?;
        Some(workload_metrics_cell(
            self.workload.id,
            run.multi(self.multi)?,
            &solo,
        ))
    }
}

/// One row of a normalized multiprogram sweep: `policy` metrics over the
/// PoM baseline for the same workload.
#[derive(Debug, Clone)]
pub struct NormalizedRow {
    /// Workload id.
    pub id: String,
    /// Max-slowdown ratio (policy / PoM; < 1 = fairness improved).
    pub unfairness: f64,
    /// Weighted-speedup ratio (> 1 = performance improved).
    pub weighted_speedup: f64,
    /// Energy-efficiency ratio (> 1 = improved).
    pub energy_efficiency: f64,
    /// Read-latency ratio (< 1 = improved).
    pub read_latency: f64,
    /// Swap-fraction ratio (< 1 = fewer swaps per request).
    pub swap_fraction: f64,
}

/// The cells of a normalized sweep — every workload under `policy` and
/// under the PoM baseline, each with per-policy solo references (eq. 1)
/// — declared into a [`CellPlan`].
#[derive(Debug, Clone)]
pub struct NormalizedSweep {
    /// Per workload: (PoM cells, `policy` cells).
    pairs: Vec<(SlowdownCells, SlowdownCells)>,
}

impl NormalizedSweep {
    /// Declares the sweep's cells in its canonical *cell order*: solo
    /// references first (policy-major, PoM before `policy`, first-seen
    /// program order), then two multiprogram cells per workload, PoM
    /// before `policy`. Run alone, this order is the plan's key order
    /// ([`CellPlan::keys`]).
    pub fn declare(
        plan: &mut CellPlan,
        cfg: &SystemConfig,
        policy: PolicyKind,
        target: u64,
        workloads: &[Workload],
    ) -> NormalizedSweep {
        let policies = [PolicyKind::Pom, policy];
        let solos: Vec<Vec<Vec<CellId>>> = policies
            .iter()
            .map(|&pk| {
                workloads
                    .iter()
                    .map(|w| {
                        w.programs
                            .iter()
                            .map(|&p| plan.solo(cfg, pk, p, target))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let pairs = workloads
            .iter()
            .enumerate()
            .map(|(wi, w)| {
                let [base, m] = [0, 1].map(|k| SlowdownCells {
                    workload: *w,
                    multi: plan.multi(cfg, policies[k], w, target),
                    solo: solos[k][wi].clone(),
                });
                (base, m)
            })
            .collect();
        NormalizedSweep { pairs }
    }

    /// Normalized rows for every workload whose cells all succeeded, in
    /// workload order, and the ids of the workloads left out.
    pub fn rows(&self, run: &PlanRun) -> (Vec<NormalizedRow>, Vec<String>) {
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for (base, m) in &self.pairs {
            match (base.metrics(run), m.metrics(run)) {
                (Some(base), Some(m)) => rows.push(NormalizedRow {
                    id: m.id,
                    unfairness: m.unfairness / base.unfairness,
                    weighted_speedup: m.weighted_speedup / base.weighted_speedup,
                    energy_efficiency: m.energy_efficiency / base.energy_efficiency,
                    read_latency: m.read_latency / base.read_latency,
                    swap_fraction: m.swap_fraction / base.swap_fraction.max(1e-12),
                }),
                _ => skipped.push(base.workload.id.to_string()),
            }
        }
        (rows, skipped)
    }
}

/// Everything a supervised normalized sweep produced.
#[derive(Debug)]
pub struct SweepRun {
    /// Normalized rows for every workload whose cells all succeeded, in
    /// workload order.
    pub rows: Vec<NormalizedRow>,
    /// Per-cell execution records, in cell order (see
    /// [`NormalizedSweep::declare`]).
    pub cells: Vec<CellRecord>,
    /// Workload ids missing from `rows` because a required cell failed.
    pub skipped: Vec<String>,
    /// Cells restored from the checkpoint journal instead of running.
    pub resumed: usize,
    /// Malformed journal lines silently dropped at load time (each one
    /// cost a cell rerun). Surfaced here — and in the `BENCH_*.json`
    /// artifact — so a decaying journal is visible, not silent.
    pub skipped_malformed: usize,
}

impl SweepRun {
    /// Did every workload produce a row?
    pub fn all_ok(&self) -> bool {
        self.skipped.is_empty()
    }

    /// The cells with a terminal failure.
    pub fn failed_cells(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| c.error.is_some()).collect()
    }

    /// Cells that actually ran this process (not journal-restored).
    pub fn executed(&self) -> usize {
        self.cells.len() - self.resumed
    }
}

/// Exit status the figure binaries use when a supervised sweep ends
/// with at least one terminally-failed cell (distinct from the usage
/// error exit 2 and the fault-injected kill exit
/// [`profess_par::FAULT_EXIT_CODE`]). Alias of [`exit::SWEEP_FAILURE`],
/// kept for the existing binaries' imports.
pub const SWEEP_FAILURE_EXIT_CODE: i32 = exit::SWEEP_FAILURE;

/// Prints the workloads a sweep assembled no row for, if any; returns
/// whether every workload has its row.
pub fn report_skipped(skipped: &[String]) -> bool {
    if !skipped.is_empty() {
        eprintln!("workloads without results: {}", skipped.join(" "));
    }
    skipped.is_empty()
}

/// Runs one cell under a cancel token. Simulator errors (budget,
/// deadlock, cancellation) become panics so the supervisor classifies
/// them per cell, and retries them cold, instead of the process dying.
pub(crate) fn run_cell(b: SystemBuilder, ctx: &profess_par::TaskCtx<'_>) -> SystemReport {
    match b.cancel_token(ctx.cancel.clone()).try_run() {
        Ok(r) => r,
        // profess: allow(panic): converts the typed SimError into a supervised per-cell failure
        Err(e) => panic!("{e}"),
    }
}

/// Declares a normalized sweep into a fresh plan.
fn normalized_plan(
    cfg: &SystemConfig,
    policy: PolicyKind,
    target_misses: u64,
    workloads: &[Workload],
) -> (CellPlan, NormalizedSweep) {
    let mut plan = CellPlan::new();
    let sweep = NormalizedSweep::declare(&mut plan, cfg, policy, target_misses, workloads);
    (plan, sweep)
}

/// A normalized sweep of `workloads` (`policy` over PoM) run as one
/// [`CellPlan`]: see [`CellPlan::execute`] for journal replay, supervision
/// and trace recording, and [`NormalizedSweep::rows`] for the row
/// assembly. Rows come only from workloads whose cells all succeeded;
/// the rest are listed in [`SweepRun::skipped`]. Both fresh and restored
/// cells flow through [`workload_metrics_cell`], so a resumed sweep's
/// rows are byte-identical to an uninterrupted run's, at any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn normalized_sweep_supervised(
    pool: &Pool,
    cfg: &SystemConfig,
    policy: PolicyKind,
    target_misses: u64,
    workloads: &[Workload],
    sup: &SuperviseConfig,
    journal: &Journal,
    traces: &mut harness::TraceCollector,
) -> SweepRun {
    let (plan, sweep) = normalized_plan(cfg, policy, target_misses, workloads);
    let run = plan.execute(pool, sup, journal, traces);
    let (rows, skipped) = sweep.rows(&run);
    SweepRun {
        rows,
        skipped,
        resumed: run.resumed,
        skipped_malformed: run.skipped_malformed,
        cells: run.cells,
    }
}

/// Serializes sweep rows to a canonical JSON string (used to assert that
/// parallel and serial sweeps are byte-identical).
pub fn rows_to_json(rows: &[NormalizedRow]) -> String {
    use profess_metrics::Json;
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.id.clone())),
                    ("unfairness", Json::Num(r.unfairness)),
                    ("weighted_speedup", Json::Num(r.weighted_speedup)),
                    ("energy_efficiency", Json::Num(r.energy_efficiency)),
                    ("read_latency", Json::Num(r.read_latency)),
                    ("swap_fraction", Json::Num(r.swap_fraction)),
                ])
            })
            .collect(),
    )
    .to_string()
}

/// Writes a sweep's rows as `ROWS_<name>.json` into
/// [`harness::results_dir`] (the [`rows_to_json`] canonical rendering),
/// so CI can byte-compare a sweep's rows against a committed golden. An I/O
/// failure is a warning — a missing artifact must not fail the sweep
/// that produced real results.
pub fn write_rows_artifact(name: &str, rows: &[NormalizedRow]) {
    let dir = harness::results_dir();
    let path = dir.join(format!("ROWS_{name}.json"));
    let io = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rows_to_json(rows)));
    match io {
        Ok(()) => println!("rows artifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints a normalized sweep as the three paper figures' series plus a
/// summary line, and returns (unfairness, weighted-speedup, efficiency)
/// geomeans.
pub fn print_sweep(title: &str, rows: &[NormalizedRow]) -> (f64, f64, f64) {
    use profess_metrics::table::TextTable;
    println!(
        "{title}
"
    );
    let mut t = TextTable::new(vec![
        "workload",
        "max-slowdown",
        "weighted-speedup",
        "energy-eff",
        "read-lat",
        "swap-frac",
    ]);
    for r in rows {
        t.row(vec![
            r.id.clone(),
            format!("{:.3}", r.unfairness),
            format!("{:.3}", r.weighted_speedup),
            format!("{:.3}", r.energy_efficiency),
            format!("{:.3}", r.read_latency),
            format!("{:.3}", r.swap_fraction),
        ]);
    }
    println!("{t}");
    let g = |f: fn(&NormalizedRow) -> f64| {
        profess_metrics::geomean(&rows.iter().map(f).collect::<Vec<_>>())
    };
    let (unf, ws, eff) = (
        g(|r| r.unfairness),
        g(|r| r.weighted_speedup),
        g(|r| r.energy_efficiency),
    );
    println!(
        "geomeans: max-slowdown {:+.1}%  weighted-speedup {:+.1}%  energy-eff {:+.1}%  read-lat {:+.1}%  swap-frac {:+.1}%",
        (unf - 1.0) * 100.0,
        (ws - 1.0) * 100.0,
        (eff - 1.0) * 100.0,
        (g(|r| r.read_latency) - 1.0) * 100.0,
        (g(|r| r.swap_fraction) - 1.0) * 100.0,
    );
    (unf, ws, eff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(ipcs: &[f64]) -> SystemReport {
        SystemReport {
            policy: "X".into(),
            programs: ipcs
                .iter()
                .map(|&ipc| profess_core::system::ProgramReport {
                    name: "p".into(),
                    instructions: 1000,
                    core_cycles: 1000,
                    ipc,
                    served: 100,
                    served_from_m1: 50,
                    read_latency_avg: 10.0,
                    restarts: 0,
                })
                .collect(),
            elapsed_cycles: 1,
            total_served: 400,
            swaps: 40,
            stc_hit_rate: 0.9,
            energy_joules: 1.0,
            requests_per_joule: 400.0,
            avg_read_latency_cycles: 10.0,
            row_hit_rate: 0.5,
            truncated: false,
            sampling: vec![],
            diag: Default::default(),
            trace: None,
        }
    }

    #[test]
    fn metrics_from_report() {
        let multi = fake_report(&[1.0, 2.0]);
        let m = workload_metrics_cell("w01", &MultiCell::from_report(&multi), &[2.0, 2.0]);
        assert_eq!(m.slowdowns, vec![2.0, 1.0]);
        assert!((m.unfairness - 2.0).abs() < 1e-12);
        assert!((m.weighted_speedup - 1.5).abs() < 1e-12);
        assert!((m.swap_fraction - 0.1).abs() < 1e-12);
    }
}
