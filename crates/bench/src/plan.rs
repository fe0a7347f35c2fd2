//! The cell planner: the one way to describe and run simulation cells.
//!
//! A *cell* is one simulation: a system configuration, a migration
//! policy, a subject (one Table 9 program alone, or a Table 10 workload
//! with one program per core), a memory-operation target, and whether
//! RSM region sampling is on. A figure declares every cell it needs
//! into a [`CellPlan`], runs the plan once, and renders from the
//! [`PlanRun`].
//!
//! Each cell is identified by its checkpoint-journal key (see
//! [`Cell::key`]). The paper normalizes every policy to PoM with a solo
//! baseline per policy (eq. 1), so figures declare the same PoM and
//! solo cells again and again; declaring a key twice yields two handles
//! to one execution. [`CellPlan::execute`] runs each unique cell once on
//! [`Pool::run_supervised`] — journal replay, snapshots, retries,
//! timeouts and fault injection included — and hands results back by
//! declaration handle, so the rendered output depends on neither the
//! thread count nor the declaration order of distinct cells.

use std::collections::BTreeMap;

use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
use profess_metrics::Json;
use profess_trace::{SpecProgram, Workload};
use profess_types::SystemConfig;

use crate::checkpoint::{self, config_fingerprint, Journal, MultiCell};
use crate::harness::{BenchJson, TraceCollector};
use crate::{
    conclude_single_cell, journal_from_env, run_cell, snapshot_key, snapshot_mode_from_env,
    supervise_from_env, Pool, SnapshotMode, SuperviseConfig,
};

/// What a cell simulates.
#[derive(Debug, Clone, Copy)]
enum Subject {
    /// One program running alone.
    Solo(SpecProgram),
    /// A multiprogram workload, program `i` pinned to core `i`.
    Multi(Workload),
}

/// One simulation cell, as a figure declares it.
#[derive(Debug, Clone)]
pub struct Cell {
    cfg: SystemConfig,
    policy: PolicyKind,
    subject: Subject,
    /// Memory-operation target per program.
    target: u64,
    /// Run RSM's sampled regions (ProFess OS support, Table 4).
    sample_regions: bool,
    /// Trace label override (see [`Cell::label`]).
    label: Option<String>,
}

impl Cell {
    /// One program alone on `cfg`.
    pub fn solo(cfg: &SystemConfig, policy: PolicyKind, prog: SpecProgram, target: u64) -> Cell {
        Cell::new(cfg, policy, Subject::Solo(prog), target)
    }

    /// A Table 10 (or family) workload on `cfg`.
    pub fn multi(cfg: &SystemConfig, policy: PolicyKind, w: &Workload, target: u64) -> Cell {
        Cell::new(cfg, policy, Subject::Multi(*w), target)
    }

    fn new(cfg: &SystemConfig, policy: PolicyKind, subject: Subject, target: u64) -> Cell {
        Cell {
            cfg: cfg.clone(),
            policy,
            subject,
            target,
            sample_regions: false,
            label: None,
        }
    }

    /// The same cell with RSM region sampling on.
    pub fn sampled(mut self) -> Cell {
        self.sample_regions = true;
        self
    }

    /// The same cell with an explicit trace label, for figures whose
    /// cells differ only in configuration.
    pub fn labelled(mut self, label: impl Into<String>) -> Cell {
        self.label = Some(label.into());
        self
    }

    /// The checkpoint-journal key: `solo|<policy>|<program>|<cfgfp>` or
    /// `multi|<policy>|<workload>|<cfgfp>`, where `cfgfp` is
    /// [`config_fingerprint`] of the configuration and target. Region
    /// sampling changes the simulation, so sampled cells carry a
    /// `|regions` suffix.
    pub fn key(&self) -> String {
        let cfgfp = config_fingerprint(&self.cfg, self.target);
        let pk = self.policy.name();
        let key = match self.subject {
            Subject::Solo(p) => format!("solo|{pk}|{}|{cfgfp}", p.name()),
            Subject::Multi(w) => format!("multi|{pk}|{}|{cfgfp}", w.id),
        };
        if self.sample_regions {
            key + "|regions"
        } else {
            key
        }
    }

    /// Display and trace label: the override if one was given, else
    /// `solo:<policy>:<program>` or `<workload>:<policy>`.
    fn label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        match self.subject {
            Subject::Solo(p) => format!("solo:{}:{}", self.policy.name(), p.name()),
            Subject::Multi(w) => format!("{}:{}", w.id, self.policy.name()),
        }
    }

    /// The simulation this cell describes, ready to run.
    fn builder(&self) -> SystemBuilder {
        let b = SystemBuilder::new(self.cfg.clone())
            .policy(self.policy)
            .sample_regions(self.sample_regions);
        match self.subject {
            Subject::Solo(p) => b.spec_program(p, p.budget_for_misses(self.target)),
            Subject::Multi(w) => b.workload(&w, self.target),
        }
    }

    /// Runs the cell directly, unsupervised (probes and tests that time
    /// or inspect a single run).
    pub fn run(&self) -> SystemReport {
        self.builder().run()
    }
}

/// A completed cell. Cells that ran in this process keep their full
/// report; journal-restored cells carry only the journaled values.
#[derive(Debug)]
enum CellOutput {
    /// A solo cell: the program's IPC.
    Solo {
        /// IPC of the program running alone.
        ipc: f64,
        /// The full report, if the cell ran in this process.
        report: Option<SystemReport>,
    },
    /// A multiprogram cell.
    Multi {
        /// The values row assembly consumes.
        cell: MultiCell,
        /// The full report, if the cell ran in this process.
        report: Option<SystemReport>,
    },
}

impl CellOutput {
    fn from_report(subject: Subject, report: SystemReport) -> CellOutput {
        match subject {
            Subject::Solo(_) => CellOutput::Solo {
                ipc: report.programs[0].ipc,
                report: Some(report),
            },
            Subject::Multi(_) => CellOutput::Multi {
                cell: MultiCell::from_report(&report),
                report: Some(report),
            },
        }
    }

    /// The journal payload: `{"ipc":…}` for solo cells, a
    /// [`MultiCell`] for multiprogram cells.
    fn to_json(&self) -> Json {
        match self {
            CellOutput::Solo { ipc, .. } => Json::obj([("ipc", Json::Num(*ipc))]),
            CellOutput::Multi { cell, .. } => cell.to_json(),
        }
    }

    fn decode(subject: Subject, payload: &Json) -> Option<CellOutput> {
        Some(match subject {
            Subject::Solo(_) => CellOutput::Solo {
                ipc: checkpoint::solo_ipc_from_json(payload)?,
                report: None,
            },
            Subject::Multi(_) => CellOutput::Multi {
                cell: MultiCell::from_json(payload)?,
                report: None,
            },
        })
    }

    /// The full report, if the cell ran in this process.
    fn report(&self) -> Option<&SystemReport> {
        match self {
            CellOutput::Solo { report, .. } | CellOutput::Multi { report, .. } => report.as_ref(),
        }
    }
}

/// One unique cell's execution record, kept for the harness artifact.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell's checkpoint-journal key.
    pub key: String,
    /// Display label (`w03:ProFess`, `solo:PoM:mcf`).
    pub label: String,
    /// `cached`, `ok`, `panicked`, `timed_out`, or `exhausted`.
    pub status: &'static str,
    /// Attempts made (0 for journal-restored cells).
    pub attempts: u32,
    /// One line per failed attempt, in attempt order.
    pub history: Vec<String>,
    /// Terminal failure description, if the cell failed.
    pub error: Option<String>,
}

/// Handle to one declared cell of a [`CellPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId(usize);

/// The cells a figure needs, deduplicated by journal key.
#[derive(Debug, Default)]
pub struct CellPlan {
    /// Unique cells with their keys, in first-declaration order.
    unique: Vec<(String, Cell)>,
    /// Key → index into `unique`.
    index: BTreeMap<String, usize>,
    /// Declaration → index into `unique`.
    declared: Vec<usize>,
    /// Declaration indices where a new stage begins (see
    /// [`CellPlan::next_stage`]).
    stages: Vec<usize>,
}

impl CellPlan {
    /// An empty plan.
    pub fn new() -> CellPlan {
        CellPlan::default()
    }

    /// Declares a cell. A key declared before returns a handle to the
    /// same execution (the first declaration's label wins).
    pub fn add(&mut self, cell: Cell) -> CellId {
        let key = cell.key();
        let u = match self.index.get(&key) {
            Some(&u) => u,
            None => {
                self.index.insert(key.clone(), self.unique.len());
                self.unique.push((key, cell));
                self.unique.len() - 1
            }
        };
        self.declared.push(u);
        CellId(self.declared.len() - 1)
    }

    /// Declares [`Cell::solo`].
    pub fn solo(
        &mut self,
        cfg: &SystemConfig,
        policy: PolicyKind,
        prog: SpecProgram,
        target: u64,
    ) -> CellId {
        self.add(Cell::solo(cfg, policy, prog, target))
    }

    /// Declares [`Cell::multi`].
    pub fn multi(
        &mut self,
        cfg: &SystemConfig,
        policy: PolicyKind,
        w: &Workload,
        target: u64,
    ) -> CellId {
        self.add(Cell::multi(cfg, policy, w, target))
    }

    /// Declarations made, duplicates included.
    pub fn declared(&self) -> usize {
        self.declared.len()
    }

    /// Starts a new stage: the cells declared from here on form one
    /// sweep for [`PlanRun::report_health`], which counts those an
    /// earlier stage already declared as restored — exactly what a sweep
    /// run after the earlier one would have replayed from the journal.
    /// Stages change reporting only; the plan still runs as one batch.
    pub fn next_stage(&mut self) {
        self.stages.push(self.declared.len());
    }

    /// Distinct cells, i.e. simulations a fresh run executes.
    pub fn unique(&self) -> usize {
        self.unique.len()
    }

    /// The unique cells' keys, in first-declaration order.
    pub(crate) fn keys(&self) -> Vec<String> {
        self.unique.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Runs every unique cell once and returns the results.
    ///
    /// Cells already in `journal` (same key, decodable payload) are
    /// restored instead of run. The rest run on `pool` under `sup`, in
    /// run order: pending multiprogram cells first, then pending solo
    /// cells, each in declaration order — the long cells start early, so
    /// the tail of a parallel run stays short. Fault-plan indices in
    /// `sup` are positions in this run order. Each completed cell is
    /// journaled the moment it finishes; with `snap` enabled a preempted
    /// cell journals a mid-run snapshot and its retry warm-starts from
    /// it (see [`run_cell`]).
    ///
    /// The trace of every cell that ran is recorded into `traces` in
    /// declaration order, so the artifact is thread-count invariant.
    pub fn execute(
        &self,
        pool: &Pool,
        sup: &SuperviseConfig,
        journal: &Journal,
        snap: &SnapshotMode,
        traces: &mut TraceCollector,
    ) -> PlanRun {
        let mut outputs: Vec<Option<CellOutput>> = self
            .unique
            .iter()
            .map(|(key, cell)| {
                journal
                    .lookup(key)
                    .and_then(|p| CellOutput::decode(cell.subject, &p))
            })
            .collect();
        let restored: Vec<bool> = outputs.iter().map(Option::is_some).collect();
        let mut pending: Vec<usize> = (0..self.unique.len()).filter(|&u| !restored[u]).collect();
        let resumed = self.unique.len() - pending.len();
        // Stable: multiprogram (false) before solo (true).
        pending.sort_by_key(|&u| matches!(self.unique[u].1.subject, Subject::Solo(_)));

        let outs = pool.run_supervised(&pending, sup, |ctx, &u| {
            let (key, cell) = &self.unique[u];
            let report = run_cell(cell.builder(), snap, journal, &snapshot_key(key), &ctx);
            let out = CellOutput::from_report(cell.subject, report);
            journal.record(key, out.to_json());
            out
        });

        let mut cells: Vec<CellRecord> = self
            .unique
            .iter()
            .map(|(key, cell)| CellRecord {
                key: key.clone(),
                label: cell.label(),
                status: "cached",
                attempts: 0,
                history: Vec::new(),
                error: None,
            })
            .collect();
        for (&u, out) in pending.iter().zip(outs) {
            let rec = &mut cells[u];
            rec.status = out.outcome.label();
            rec.attempts = out.attempts;
            rec.history = out.history;
            rec.error = out.outcome.error();
            outputs[u] = out.outcome.into_ok();
        }

        let mut sim_requests = 0;
        for (rec, out) in cells.iter().zip(&outputs) {
            if let Some(report) = out.as_ref().and_then(CellOutput::report) {
                sim_requests += report.total_served;
                traces.record(&rec.label, report);
            }
        }
        PlanRun {
            outputs,
            declared: self.declared.clone(),
            stages: self.stages.clone(),
            restored,
            cells,
            resumed,
            skipped_malformed: journal.rejected(),
            sim_requests,
        }
    }

    /// Runs (or skips) the **one** cell with journal key `key` — the
    /// shard worker's unit of work. A cell already in `journal` with a
    /// decodable payload is skipped (`Ok(false)`); otherwise it runs
    /// under single-slot supervision with `sup`'s retry budget and is
    /// journaled on success (`Ok(true)`). A terminal failure is `Err`
    /// with its description, as is a key this plan does not declare — a
    /// worker must never silently accept a cell it cannot map back to
    /// the sweep.
    pub(crate) fn run_one(
        &self,
        key: &str,
        sup: &SuperviseConfig,
        journal: &Journal,
    ) -> Result<bool, String> {
        let Some(&u) = self.index.get(key) else {
            return Err(format!("unknown cell key `{key}`"));
        };
        let cell = &self.unique[u].1;
        if journal
            .lookup(key)
            .and_then(|p| CellOutput::decode(cell.subject, &p))
            .is_some()
        {
            return Ok(false);
        }
        let outs = Pool::new(1).run_supervised(&[()], sup, |ctx, &()| {
            let report = run_cell(
                cell.builder(),
                &SnapshotMode::disabled(),
                journal,
                &snapshot_key(key),
                &ctx,
            );
            journal.record(key, CellOutput::from_report(cell.subject, report).to_json());
        });
        conclude_single_cell(outs)
    }
}

/// Everything a plan run produced.
#[derive(Debug)]
pub struct PlanRun {
    /// Per unique cell: its output, or `None` if it failed.
    outputs: Vec<Option<CellOutput>>,
    /// Declaration → index into `outputs`.
    declared: Vec<usize>,
    /// The plan's stage boundaries (declaration indices).
    stages: Vec<usize>,
    /// Per unique cell: restored from the journal?
    restored: Vec<bool>,
    /// Per unique cell, in first-declaration order.
    pub cells: Vec<CellRecord>,
    /// Cells restored from the checkpoint journal instead of running.
    pub resumed: usize,
    /// Malformed journal lines dropped at load time (each cost a rerun).
    pub skipped_malformed: usize,
    /// Requests served by the cells that ran in this process.
    pub sim_requests: u64,
}

impl PlanRun {
    /// The output of a declared cell (`None` if it failed).
    fn output(&self, id: CellId) -> Option<&CellOutput> {
        self.outputs[self.declared[id.0]].as_ref()
    }

    /// The full report of a declared cell that ran in this process.
    pub fn report(&self, id: CellId) -> Option<&SystemReport> {
        self.output(id).and_then(CellOutput::report)
    }

    /// The IPC of a declared solo cell.
    pub fn solo_ipc(&self, id: CellId) -> Option<f64> {
        match self.output(id)? {
            CellOutput::Solo { ipc, .. } => Some(*ipc),
            CellOutput::Multi { .. } => None,
        }
    }

    /// The journaled values of a declared multiprogram cell.
    pub fn multi(&self, id: CellId) -> Option<&MultiCell> {
        match self.output(id)? {
            CellOutput::Multi { cell, .. } => Some(cell),
            CellOutput::Solo { .. } => None,
        }
    }

    /// Declarations the plan held, duplicates included.
    pub fn declared(&self) -> usize {
        self.declared.len()
    }

    /// Cells that ran in this process (not journal-restored).
    pub fn executed(&self) -> usize {
        self.cells.len() - self.resumed
    }

    /// The cells with a terminal failure.
    pub fn failed_cells(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| c.error.is_some()).collect()
    }

    /// Did every cell produce an output?
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.error.is_none())
    }

    /// Prints, per stage (see [`CellPlan::next_stage`]), how many of
    /// its cells were restored — from the journal, or from an earlier
    /// stage — and every failed cell with its retry history; returns
    /// [`PlanRun::all_ok`].
    pub fn report_health(&self) -> bool {
        let mut bounds = vec![0];
        bounds.extend(&self.stages);
        bounds.push(self.declared.len());
        let mut earlier = vec![false; self.cells.len()];
        for w in bounds.windows(2) {
            let mut stage: Vec<usize> = Vec::new();
            for &u in &self.declared[w[0]..w[1]] {
                if !stage.contains(&u) {
                    stage.push(u);
                }
            }
            let restored = stage
                .iter()
                .filter(|&&u| earlier[u] || self.restored[u])
                .count();
            if restored > 0 {
                println!(
                    "checkpoint: {restored} cell(s) restored from journal, {} executed",
                    stage.len() - restored
                );
            }
            for u in stage {
                earlier[u] = true;
            }
        }
        report_failures(&self.cells);
        self.all_ok()
    }
}

/// Prints every failed cell with its retry history to stderr.
pub(crate) fn report_failures(cells: &[CellRecord]) {
    for c in cells.iter().filter(|c| c.error.is_some()) {
        eprintln!(
            "cell failed: {} [{}] after {} attempt(s): {}",
            c.label,
            c.status,
            c.attempts,
            c.error.as_deref().unwrap_or("unknown")
        );
        for h in &c.history {
            eprintln!("  {h}");
        }
    }
}

/// A figure binary's run context: the pool, supervision, journal and
/// snapshot settings from the environment, plus the `BENCH_<name>.json`
/// and `TRACE_<name>.jsonl` artifacts.
#[derive(Debug)]
pub struct Figure {
    pool: Pool,
    sup: SuperviseConfig,
    journal: Journal,
    snap: SnapshotMode,
    bench: BenchJson,
    traces: TraceCollector,
}

impl Figure {
    /// A context without a checkpoint journal: for figures that render
    /// from full reports, which the journal does not keep.
    pub fn start(name: &str) -> Figure {
        Figure::with_journal(name, Journal::disabled())
    }

    /// A context journaling to `PROFESS_CHECKPOINT` (see
    /// [`journal_from_env`]): for figures that render only from the
    /// journaled values ([`PlanRun::solo_ipc`], [`PlanRun::multi`]).
    pub fn start_journaled(name: &str) -> Figure {
        Figure::with_journal(name, journal_from_env(name))
    }

    fn with_journal(name: &str, journal: Journal) -> Figure {
        Figure {
            pool: Pool::from_env(),
            sup: supervise_from_env(),
            journal,
            snap: snapshot_mode_from_env(),
            bench: BenchJson::start(name),
            traces: TraceCollector::from_env(name),
        }
    }

    /// Runs `plan` and records its cells and counters in the artifact.
    pub fn execute(&mut self, plan: &CellPlan) -> PlanRun {
        let run = plan.execute(
            &self.pool,
            &self.sup,
            &self.journal,
            &self.snap,
            &mut self.traces,
        );
        self.bench.record_plan(&run);
        run
    }

    /// Writes the artifacts, then exits with
    /// [`crate::exit::SWEEP_FAILURE`] unless `ok`.
    pub fn finish(self, ok: bool) {
        self.traces.finish();
        self.bench.finish();
        if !ok {
            std::process::exit(crate::exit::SWEEP_FAILURE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared key scheme is pinned against the committed journals in
    /// `tests/plan.rs`; this covers the planner's own additions.
    #[test]
    fn sampled_keys_and_labels() {
        let cfg = SystemConfig::scaled_single();
        let fp = config_fingerprint(&cfg, 2_000);
        let solo = Cell::solo(&cfg, PolicyKind::Pom, SpecProgram::Mcf, 2_000);
        assert_eq!(
            solo.clone().sampled().key(),
            format!("solo|PoM|mcf|{fp}|regions")
        );
        assert_eq!(solo.label(), "solo:PoM:mcf");
        assert_eq!(solo.labelled("mcf:PoM:x").label(), "mcf:PoM:x");
        let w = profess_trace::workloads()[0];
        assert_eq!(Cell::multi(&cfg, PolicyKind::Mdm, &w, 1).label(), "w01:MDM");
    }
}
