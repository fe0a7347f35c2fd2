//! The cell planner (`profess_bench::plan`): every unique cell runs once,
//! results do not depend on the thread count or on the order distinct
//! cells were declared in, and cell keys stay those of the committed
//! checkpoint goldens.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use profess::metrics::Json;
use profess::prelude::*;
use profess_bench::harness::TraceCollector;
use profess_bench::{
    checkpoint, normalized_cell_keys, normalized_sweep_supervised, rows_to_json, Cell, CellPlan,
    FaultPlan, Journal, PlanRun, Pool, SlowdownCells, SnapshotMode, SuperviseConfig,
};

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 11;
    cfg.rsm.m_samp = 512;
    cfg
}

fn strict() -> SuperviseConfig {
    SuperviseConfig {
        retries: 0,
        timeout: None,
        faults: FaultPlan::none(),
    }
}

fn execute(plan: &CellPlan, threads: usize, journal: &Journal) -> PlanRun {
    plan.execute(
        &Pool::new(threads),
        &strict(),
        journal,
        &SnapshotMode::disabled(),
        &mut TraceCollector::disabled(),
    )
}

/// A fresh journal path unique to this process and call site.
fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "profess-plan-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// A key declared twice runs once: the journal — one line per
/// execution — holds exactly one line per unique cell, and both handles
/// read the same result.
#[test]
fn duplicate_declaration_runs_exactly_once() {
    let cfg = cfg();
    let w = workloads()[0];
    let mut plan = CellPlan::new();
    let a = plan.multi(&cfg, PolicyKind::Pom, &w, 1_000);
    let solo = plan.solo(&cfg, PolicyKind::Pom, SpecProgram::Mcf, 1_000);
    let b = plan.multi(&cfg, PolicyKind::Pom, &w, 1_000);
    assert_eq!((plan.declared(), plan.unique()), (3, 2));

    let path = temp_journal("dup");
    let journal = Journal::load(&path).expect("create journal");
    let r = execute(&plan, 2, &journal);
    drop(journal);
    assert!(r.all_ok());
    assert_eq!((r.declared(), r.cells.len(), r.executed()), (3, 2, 2));
    let entries = checkpoint::entries_of_file(&path).expect("journal strict-decodes");
    assert_eq!(entries.len(), 2, "one execution per unique cell");
    assert_eq!(r.multi(a), r.multi(b));
    assert!(r.solo_ipc(solo).is_some());
    assert_eq!(
        r.sim_requests,
        r.report(a).expect("ran here").total_served
            + r.report(solo).expect("ran here").total_served,
        "served requests count each executed cell once"
    );

    // Replaying the journal runs nothing and restores identical values.
    let journal = Journal::load(&path).expect("reload journal");
    let again = execute(&plan, 1, &journal);
    assert_eq!((again.resumed, again.executed()), (2, 0));
    assert_eq!(again.multi(a), r.multi(a));
    assert!(again.report(a).is_none(), "restored cells carry no report");
    std::fs::remove_file(&path).ok();
}

/// Eq. 1 metrics for four (workload, policy) pairs, declared in `order`
/// and rendered in a fixed order.
fn render(order: &[usize], threads: usize) -> String {
    let cfg = cfg();
    let ws = workloads();
    let pairs = [
        (ws[0], PolicyKind::Pom),
        (ws[0], PolicyKind::Profess),
        (ws[7], PolicyKind::Pom),
        (ws[7], PolicyKind::Mdm),
    ];
    let mut plan = CellPlan::new();
    let mut cells: Vec<Option<SlowdownCells>> = vec![None; pairs.len()];
    for &i in order {
        let (w, pk) = pairs[i];
        cells[i] = Some(SlowdownCells::declare(&mut plan, &cfg, pk, &w, 1_500));
    }
    let r = execute(&plan, threads, &Journal::disabled());
    assert!(r.all_ok());
    cells
        .iter()
        .map(|c| format!("{:?}", c.as_ref().and_then(|c| c.metrics(&r))))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Rendered rows are byte-identical at 1 and 3 threads, and under a
/// shuffled declaration order (which changes both the unique-cell order
/// and the run order).
#[test]
fn rendered_rows_ignore_threads_and_declaration_order() {
    let reference = render(&[0, 1, 2, 3], 1);
    assert!(reference.contains("weighted_speedup"), "{reference}");
    assert_eq!(render(&[0, 1, 2, 3], 3), reference, "3 threads diverged");
    assert_eq!(
        render(&[3, 1, 0, 2], 3),
        reference,
        "shuffled order diverged"
    );
    assert_eq!(
        render(&[2, 3, 1, 0], 1),
        reference,
        "shuffled serial diverged"
    );
}

/// The journal keys are the ones the committed shard goldens
/// (`results/CHECKPOINT_shard_ci.jsonl`, `results/ROWS_shard_ci.json`)
/// were written with: a renamed key would silently orphan every
/// existing journal.
#[test]
fn keys_are_pinned_to_the_shard_goldens() {
    let cfg = SystemConfig::scaled_quad();
    let w01 = workloads()[0];
    assert_eq!(
        Cell::solo(&cfg, PolicyKind::Pom, SpecProgram::Mcf, 400).key(),
        "solo|PoM|mcf|c3cb90c0e83c9038"
    );
    assert_eq!(
        Cell::multi(&cfg, PolicyKind::Mdm, &w01, 400).key(),
        "multi|MDM|w01|c3cb90c0e83c9038"
    );
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let golden =
        std::fs::read_to_string(root.join("CHECKPOINT_shard_ci.jsonl")).expect("golden journal");
    let golden_keys: Vec<String> = golden
        .lines()
        .map(
            |l| match Json::parse(l).expect("golden line parses").get("key") {
                Some(Json::Str(k)) => k.clone(),
                other => panic!("golden line without a key: {other:?}"),
            },
        )
        .collect();
    assert_eq!(
        normalized_cell_keys(&cfg, PolicyKind::Mdm, 400, &[w01]),
        golden_keys,
        "cell order"
    );

    // Replaying the golden journal reproduces the golden rows without
    // running anything.
    let copy = temp_journal("golden");
    std::fs::copy(root.join("CHECKPOINT_shard_ci.jsonl"), &copy).expect("copy golden");
    let journal = Journal::load(&copy).expect("load golden");
    let sweep = normalized_sweep_supervised(
        &Pool::new(1),
        &cfg,
        PolicyKind::Mdm,
        400,
        &[w01],
        &strict(),
        &journal,
        &SnapshotMode::disabled(),
        &mut TraceCollector::disabled(),
    );
    assert_eq!(sweep.executed(), 0, "every cell replays from the golden");
    let rows = std::fs::read_to_string(root.join("ROWS_shard_ci.json")).expect("golden rows");
    assert_eq!(rows_to_json(&sweep.rows), rows);
    std::fs::remove_file(&copy).ok();
}
