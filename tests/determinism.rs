//! Determinism: identical configurations and seeds must reproduce
//! identical results (the simulator is a measurement instrument), and
//! different seeds must actually change the run.
//!
//! The golden tests serialize the full [`SystemReport`] through
//! [`profess::report::report_to_json`] and compare the *bytes*: the
//! in-tree JSON emitter preserves field order and formats floats with
//! exact shortest-round-trip notation, so any nondeterminism anywhere in
//! a run — placement, sampling, migration, timing, energy — shows up as
//! a string diff.

use profess::prelude::*;
use profess::report::report_to_json;
use profess_bench::harness::TraceCollector;
use profess_bench::{
    rows_to_json, CellPlan, FaultPlan, Journal, NormalizedSweep, Pool, SnapshotMode,
    SuperviseConfig,
};

/// Every migration policy the simulator implements.
const ALL_POLICIES: [PolicyKind; 9] = [
    PolicyKind::Static,
    PolicyKind::Cameo,
    PolicyKind::Pom,
    PolicyKind::MemPod,
    PolicyKind::Mdm,
    PolicyKind::Profess,
    PolicyKind::ProfessNoCase3,
    PolicyKind::SilcFm,
    PolicyKind::RsmPom,
];

fn run_with_seed(seed: u64) -> SystemReport {
    let mut cfg = SystemConfig::scaled_single();
    cfg.seed = seed;
    cfg.rsm.m_samp = 1024;
    SystemBuilder::new(cfg)
        .policy(PolicyKind::Profess)
        .spec_program(
            SpecProgram::Soplex,
            SpecProgram::Soplex.budget_for_misses(10_000),
        )
        .run()
}

#[test]
fn same_seed_same_result() {
    let a = run_with_seed(42);
    let b = run_with_seed(42);
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
    assert_eq!(a.total_served, b.total_served);
    assert_eq!(a.swaps, b.swaps);
    assert_eq!(a.programs[0].instructions, b.programs[0].instructions);
    assert!((a.programs[0].ipc - b.programs[0].ipc).abs() < 1e-12);
    assert!((a.energy_joules - b.energy_joules).abs() < 1e-12);
}

#[test]
fn different_seed_different_result() {
    let a = run_with_seed(1);
    let b = run_with_seed(2);
    // Page placement and access streams differ, so cycle counts do too.
    assert_ne!(
        (a.elapsed_cycles, a.swaps),
        (b.elapsed_cycles, b.swaps),
        "different seeds produced identical runs"
    );
}

#[test]
fn multiprogram_same_seed_same_result() {
    let run = || {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.rsm.m_samp = 512;
        let w = workloads()[2];
        let mut b = SystemBuilder::new(cfg).policy(PolicyKind::Mdm);
        for p in w.programs {
            b = b.spec_program(p, p.budget_for_misses(4_000));
        }
        b.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
    assert_eq!(a.swaps, b.swaps);
    for (x, y) in a.programs.iter().zip(&b.programs) {
        assert!((x.ipc - y.ipc).abs() < 1e-12);
    }
}

/// Golden test: a single-program run under every policy, serialized
/// twice, must be byte-identical — and the serialized report must
/// survive a JSON parse round-trip.
#[test]
fn golden_report_identical_across_runs_for_every_policy() {
    for pk in ALL_POLICIES {
        let run = || {
            let mut cfg = SystemConfig::scaled_single();
            cfg.seed = 7;
            cfg.rsm.m_samp = 1024;
            SystemBuilder::new(cfg)
                .policy(pk)
                .spec_program(
                    SpecProgram::Milc,
                    SpecProgram::Milc.budget_for_misses(5_000),
                )
                .run()
        };
        let a = report_to_json(&run()).to_string();
        let b = report_to_json(&run()).to_string();
        assert_eq!(a, b, "policy {} is not run-to-run deterministic", pk.name());
        let parsed = profess::metrics::Json::parse(&a)
            .unwrap_or_else(|e| panic!("policy {}: emitted invalid JSON: {e:?}", pk.name()));
        assert_eq!(
            parsed.to_string(),
            a,
            "policy {}: JSON not canonical",
            pk.name()
        );
    }
}

/// Golden test: a quad-core multiprogram workload under every policy,
/// serialized twice, must be byte-identical.
#[test]
fn golden_multiprogram_report_identical_for_every_policy() {
    for pk in ALL_POLICIES {
        let run = || {
            let mut cfg = SystemConfig::scaled_quad();
            cfg.seed = 99;
            cfg.rsm.m_samp = 512;
            let w = workloads()[0];
            let mut b = SystemBuilder::new(cfg).policy(pk);
            for p in w.programs {
                b = b.spec_program(p, p.budget_for_misses(2_000));
            }
            b.run()
        };
        let a = report_to_json(&run()).to_string();
        let b = report_to_json(&run()).to_string();
        assert_eq!(
            a,
            b,
            "policy {} is not deterministic on a multiprogram workload",
            pk.name()
        );
    }
}

/// A normalized ProFess-vs-PoM sweep over two workloads, declared into
/// one cell plan and run on `threads` workers with single-attempt
/// supervision and no journal. Returns the canonical row JSON and the
/// number of unique cells the plan ran.
fn planned_sweep(threads: usize, traces: &mut TraceCollector) -> (String, usize) {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 11;
    cfg.rsm.m_samp = 512;
    let ws = workloads();
    let subset = [ws[0], ws[7]];
    let mut plan = CellPlan::new();
    let sweep = NormalizedSweep::declare(&mut plan, &cfg, PolicyKind::Profess, 2_000, &subset);
    let strict = SuperviseConfig {
        retries: 0,
        timeout: None,
        faults: FaultPlan::none(),
    };
    let run = plan.execute(
        &Pool::new(threads),
        &strict,
        &Journal::disabled(),
        &SnapshotMode::disabled(),
        traces,
    );
    assert!(run.all_ok(), "sweep cell failed: {:?}", run.failed_cells());
    (rows_to_json(&sweep.rows(&run).0), plan.unique())
}

/// A sweep driven through the thread pool must emit byte-identical rows
/// no matter how many workers run it: `Pool::new(1)` is the fully serial
/// path (no worker threads at all; the semantics `PROFESS_THREADS=1`
/// selects), `Pool::new(4)` oversubscribes the jobs across four workers
/// (`PROFESS_THREADS=4`). The pools are constructed explicitly so the
/// test does not mutate process-global environment state.
#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    let (serial, _) = planned_sweep(1, &mut TraceCollector::disabled());
    let (parallel, _) = planned_sweep(4, &mut TraceCollector::disabled());
    assert!(
        serial.contains("\"id\""),
        "sweep produced no rows: {serial}"
    );
    assert_eq!(
        serial, parallel,
        "4-thread sweep diverged from the serial sweep"
    );
}

/// The trace artifact must be as deterministic as the reports it rides
/// with: a traced sweep collected through `Pool::new(1)` and
/// `Pool::new(4)` must produce byte-identical JSONL. This pins the
/// collector to declaration order — recording in completion order would
/// pass the report test above while shuffling runs in the artifact.
///
/// Cell builders take the environment's trace configuration, so this
/// test sets `PROFESS_TRACE=1` for the whole process. That is safe
/// alongside the untraced tests in this binary: tracing is
/// observation-only (the fingerprint suite proves reports are
/// byte-identical with it on or off), so their assertions are unaffected.
#[test]
fn traced_sweep_is_thread_count_invariant() {
    std::env::set_var(profess::obs::TRACE_ENV, "1");
    let run = |threads: usize| {
        let mut traces = TraceCollector::forced("det");
        let (_, unique) = planned_sweep(threads, &mut traces);
        // The plan traces every cell it ran: the solo references too.
        assert_eq!(traces.runs(), unique as u64, "one trace per cell");
        let jsonl = traces.jsonl().to_string();
        assert_eq!(
            jsonl.matches("{\"type\":\"run\",\"label\":\"w").count(),
            4,
            "2 workloads x (PoM + ProFess)"
        );
        jsonl
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(
        serial.contains("\"type\":\"run\"") && serial.contains("\"type\":\"rsm_epoch\""),
        "traced sweep produced no substantive trace"
    );
    assert_eq!(
        serial, parallel,
        "4-thread traced sweep diverged from the serial traced sweep"
    );
}

/// Two *distinct* multiprogram workloads must not serialize identically
/// (guards against the report accidentally ignoring the programs).
#[test]
fn golden_reports_distinguish_workloads() {
    let run = |wi: usize| {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.seed = 5;
        cfg.rsm.m_samp = 512;
        let w = workloads()[wi];
        let mut b = SystemBuilder::new(cfg).policy(PolicyKind::Profess);
        for p in w.programs {
            b = b.spec_program(p, p.budget_for_misses(2_000));
        }
        b.run()
    };
    let a = report_to_json(&run(0)).to_string();
    let b = report_to_json(&run(1)).to_string();
    assert_ne!(a, b, "different workloads serialized identically");
}
