//! Differential tests of the bandwidth–latency surface (DESIGN.md §13):
//! the `SURFACE_*.json` artifact must be byte-identical across thread
//! counts, and a sweep resumed from a partial checkpoint journal must
//! reproduce the uninterrupted golden run byte-for-byte. A small grid
//! keeps the suite in tier-1 time; `scripts/ci.sh` re-proves the same
//! properties end to end through the binaries, with fault injection.

use std::path::PathBuf;

use profess::prelude::PolicyKind;
use profess_bench::checkpoint::Journal;
use profess_bench::harness::TraceCollector;
use profess_bench::surface::{surface_sweep, surface_to_json, validate_surface, SurfaceSpec};
use profess_bench::{Pool, SuperviseConfig};
use profess_types::SystemConfig;

fn tiny_spec() -> SurfaceSpec {
    let mut spec = SurfaceSpec::new(vec![PolicyKind::Pom, PolicyKind::Profess]);
    spec.read_fracs = vec![0.6, 0.9];
    spec.intensities = vec![8.0, 32.0];
    spec.target_ops = 3_000;
    spec
}

fn run_surface(pool: &Pool, journal: &Journal) -> (String, usize, usize) {
    let cfg = SystemConfig::scaled_quad();
    let spec = tiny_spec();
    let mut traces = TraceCollector::disabled();
    let run = surface_sweep(
        pool,
        &cfg,
        &spec,
        &SuperviseConfig::default(),
        journal,
        &mut traces,
    );
    assert!(run.all_ok(), "cells failed: {:?}", run.skipped);
    let doc = surface_to_json("surface", &spec, &run.points).to_string();
    (doc, run.resumed, run.executed())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profess-surface-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn surface_is_byte_identical_across_thread_counts() {
    let (one, _, _) = run_surface(&Pool::new(1), &Journal::disabled());
    let (four, _, _) = run_surface(&Pool::new(4), &Journal::disabled());
    assert_eq!(one, four, "surface bytes depend on the thread count");
    validate_surface(&one, 0.05).expect("surface validates");
}

#[test]
fn resumed_surface_matches_uninterrupted_golden() {
    let (golden, _, executed) = run_surface(&Pool::new(2), &Journal::disabled());
    assert_eq!(
        executed, 8,
        "tiny grid is 2 policies x 2 ratios x 2 intensities"
    );

    // Journal a full run, then truncate the journal to its first three
    // cells — the state a kill mid-sweep leaves behind — and resume.
    let dir = scratch("resume");
    let full = dir.join("full.jsonl");
    let (from_journal, _, _) =
        run_surface(&Pool::new(2), &Journal::load(&full).expect("open journal"));
    assert_eq!(from_journal, golden);

    let text = std::fs::read_to_string(&full).expect("journal written");
    let kept: Vec<&str> = text.lines().take(3).collect();
    assert_eq!(kept.len(), 3, "journal shorter than expected");
    let partial = dir.join("partial.jsonl");
    std::fs::write(&partial, format!("{}\n", kept.join("\n"))).expect("partial journal");

    let journal = Journal::load(&partial).expect("open partial journal");
    let (resumed, restored, ran) = run_surface(&Pool::new(2), &journal);
    assert_eq!(restored, 3, "three cells restore from the partial journal");
    assert_eq!(ran, 5, "the remaining five cells execute");
    assert_eq!(
        resumed, golden,
        "a resumed surface must be byte-identical to the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}
