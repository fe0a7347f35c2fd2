//! Fairness under attack: the adversarial hot-set-churn family
//! (`churn01`, DESIGN.md §13.3) is designed to thrash probabilistic
//! migration filters, and the RSM-integrated policy must keep the
//! max-slowdown spread bounded on it while a policy with no fairness
//! mechanism does not.
//!
//! Slowdowns follow the paper's eq. 1: per-program IPC in the shared
//! run against the same program's solo IPC under the same policy and
//! configuration. The runs are fully deterministic (the same builder
//! config is pinned byte-exact by `tests/fingerprints.rs`), so the
//! bounds are regression rails, not statistical margins: measured
//! spreads are 1.145 (ProFess) vs 1.911 (MemPod), and a policy change
//! that erodes the separation trips this test before it shows up in
//! any figure.

mod common;

use common::{family_builder, FAMILY_MISSES};
use profess::prelude::*;
use profess_bench::{workload_metrics_cell, Cell, MultiCell};

/// Spread the RSM-governed policy must stay within on `churn01`.
const RSM_SPREAD_BOUND: f64 = 1.40;
/// Spread the no-fairness baseline provably exceeds on `churn01`.
const BASELINE_SPREAD_FLOOR: f64 = 1.60;

/// Max/min per-program slowdown of `policy` on the churn family, with
/// solo references measured under the same policy and configuration.
fn churn_spread(policy: PolicyKind) -> (f64, f64) {
    let families = profess::trace::family_workloads();
    let churn = families
        .iter()
        .find(|w| w.id == "churn01")
        .expect("churn01 family registered");
    let cfg = common::family_config();
    let solo: Vec<f64> = churn
        .programs
        .iter()
        .map(|&p| Cell::solo(&cfg, policy, p, FAMILY_MISSES).run().programs[0].ipc)
        .collect();
    let multi = family_builder(churn, policy).run();
    let m = workload_metrics_cell(churn.id, &MultiCell::from_report(&multi), &solo);
    let max = m.slowdowns.iter().cloned().fold(0.0f64, f64::max);
    let min = m.slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
    (max / min, max)
}

#[test]
fn rsm_bounds_slowdown_spread_under_churn_attack() {
    let (profess_spread, profess_max) = churn_spread(PolicyKind::Profess);
    let (baseline_spread, baseline_max) = churn_spread(PolicyKind::MemPod);
    assert!(
        profess_spread <= RSM_SPREAD_BOUND,
        "ProFess slowdown spread {profess_spread:.3} exceeds the pinned bound \
         {RSM_SPREAD_BOUND} on churn01 — RSM no longer contains the churn attack"
    );
    assert!(
        baseline_spread >= BASELINE_SPREAD_FLOOR,
        "MemPod slowdown spread {baseline_spread:.3} fell below {BASELINE_SPREAD_FLOOR} \
         on churn01 — the adversarial family no longer distinguishes a no-fairness \
         baseline, so the RSM bound above is vacuous; re-tune the family"
    );
    assert!(
        profess_max < baseline_max,
        "ProFess max slowdown {profess_max:.3} is no better than the no-fairness \
         baseline's {baseline_max:.3} on churn01"
    );
}
