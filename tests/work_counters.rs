//! Pinned run-loop work counters of two traced cells: the solo PoM cell
//! and the Table 10 quad ProFess cell behind the pinned fingerprints.
//!
//! The counters (DESIGN.md §8.1) are host-independent integers, so they
//! pin exactly how much work the event loop does: a change that makes a
//! component wake more or less often moves them even when every report
//! byte stays the same. If a change is *meant* to alter them, re-pin from
//! the fresh table the failure prints.

mod common;

use common::{multi_builder, single_builder};
use profess::obs::TraceConfig;
use profess::prelude::*;

const COUNTERS: [&str; 5] = [
    "loop_steps",
    "core_advances",
    "channel_advances",
    "channel_picks",
    "queue_entries_planned",
];

/// `(cell, counters in COUNTERS order)`.
const PINNED: [(&str, [u64; 5]); 2] = [
    ("solo_pom", [19072, 10329, 14127, 21549, 102454]),
    ("quad_profess", [101677, 64709, 80827, 129502, 800874]),
];

fn work_counters(b: SystemBuilder) -> [u64; 5] {
    let report = b.trace(TraceConfig::on()).run();
    let log = report.trace.expect("tracing was on");
    COUNTERS.map(|name| {
        log.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    })
}

#[test]
fn work_counters_match_pinned_values() {
    let fresh = [
        work_counters(single_builder(PolicyKind::Pom)),
        work_counters(multi_builder(PolicyKind::Profess)),
    ];
    let mut table = String::new();
    for (&(cell, _), got) in PINNED.iter().zip(&fresh) {
        table.push_str(&format!("    (\"{cell}\", {got:?}),\n"));
    }
    for (&(cell, pinned), got) in PINNED.iter().zip(&fresh) {
        assert_eq!(
            *got, pinned,
            "{cell} work counters {COUNTERS:?} drifted\n\nfresh table:\n{table}"
        );
        // Every step advances at least one component.
        assert!(got[1] + got[2] >= got[0], "{cell}: idle loop steps");
    }
}
