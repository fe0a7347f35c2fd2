//! Property tests of the core model: instruction accounting, IPC bounds,
//! liveness under random op streams served by a random-latency memory,
//! and the exactness of the core's event-driven wake rule.

use profess_check::strategy::{
    any_bool, tuple2, tuple3, tuple4, tuple5, u32_range, u64_range, u8_range, usize_range, vec_of,
};
use profess_check::{check_with, prop_assert, prop_assert_eq, Config, Strategy};
use profess_cpu::{CoreSim, MemOp, MemOpKind, OpSource, WaitState};
use profess_types::clock::ClockSpec;
use profess_types::config::CpuConfig;
use profess_types::Cycle;

fn cfg() -> CpuConfig {
    CpuConfig {
        num_cores: 1,
        rob: 64,
        width: 4,
        mshrs: 8,
        write_buffer: 16,
    }
}

#[derive(Debug, Clone)]
struct OpSpec {
    gap: u8,
    store: bool,
    dependent: bool,
    latency: u8,
}

impl OpSpec {
    fn from_tuple(&(gap, store, dependent, latency): &(u8, bool, bool, u8)) -> OpSpec {
        OpSpec {
            gap,
            store,
            dependent,
            latency,
        }
    }
}

/// Raw op streams; tuples are mapped to [`OpSpec`] inside the properties
/// so shrinking stays in the generator's own domain.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, bool, bool, u8)>> {
    vec_of(
        tuple4(u8_range(0..40), any_bool(), any_bool(), u8_range(1..200)),
        1..80,
    )
}

fn cases64() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn specs_of(raw: &[(u8, bool, bool, u8)]) -> Vec<OpSpec> {
    raw.iter().map(OpSpec::from_tuple).collect()
}

struct Scripted {
    ops: Vec<MemOp>,
    i: usize,
}

impl OpSource for Scripted {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.i).copied();
        self.i += 1;
        op
    }
}

/// Runs the core against per-request latencies; returns (instructions,
/// finish cycle, requests issued).
fn run(specs: &[OpSpec]) -> (u64, Cycle, usize) {
    let ops: Vec<MemOp> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| MemOp {
            gap: u32::from(s.gap),
            kind: if s.store {
                MemOpKind::Store
            } else {
                MemOpKind::Load
            },
            line: i as u64,
            dependent: s.dependent && !s.store,
        })
        .collect();
    let clock = ClockSpec::paper();
    let mut core = CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }));
    let mut pending: Vec<(Cycle, u64)> = Vec::new();
    let mut now = Cycle(0);
    let mut issued = 0usize;
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 2_000_000, "core stuck");
        let mut out = Vec::new();
        core.advance(now, &mut out);
        for r in out {
            // Latency keyed by the op order (line encodes the index).
            let lat = u64::from(specs[r.line as usize].latency);
            pending.push((now + lat, r.id));
            issued += 1;
        }
        if core.is_finished() {
            break;
        }
        let mut next = core.next_event(now);
        for &(d, _) in &pending {
            next = next.min(d);
        }
        assert!(
            next < Cycle::NEVER,
            "deadlock: core waits but no memory pending (state {:?})",
            core.wait_state()
        );
        now = next.max(now + 1);
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (at, id) = pending.swap_remove(i);
                core.complete(id, at);
            } else {
                i += 1;
            }
        }
    }
    (core.instructions(), now, issued)
}

#[test]
fn instruction_accounting_and_liveness() {
    check_with(
        &cases64(),
        &[],
        "instruction_accounting_and_liveness",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let (instructions, finish, issued) = run(&specs);
            let expected: u64 = specs.iter().map(|s| u64::from(s.gap) + 1).sum();
            prop_assert_eq!(instructions, expected);
            prop_assert_eq!(issued, specs.len());
            prop_assert!(finish > Cycle::ZERO);
            Ok(())
        },
    );
}

#[test]
fn ipc_never_exceeds_width() {
    check_with(
        &cases64(),
        &[],
        "ipc_never_exceeds_width",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let ops: Vec<MemOp> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| MemOp {
                    gap: u32::from(s.gap),
                    kind: if s.store {
                        MemOpKind::Store
                    } else {
                        MemOpKind::Load
                    },
                    line: i as u64,
                    dependent: false,
                })
                .collect();
            let clock = ClockSpec::paper();
            let mut core = CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }));
            // Instant memory: complete every request immediately.
            let mut now = Cycle(0);
            let mut guard = 0;
            while !core.is_finished() {
                guard += 1;
                prop_assert!(guard < 1_000_000);
                let mut out = Vec::new();
                core.advance(now, &mut out);
                for r in out {
                    core.complete(r.id, now);
                }
                if matches!(core.wait_state(), WaitState::Finished) {
                    break;
                }
                now = core.next_event(now).max(now + 1).min(now + 1_000);
            }
            prop_assert!(core.ipc() <= 4.0 + 1e-9, "ipc {}", core.ipc());
            prop_assert!(core.ipc() > 0.0);
            Ok(())
        },
    );
}

#[test]
fn slower_memory_never_finishes_earlier() {
    check_with(
        &cases64(),
        &[],
        "slower_memory_never_finishes_earlier",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let fast: Vec<OpSpec> = specs
                .iter()
                .cloned()
                .map(|mut s| {
                    s.latency = 1;
                    s
                })
                .collect();
            let slow: Vec<OpSpec> = specs
                .iter()
                .cloned()
                .map(|mut s| {
                    s.latency = 200;
                    s
                })
                .collect();
            let (_, t_fast, _) = run(&fast);
            let (_, t_slow, _) = run(&slow);
            prop_assert!(t_slow >= t_fast, "slow {} < fast {}", t_slow, t_fast);
            Ok(())
        },
    );
}

/// What a driven core observably did: every issued request as
/// `(cycle, id, is_store, line)`, and per program instance
/// `(finish cycle, finish slot, instructions, IPC bits)`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Observed {
    issued: Vec<(u64, u64, bool, u64)>,
    finishes: Vec<(u64, Option<u64>, u64, u64)>,
}

/// Runs `ops` (then `restarts` more instances of it) on one core against
/// a memory that completes every request `latency` cycles after issue.
/// `polled` advances the core at every memory cycle; otherwise it is
/// advanced only at its own `next_event` and at cycles that deliver a
/// completion, as `System::run` drives it.
fn drive(cfg: &CpuConfig, ops: &[MemOp], latency: u64, restarts: u32, polled: bool) -> Observed {
    let clock = ClockSpec::paper();
    let source = || {
        Box::new(Scripted {
            ops: ops.to_vec(),
            i: 0,
        })
    };
    let mut core = CoreSim::new(cfg, &clock, source());
    let mut pending: Vec<(Cycle, u64)> = Vec::new();
    let mut seen = Observed::default();
    let mut left = restarts;
    let mut now = Cycle(0);
    for _ in 0..5_000_000 {
        // Memory first, then the core, as in one `System::run` step.
        pending.retain(|&(done, id)| {
            if done <= now {
                core.complete(id, done);
            }
            done > now
        });
        let mut out = Vec::new();
        core.advance(now, &mut out);
        for r in out {
            seen.issued
                .push((now.raw(), r.id, r.kind == MemOpKind::Store, r.line));
            pending.push((now + latency, r.id));
        }
        if core.is_finished() {
            seen.finishes.push((
                now.raw(),
                core.finish_slot(),
                core.instructions(),
                core.ipc().to_bits(),
            ));
            if left == 0 {
                return seen;
            }
            left -= 1;
            core.restart(source());
        }
        now = if polled {
            now + 1
        } else {
            let mut next = core.next_event(now);
            for &(done, _) in &pending {
                next = next.min(done);
            }
            assert!(next < Cycle::NEVER, "deadlock in {:?}", core.wait_state());
            next
        };
    }
    panic!("core stuck");
}

/// Differential test of the wake rule: a core woken only at its
/// reported `next_event` (and at completions) must issue the same
/// requests at the same cycles, and finish at the same slot with the
/// same instruction count and IPC, as a twin advanced every cycle.
#[test]
fn event_driven_wakes_match_polling_every_cycle() {
    let strategy = tuple3(
        tuple5(
            usize_range(16..257), // ROB
            usize_range(1..17),   // MSHRs
            usize_range(1..65),   // write buffer
            u32_range(1..9),      // width
            u32_range(0..3),      // restarts
        ),
        u64_range(1..300), // memory latency
        // (gap, kind): 0 load, 1 dependent load, 2 store.
        vec_of(tuple2(u32_range(0..301), u8_range(0..3)), 1..50),
    );
    check_with(
        &cases64(),
        &[],
        "event_driven_wakes_match_polling_every_cycle",
        strategy,
        |&((rob, mshrs, write_buffer, width, restarts), latency, ref raw)| {
            let cfg = CpuConfig {
                num_cores: 1,
                rob,
                width,
                mshrs,
                write_buffer,
            };
            let ops: Vec<MemOp> = raw
                .iter()
                .enumerate()
                .map(|(i, &(gap, kind))| MemOp {
                    gap,
                    kind: if kind == 2 {
                        MemOpKind::Store
                    } else {
                        MemOpKind::Load
                    },
                    line: i as u64,
                    dependent: kind == 1,
                })
                .collect();
            let polled = drive(&cfg, &ops, latency, restarts, true);
            let evented = drive(&cfg, &ops, latency, restarts, false);
            prop_assert_eq!(polled.finishes.len(), restarts as usize + 1);
            prop_assert_eq!(evented, polled);
            Ok(())
        },
    );
}
