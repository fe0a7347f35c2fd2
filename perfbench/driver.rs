//! In-process workload driver for the repository benchmark.
//!
//! `perfdrive <workload> <seed> <seconds> <trace 0|1>` runs one of the
//! in-process workloads (`quad_mix`, `solo_sweep`, `write_heavy`) and
//! prints one JSON line: the attempted and failed cell counts, the
//! workload digest and the metrics. `run.py` builds and drives it.
//!
//! Layer timing uses public hooks only: every generator is wrapped in
//! the `SystemBuilder::program` factory, the policy `System::new` would
//! build is wrapped and installed through `custom_policy`, and the
//! histograms come from `TraceConfig::on()`. Nothing inside the
//! simulator is instrumented.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use profess::core::policies::pom::PomPolicy;
use profess::core::policies::profess::ProfessPolicy;
use profess::core::policies::static_::StaticPolicy;
use profess::core::policies::{AccessCtx, EvictRecord, PolicyDiagnostics};
use profess::core::{Decision, MigrationPolicy, PolicyKind, RegionClass, SystemBuilder};
use profess::core::{SimBudget, SimError, SystemReport};
use profess::cpu::{MemOp, OpSource};
use profess::mem::{AccessKind, ChannelSim, PhysRequest, Served};
use profess::obs::{Log2Histogram, TraceConfig, TraceEvent};
use profess::report::report_to_json;
use profess::trace::patterns::{seeded_rng, Hotspot, Mix, MultiStream};
use profess::trace::{workload_by_id, ProgramGen, ProgramParams, SpecProgram};
use profess::types::geometry::{MemLoc, Module};
use profess::types::ids::ProgramId;
use profess::types::{Cycle, GroupId, SystemConfig};

/// Memory operations per program in a `quad_mix` cell.
const QUAD_TARGET: u64 = 15_000;
/// Table 10 mixes of `quad_mix`: streaming (w16), pointer chasing
/// (w17, w18) and the paper's Figure 2 headline mix (w09).
const QUAD_MIXES: [&str; 4] = ["w09", "w16", "w17", "w18"];
/// Memory operations per program in a `solo_sweep` cell.
const SOLO_TARGET: u64 = 80_000;
/// Memory operations per generator in a `write_heavy` cell.
const WRITE_TARGET: u64 = 60_000;
/// Intensities (MPKI) of the `write_heavy` generators.
const WRITE_MPKI: [f64; 2] = [28.0, 48.0];
/// Footprint of a `write_heavy` generator before the footprint divisor,
/// the surface sweep's load-generator size.
const WRITE_FOOTPRINT_MB: u64 = 128;
/// Times the set-up phase is repeated; its median is reported.
const SETUP_REPS: usize = 31;
/// Requests per matched-load channel probe repetition.
const PROBE_REQUESTS: u64 = 100_000;
/// Probe repetitions; the median is reported.
const PROBE_REPS: usize = 5;

/// What one program of a cell runs.
#[derive(Clone, Copy)]
enum Prog {
    /// A Table 9 program sized for `target` memory operations.
    Spec(SpecProgram, u64),
    /// The synthetic scan + Zipf generator at `mpki`, 50% writes.
    Load(f64, u64),
}

/// One simulation: a configuration, a policy and its programs.
struct CellSpec {
    label: String,
    cfg: SystemConfig,
    policy: PolicyKind,
    progs: Vec<Prog>,
}

fn workload_cells(name: &str, seed: u64) -> Result<Vec<CellSpec>, String> {
    let seeded = |mut cfg: SystemConfig| {
        cfg.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
        cfg
    };
    let mut cells = Vec::new();
    match name {
        "quad_mix" => {
            for id in QUAD_MIXES {
                let w = workload_by_id(id).map_err(|e| e.to_string())?;
                for policy in [PolicyKind::Pom, PolicyKind::Profess] {
                    cells.push(CellSpec {
                        label: format!("{id}:{}", policy.name()),
                        cfg: seeded(SystemConfig::scaled_quad()),
                        policy,
                        progs: w
                            .programs
                            .iter()
                            .map(|&p| Prog::Spec(p, QUAD_TARGET))
                            .collect(),
                    });
                }
            }
        }
        "solo_sweep" => {
            for p in SpecProgram::ALL {
                for policy in [PolicyKind::Static, PolicyKind::Pom] {
                    cells.push(CellSpec {
                        label: format!("{}:{}", p.name(), policy.name()),
                        cfg: seeded(SystemConfig::scaled_single()),
                        policy,
                        progs: vec![Prog::Spec(p, SOLO_TARGET)],
                    });
                }
            }
        }
        "write_heavy" => {
            for mpki in WRITE_MPKI {
                for policy in [PolicyKind::Pom, PolicyKind::Profess] {
                    let cfg = seeded(SystemConfig::scaled_quad());
                    cells.push(CellSpec {
                        label: format!("mpki{mpki}:{}", policy.name()),
                        progs: vec![Prog::Load(mpki, WRITE_TARGET); cfg.cpu.num_cores],
                        cfg,
                        policy,
                    });
                }
            }
        }
        _ => return Err(format!("unknown in-process workload `{name}`")),
    }
    Ok(cells)
}

/// Per-layer host-time and call counters filled by the wrappers.
#[derive(Default)]
struct Spans {
    trace_ns: Cell<u64>,
    trace_calls: Cell<u64>,
    trace_ops: Cell<u64>,
    policy_ns: Cell<u64>,
    policy_calls: Cell<u64>,
    on_access: Cell<u64>,
    promotes: Cell<u64>,
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// An op source whose `next_op` calls are timed.
struct TimedSource {
    inner: Box<dyn OpSource>,
    spans: Rc<Spans>,
}

impl OpSource for TimedSource {
    fn next_op(&mut self) -> Option<MemOp> {
        let t0 = Instant::now();
        let op = self.inner.next_op();
        add(&self.spans.trace_ns, elapsed_ns(t0));
        add(&self.spans.trace_calls, 1);
        if op.is_some() {
            add(&self.spans.trace_ops, 1);
        }
        op
    }
}

/// A migration policy whose every trait call is timed and delegated.
struct TimedPolicy {
    inner: Box<dyn MigrationPolicy>,
    spans: Rc<Spans>,
}

fn span<R>(spans: &Spans, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    add(&spans.policy_ns, elapsed_ns(t0));
    add(&spans.policy_calls, 1);
    r
}

impl MigrationPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn write_weight(&self) -> u32 {
        span(&self.spans, || self.inner.write_weight())
    }
    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        let d = span(&self.spans, || self.inner.on_access(ctx));
        add(&self.spans.on_access, 1);
        if d == Decision::Promote {
            add(&self.spans.promotes, 1);
        }
        d
    }
    fn on_served(&mut self, program: ProgramId, class: RegionClass, from_m1: bool) {
        span(&self.spans, || {
            self.inner.on_served(program, class, from_m1)
        })
    }
    fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>, private: bool) {
        span(&self.spans, || {
            self.inner.on_swap(promoted, demoted, private)
        })
    }
    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        span(&self.spans, || self.inner.on_stc_evict(records))
    }
    fn poll(&mut self, now: Cycle) -> Vec<(GroupId, profess::types::ids::SlotIdx)> {
        span(&self.spans, || self.inner.poll(now))
    }
    // Not timed: the run loop polls every installed custom policy once
    // per step, while for the built-in PoM, ProFess and Static it never
    // does, so timing these calls would charge the policy layer for
    // work the untraced pass does not do.
    fn next_poll(&self) -> Option<Cycle> {
        self.inner.next_poll()
    }
    fn diagnostics(&self) -> PolicyDiagnostics {
        span(&self.spans, || self.inner.diagnostics())
    }
    fn set_tracing(&mut self, on: bool) {
        span(&self.spans, || self.inner.set_tracing(on))
    }
    fn drain_trace(&mut self, now: Cycle, out: &mut Vec<TraceEvent>) {
        span(&self.spans, || self.inner.drain_trace(now, out))
    }
    fn snapshot_state(&self) -> Option<profess::metrics::Json> {
        span(&self.spans, || self.inner.snapshot_state())
    }
    fn restore_state(&mut self, state: &profess::metrics::Json) -> Result<(), String> {
        span(&self.spans, || self.inner.restore_state(state))
    }
}

/// The policy `System::new` builds for `kind` (the kinds used here).
fn built_in_policy(
    kind: PolicyKind,
    cfg: &SystemConfig,
    n_prog: usize,
) -> Box<dyn MigrationPolicy> {
    let k = cfg.mem.pom_k(cfg.org.lines_per_block());
    match kind {
        PolicyKind::Static => Box::new(StaticPolicy::new()),
        PolicyKind::Pom => Box::new(PomPolicy::new(cfg.pom.clone(), k)),
        PolicyKind::Profess => Box::new(ProfessPolicy::new(cfg.mdm, cfg.rsm, n_prog)),
        other => unreachable!("policy {} is not used by any workload", other.name()),
    }
}

/// The per-instance seed `SystemBuilder::spec_program` derives.
fn program_seed(base: u64, idx: u64, restart: u32) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx * 1_000_003 + u64::from(restart) * 7_919)
}

fn load_generator(cfg: &SystemConfig, mpki: f64, target: u64, seed: u64) -> ProgramGen {
    let lines = ((WRITE_FOOTPRINT_MB << 20) / cfg.footprint_div).div_ceil(4096) * 64;
    let params = ProgramParams {
        mpki,
        lines,
        write_frac: 0.5,
        instructions: (target as f64 * 1000.0 / mpki) as u64,
    };
    let mut rng = seeded_rng(seed ^ 0xABCD_1234);
    let pattern = Box::new(Mix::new(
        Box::new(MultiStream::new(lines, 16, &mut rng)),
        Box::new(Hotspot::new(lines, 1.00, 0, false, &mut rng)),
        0.35,
    ));
    ProgramGen::new(params, pattern, seed)
}

/// Builds a cell. Untraced cells go through the library's own
/// `spec_program`/`policy` path; traced cells wrap every generator and
/// the policy, which must leave the report byte-identical.
fn builder(cell: &CellSpec, spans: Option<&Rc<Spans>>) -> SystemBuilder {
    let trace = if spans.is_some() {
        TraceConfig::on()
    } else {
        TraceConfig::off()
    };
    let mut b = SystemBuilder::new(cell.cfg.clone()).trace(trace);
    b = match spans {
        None => b.policy(cell.policy),
        Some(s) => b.custom_policy(
            Box::new(TimedPolicy {
                inner: built_in_policy(cell.policy, &cell.cfg, cell.progs.len()),
                spans: Rc::clone(s),
            }),
            cell.policy.uses_private_regions(),
        ),
    };
    let div = cell.cfg.footprint_div;
    let base = cell.cfg.seed;
    for (idx, &prog) in cell.progs.iter().enumerate() {
        let idx = idx as u64;
        let wrap = spans.cloned();
        b = match (prog, wrap) {
            (Prog::Spec(p, target), None) => b.spec_program(p, p.budget_for_misses(target)),
            (Prog::Spec(p, target), Some(s)) => {
                let instructions = p.budget_for_misses(target);
                b.program(p.name(), move |restart| {
                    let inner = p.generator(div, instructions, program_seed(base, idx, restart));
                    timed(Box::new(inner), &s)
                })
            }
            (Prog::Load(mpki, target), s) => {
                let cfg = cell.cfg.clone();
                b.program(format!("load{idx}"), move |restart| {
                    let g = load_generator(&cfg, mpki, target, program_seed(base, idx, restart));
                    match &s {
                        None => Box::new(g) as Box<dyn OpSource>,
                        Some(s) => timed(Box::new(g), s),
                    }
                })
            }
        };
    }
    b
}

fn timed(inner: Box<dyn OpSource>, spans: &Rc<Spans>) -> Box<dyn OpSource> {
    Box::new(TimedSource {
        inner,
        spans: Rc::clone(spans),
    })
}

/// FNV-1a over the serialized report bytes.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Random read-modify-write steps of one host-speed calibration.
const CAL_STEPS: u64 = 300_000;
/// Calibration table length in `u64`s: 2 MB, the order of a cell's
/// simulator state and of a core's L2 cache.
const CAL_TABLE: usize = 1 << 18;
/// Bytes swept before each calibration, four times the L2 cache, so the
/// table starts out of L2 whatever the preceding cell touched.
const CAL_FLUSH: usize = 8 << 20;
/// Time of one calibration on the 2-vCPU Xeon VM (2 MB L2 per core)
/// the benchmark was tuned on, in seconds. Host times are reported at
/// this reference speed.
const CAL_REF_S: f64 = 0.0015;

/// Measures how much slower than the reference the host runs right now.
///
/// On a shared host, co-tenants slow every process in phases that last
/// from seconds to minutes, by up to 1.5x; the simulator slows with them
/// mostly through the shared cache and memory. Before each timed unit
/// the benchmark times a fixed kernel of its own, which does not change
/// with the simulator: random read-modify-writes over a table that
/// starts out of L2, so it pays the same shared-cache and memory
/// latencies. The unit's time divided by the kernel's slowdown compares
/// across those phases.
struct Calibrator {
    table: Vec<u64>,
    flush: Vec<u8>,
}

impl Calibrator {
    fn new() -> Self {
        Calibrator {
            table: vec![1; CAL_TABLE],
            flush: vec![1; CAL_FLUSH],
        }
    }

    /// Current host slowdown against the reference (1.0 = reference).
    fn slowdown(&mut self) -> f64 {
        for i in (0..self.flush.len()).step_by(64) {
            self.flush[i] = self.flush[i].wrapping_add(1);
        }
        std::hint::black_box(&mut self.flush);
        let t0 = Instant::now();
        self.kernel();
        t0.elapsed().as_secs_f64() / CAL_REF_S
    }

    fn kernel(&mut self) {
        let mask = self.table.len() as u64 - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..CAL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            let v = self.table[i];
            acc = acc.wrapping_add(v).rotate_left(5);
            self.table[i] = v ^ acc;
            if acc & 3 == 0 {
                acc = acc.wrapping_mul(31);
            }
        }
        std::hint::black_box(acc);
    }
}

/// One pass over every cell: per-cell host seconds (excluding
/// calibration) and the same at reference host speed, per-cell digests,
/// requests served, and the reports when asked to keep them (keeping
/// every pass's reports would grow the peak resident set with the pass
/// count).
struct Pass {
    raw: Vec<f64>,
    norm: Vec<f64>,
    digests: Vec<Option<u64>>,
    served: u64,
    reports: Vec<SystemReport>,
}

fn run_pass(
    cells: &[CellSpec],
    spans: Option<&Rc<Spans>>,
    keep: bool,
    cal: &mut Calibrator,
) -> Pass {
    let mut raw = Vec::with_capacity(cells.len());
    let mut norm = Vec::with_capacity(cells.len());
    let mut digests = Vec::with_capacity(cells.len());
    let mut reports = Vec::new();
    let mut served = 0;
    // Each cell runs between two calibrations; the host speed during
    // the cell is taken as their mean.
    let mut before = cal.slowdown();
    for cell in cells {
        let t0 = Instant::now();
        let result: Result<SystemReport, SimError> = builder(cell, spans).try_run();
        let dt = t0.elapsed().as_secs_f64();
        let after = cal.slowdown();
        raw.push(dt);
        norm.push(dt * 2.0 / (before + after));
        before = after;
        match result {
            // A no-migration baseline that swapped is a wrong report.
            Ok(r) if cell.policy == PolicyKind::Static && r.swaps != 0 => {
                eprintln!("cell {}: Static swapped {} blocks", cell.label, r.swaps);
                digests.push(None);
            }
            Ok(r) if !r.truncated => {
                digests.push(Some(fnv1a(
                    report_to_json(&r).to_string().as_bytes(),
                    FNV_BASIS,
                )));
                served += r.total_served;
                if keep {
                    reports.push(r);
                }
            }
            Ok(_) => {
                eprintln!("cell {}: report truncated at the cycle cap", cell.label);
                digests.push(None);
            }
            Err(e) => {
                eprintln!("cell {}: {e}", cell.label);
                digests.push(None);
            }
        }
    }
    Pass {
        raw,
        norm,
        digests,
        served,
        reports,
    }
}

/// Sum over cells of each cell's median over passes: a pass time that
/// one slow cell in one pass does not move.
fn pass_time<'a>(passes: impl Iterator<Item = &'a Vec<f64>> + Clone, cells: usize) -> f64 {
    (0..cells)
        .map(|c| median(&passes.clone().map(|p| p[c]).collect::<Vec<_>>()))
        .sum()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `SETUP_REPS` repetitions of constructing every cell's
/// system and stopping it at its first cycle (a one-cycle budget, whose
/// `BudgetExceeded` is expected): the per-cell set-up the timed passes
/// pay before simulating, at reference host speed.
fn setup_seconds(cells: &[CellSpec], cal: &mut Calibrator) -> f64 {
    let mut before = cal.slowdown();
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            for cell in cells {
                let b = builder(cell, None).budget(SimBudget::unlimited().with_max_cycles(1));
                let _ = std::hint::black_box(b.try_run());
            }
            let dt = t0.elapsed().as_secs_f64();
            let after = cal.slowdown();
            let norm = dt * 2.0 / (before + after);
            before = after;
            norm
        })
        .collect();
    median(&reps)
}

/// Mean cost of one empty `Instant::now()` pair as a measured span
/// (`bias`) and in host time including both calls (`cost`), in ns.
fn timer_pair_ns() -> (f64, f64) {
    const N: u64 = 1_000_000;
    let outer = Instant::now();
    let mut inner = 0u64;
    for _ in 0..N {
        let t0 = Instant::now();
        inner += std::hint::black_box(elapsed_ns(t0));
    }
    let cost = outer.elapsed().as_nanos() as f64 / N as f64;
    (inner as f64 / N as f64, cost)
}

/// Host ns per request of a standalone channel held at `depth` queued
/// requests, driven through `push`/`advance`/`next_event` only.
fn probe_ns_per_req(cfg: &SystemConfig, depth: usize, seed: u64) -> f64 {
    let banks = cfg.org.banks_per_module;
    let reps: Vec<f64> = (0..PROBE_REPS as u64)
        .map(|rep| {
            let mut ch = ChannelSim::new(
                cfg.mem.clone(),
                cfg.energy,
                banks as usize,
                cfg.org.lines_per_block(),
            );
            let mut rng = seeded_rng(seed ^ rep);
            let mut served: Vec<Served> = Vec::new();
            let mut now = Cycle(0);
            let mut pushed = 0u64;
            let mut done = 0u64;
            let t0 = Instant::now();
            while done < PROBE_REQUESTS {
                while pushed < PROBE_REQUESTS && ch.queue_len() < depth.max(1) {
                    let x = rng.next_u64();
                    let req = PhysRequest {
                        id: pushed,
                        kind: if x % 3 == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        loc: MemLoc {
                            module: if (x >> 2) & 1 == 0 {
                                Module::M1
                            } else {
                                Module::M2
                            },
                            bank: ((x >> 8) % u64::from(banks)) as u32,
                            row: (x >> 24) % 64,
                        },
                    };
                    ch.push(req, now);
                    pushed += 1;
                }
                now = ch.next_event(now);
                ch.advance(now, &mut served);
                done += served.len() as u64;
                served.clear();
            }
            t0.elapsed().as_nanos() as f64 / PROBE_REQUESTS as f64
        })
        .collect();
    median(&reps)
}

/// `(utime + stime)` of this process in seconds, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|s| s.parse().unwrap_or(0))
        .collect();
    if f.len() < 13 {
        return 0.0;
    }
    (f[11] + f[12]) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB. It includes the
/// 10 MB of calibration buffers, which are fully touched and stay
/// resident: a constant the same on every commit.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hist_of(reports: &[SystemReport], name: &str) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for r in reports {
        if let Some(log) = &r.trace {
            for (n, x) in &log.hists {
                if *n == name {
                    h.merge(x);
                }
            }
        }
    }
    h
}

/// Served-request-weighted mean of a per-report value.
fn weighted(reports: &[SystemReport], f: impl Fn(&SystemReport) -> f64) -> f64 {
    let served: u64 = reports.iter().map(|r| r.total_served).sum();
    let sum: f64 = reports.iter().map(|r| f(r) * r.total_served as f64).sum();
    sum / served.max(1) as f64
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let cells = workload_cells(name, seed)?;
    let mut cal = Calibrator::new();
    let setup_s = setup_seconds(&cells, &mut cal);
    let (bias_ns, cost_ns) = if trace { timer_pair_ns() } else { (0.0, 0.0) };

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Rc<Spans>)> = Vec::new();
    // Untraced and traced passes alternate so both see the same host
    // conditions; at least three untraced passes give a median.
    while plain.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        if trace && traced.len() < plain.len() {
            let spans = Rc::new(Spans::default());
            let pass = run_pass(&cells, Some(&spans), traced.is_empty(), &mut cal);
            traced.push((pass, spans));
        } else {
            plain.push(run_pass(&cells, None, false, &mut cal));
        }
    }
    let timed_wall = t0.elapsed().as_secs_f64();
    let cpu_util = (cpu_seconds() - cpu0)
        / (timed_wall * std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);

    // Every pass must reproduce the first pass's per-cell digests.
    let reference = &plain[0].digests;
    let all: Vec<&Pass> = plain.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    let attempted = (all.len() * cells.len()) as u64;
    let mut failed = 0u64;
    for p in &all {
        for (d, r) in p.digests.iter().zip(reference) {
            if d.is_none() || d != r {
                failed += 1;
            }
        }
    }
    let digest = reference
        .iter()
        .fold(FNV_BASIS, |h, d| fnv1a(&d.unwrap_or(0).to_le_bytes(), h));

    let n = cells.len();
    let raw_s = pass_time(plain.iter().map(|p| &p.raw), n);
    let wall_s = pass_time(plain.iter().map(|p| &p.norm), n);
    let norms: Vec<f64> = plain.iter().map(|p| p.norm.iter().sum()).collect();
    eprintln!("{name}: untraced pass seconds at reference speed {norms:?}");
    let served = plain[0].served;
    let mut m = Metrics(Vec::new());
    if !trace {
        m.put("wall_s", wall_s, "s");
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        let (pass, spans) = &traced[0];
        let reports = &pass.reports;
        let t_calls = spans.trace_calls.get() as f64;
        let p_calls = spans.policy_calls.get() as f64;
        let total_ns = pass.raw.iter().sum::<f64>() * 1e9 - (t_calls + p_calls) * cost_ns;
        let trace_ns = spans.trace_ns.get() as f64 - t_calls * bias_ns;
        let policy_ns = spans.policy_ns.get() as f64 - p_calls * bias_ns;
        let loop_ns = total_ns - trace_ns - policy_ns;
        let t_served: u64 = reports.iter().map(|r| r.total_served).sum();
        let swaps: u64 = reports.iter().map(|r| r.swaps).sum();
        let depth = hist_of(reports, "channel_queue_depth");
        let rob = hist_of(reports, "core_rob_occupancy");
        let probe_cfg = &cells[0].cfg;
        m.put("sim_req_per_s", served as f64 / wall_s, "1/s");
        m.put("trace.ops", spans.trace_ops.get() as f64, "count");
        m.put(
            "trace.ns_per_op",
            trace_ns / spans.trace_ops.get().max(1) as f64,
            "ns",
        );
        m.put("trace.share", trace_ns / total_ns, "ratio");
        m.put("policy.calls", p_calls, "count");
        m.put("policy.ns_per_call", policy_ns / p_calls.max(1.0), "ns");
        m.put("policy.share", policy_ns / total_ns, "ratio");
        m.put(
            "policy.promote_ratio",
            spans.promotes.get() as f64 / spans.on_access.get().max(1) as f64,
            "ratio",
        );
        m.put(
            "policy.swaps_per_kreq",
            swaps as f64 * 1000.0 / t_served.max(1) as f64,
            "count",
        );
        m.put(
            "run_loop.ns_per_req",
            loop_ns / t_served.max(1) as f64,
            "ns",
        );
        m.put("run_loop.share", loop_ns / total_ns, "ratio");
        m.put("mem.queue_depth_p50", depth.p50() as f64, "count");
        m.put("mem.queue_depth_p95", depth.p95() as f64, "count");
        m.put(
            "mem.probe_ns_per_req",
            probe_ns_per_req(probe_cfg, depth.p50() as usize, seed),
            "ns",
        );
        m.put("mem.served", t_served as f64, "count");
        m.put(
            "mem.row_hit_rate",
            weighted(reports, |r| r.row_hit_rate),
            "ratio",
        );
        m.put(
            "mem.read_latency_cycles",
            weighted(reports, |r| r.avg_read_latency_cycles),
            "cycles",
        );
        m.put(
            "core.stc_hit_rate",
            weighted(reports, |r| r.stc_hit_rate),
            "ratio",
        );
        let kcycles: u64 = reports.iter().map(|r| r.elapsed_cycles).sum();
        m.put("core.sim_kcycles", kcycles as f64 / 1000.0, "kcycles");
        m.put(
            "cpu.ipc_sum",
            reports.iter().map(SystemReport::aggregate_ipc).sum(),
            "ipc",
        );
        m.put("cpu.rob_occupancy_p50", rob.p50() as f64, "count");
        m.put("host.cpu_util", cpu_util, "ratio");
        m.put("host.raw_wall_s", raw_s, "s");
        m.put("host.slowdown", raw_s / wall_s, "ratio");
        let traced_s = pass_time(traced.iter().map(|(p, _)| &p.norm), n);
        m.put("trace_overhead", traced_s / wall_s, "ratio");
    }
    Ok(format!(
        "{{\"workload\":\"{name}\",\"digest\":\"{digest:016x}\",\"cells\":{},\"passes\":{},\
         \"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        cells.len(),
        all.len(),
        m.json()
    ))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfdrive <quad_mix|solo_sweep|write_heavy> <seed> <seconds> <0|1>\n       \
         perfdrive calib"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num = |i: usize| -> u64 {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    };
    let line = match args.first().map(String::as_str) {
        // The figure-suite runner times each bin against this.
        Some("calib") => {
            let mut cal = Calibrator::new();
            let s: Vec<f64> = (0..3).map(|_| cal.slowdown()).collect();
            Ok(format!("{:?}", median(&s)))
        }
        Some(w) if args.len() == 4 => run_workload(w, num(1), num(2) as f64, num(3) == 1),
        _ => usage(),
    };
    match line {
        Ok(l) => println!("{l}"),
        Err(e) => {
            eprintln!("perfdrive: {e}");
            std::process::exit(1);
        }
    }
}
