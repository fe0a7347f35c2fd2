//! Pinned op streams: the first 20k memory operations of every Table 9
//! generator (`SpecProgram::ALL`) and every adversarial-family generator
//! (`SpecProgram::SYNTHETIC`) at a fixed seed, hashed with FNV-1a.
//!
//! Generator optimisations must be stream-exact: any change to a gap,
//! an address, a read/write draw or a dependence flag flips a hash. If
//! a change is *meant* to alter the streams, re-pin from the fresh table
//! the failure prints.

use profess_cpu::{MemOpKind, OpSource};
use profess_trace::SpecProgram;

const OPS: usize = 20_000;
const DIV: u64 = 32;
const SEED: u64 = 0x5EED;

/// `(program name, FNV-1a of its first OPS ops)`.
const PINNED: [(&str, u64); 14] = [
    ("bwaves", 0xf8e9d3df819c95da),
    ("GemsFDTD", 0x3a0674cd7320e256),
    ("lbm", 0x0a25bf4a18970d0b),
    ("leslie3d", 0x87a897d88c39fc3a),
    ("libquantum", 0xe98b5d89ec545ba0),
    ("mcf", 0xd8b5946d03532df0),
    ("milc", 0xafd9f27693ef8438),
    ("omnetpp", 0x31b20f9e9ee49e50),
    ("soplex", 0x7bfac6ff4a6538ee),
    ("zeusmp", 0x54153899a33826c5),
    ("phaseflip", 0xeb799b80c5fdca8e),
    ("burststream", 0x7ee22349d094e41e),
    ("tenantblend", 0xcd72c9a1dd5fcb95),
    ("hotchurn", 0x5f4f2cd8af02300f),
];

fn stream_hash(p: SpecProgram) -> u64 {
    let mut gen = p.generator(DIV, u64::MAX, SEED);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..OPS {
        let op = gen
            .next_op()
            .unwrap_or_else(|| panic!("{p} ended after {i} ops"));
        let kind = match op.kind {
            MemOpKind::Load => 0u8,
            MemOpKind::Store => 1,
        };
        let bytes = op
            .gap
            .to_le_bytes()
            .into_iter()
            .chain(op.line.to_le_bytes())
            .chain([kind, u8::from(op.dependent)]);
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn generator_streams_match_pinned_values() {
    let programs: Vec<SpecProgram> = SpecProgram::ALL
        .into_iter()
        .chain(SpecProgram::SYNTHETIC)
        .collect();
    assert_eq!(programs.len(), PINNED.len(), "PINNED table size drifted");
    let mut table = String::new();
    let mut bad = Vec::new();
    for (p, &(name, pinned)) in programs.iter().zip(&PINNED) {
        assert_eq!(p.name(), name, "PINNED table order drifted");
        let h = stream_hash(*p);
        table.push_str(&format!("    (\"{name}\", 0x{h:016x}),\n"));
        if h != pinned {
            bad.push(format!("{name}: 0x{h:016x} (pinned 0x{pinned:016x})"));
        }
    }
    assert!(
        bad.is_empty(),
        "generator streams drifted from pinned values:\n{}\n\nfresh table:\n{table}",
        bad.join("\n")
    );
}
