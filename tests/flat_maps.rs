//! Property-based tests (profess-check) for the flat direct-indexed
//! containers that replaced `HashMap`/`BTreeMap` on the simulator hot
//! path (`profess::core::flat`): under arbitrary operation sequences
//! they must agree, call for call, with a plain collections reference
//! model — including iteration order for the tables that replaced
//! `BTreeMap`s (order-dependent simulator decisions replay through it).

use std::collections::{BTreeMap, HashMap};

use profess::core::flat::{EpochTable, FlatCounters, FlatPageTable, SlabQueues, TokenRing};
use profess_check::strategy::{tuple3, u64_range, vec_of};
use profess_check::{check, prop_assert, prop_assert_eq};

/// `FlatPageTable` must behave exactly like `HashMap<u64, u64>` for any
/// interleaving of insert / remove / get, including re-inserts (which
/// return the displaced frame) and lookups of never-mapped pages.
#[test]
fn flat_page_table_agrees_with_hashmap_model() {
    check(
        "flat_page_table_agrees_with_hashmap_model",
        // (op selector, virtual page, frame) triples. The page range is
        // deliberately small relative to the op count so sequences hit
        // re-insert and remove-then-get interleavings often.
        vec_of(
            tuple3(u64_range(0..3), u64_range(0..96), u64_range(0..1 << 20)),
            0..200,
        ),
        |ops| {
            let mut flat = FlatPageTable::with_capacity(32);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for &(op, vpage, frame) in ops {
                match op {
                    0 => prop_assert_eq!(flat.insert(vpage, frame), model.insert(vpage, frame)),
                    1 => prop_assert_eq!(flat.remove(vpage), model.remove(&vpage)),
                    _ => prop_assert_eq!(flat.get(vpage), model.get(&vpage).copied()),
                }
                prop_assert_eq!(flat.len(), model.len());
                prop_assert_eq!(flat.is_empty(), model.is_empty());
            }
            // Final sweep: every page the model knows (and a margin of
            // pages it does not) must agree.
            for vpage in 0..128 {
                prop_assert_eq!(flat.get(vpage), model.get(&vpage).copied());
            }
            Ok(())
        },
    );
}

/// `EpochTable` must behave exactly like the `BTreeMap<(u64, u8), u64>`
/// it replaced (PoM's per-epoch access counts) for any interleaving of
/// bump / clear — *including* iteration order.
#[test]
fn epoch_table_agrees_with_btreemap_model() {
    const STRIDE: u64 = 17;
    check(
        "epoch_table_agrees_with_btreemap_model",
        // (op selector, major, minor-or-weight) triples. Majors are kept
        // small so bump sequences collide with earlier keys often;
        // op 7 (clear) exercises the O(1) epoch-advance reset.
        vec_of(
            tuple3(u64_range(0..8), u64_range(0..24), u64_range(0..STRIDE)),
            0..200,
        ),
        |ops| {
            let mut table = EpochTable::new(STRIDE);
            let mut model: BTreeMap<(u64, u8), u64> = BTreeMap::new();
            for &(op, major, aux) in ops {
                let minor = (aux % STRIDE) as u8;
                match op {
                    0..=6 => {
                        // Weight 1 + aux keeps bumps non-trivial.
                        let w = 1 + aux;
                        let old = *model.entry((major, minor)).or_insert(0);
                        let new = old + w;
                        model.insert((major, minor), new);
                        prop_assert_eq!(table.bump(major, minor, w), (old, new));
                    }
                    _ => {
                        table.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                let got: Vec<_> = table.iter().collect();
                let want: Vec<_> = model.iter().map(|(&(ma, mi), &c)| (ma, mi, c)).collect();
                prop_assert_eq!(got, want);
            }
            Ok(())
        },
    );
}

/// `FlatCounters` must behave exactly like the `BTreeMap<u64, u32>` it
/// replaced (SiLC-FM's aging counters) for any interleaving of add /
/// set / retain, including the retain used by the aging sweep (halve,
/// drop zeros) and iteration order.
#[test]
fn flat_counters_agree_with_btreemap_model() {
    check(
        "flat_counters_agree_with_btreemap_model",
        // (op selector, key, delta) triples; keys are dense and small,
        // like group indices from a geometry.
        vec_of(
            tuple3(u64_range(0..8), u64_range(0..48), u64_range(0..1 << 16)),
            0..200,
        ),
        |ops| {
            let mut flat = FlatCounters::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for &(op, key, delta) in ops {
                let d = delta as u32;
                match op {
                    0..=3 => {
                        let e = model.entry(key).or_insert(0);
                        *e = e.wrapping_add(d);
                        prop_assert_eq!(flat.add(key, d), *e);
                    }
                    4..=5 => {
                        prop_assert!(flat.set(key, d), "in-range set accepted");
                        model.insert(key, d);
                    }
                    6 => {
                        prop_assert_eq!(flat.get(key), model.get(&key).copied());
                    }
                    _ => {
                        // The SiLC-FM aging sweep: halve every counter,
                        // drop the ones that reach zero.
                        flat.retain(|v| {
                            *v /= 2;
                            *v > 0
                        });
                        model.retain(|_, v| {
                            *v /= 2;
                            *v > 0
                        });
                    }
                }
                prop_assert_eq!(flat.len(), model.len());
                prop_assert_eq!(flat.is_empty(), model.is_empty());
                let got: Vec<_> = flat.iter().collect();
                let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(got, want);
            }
            Ok(())
        },
    );
}

/// `SlabQueues` must behave exactly like the `BTreeMap<usize, Vec<T>>`
/// it replaced (the pending-ST waiter lists) for any interleaving of
/// push / drain. Free-list recycling is exercised constantly
/// by the drains — a recycled node that aliased a live queue's value
/// would desynchronize the model on the very next comparison.
#[test]
fn slab_queues_agree_with_btreemap_model() {
    const QUEUES: usize = 6;
    check(
        "slab_queues_agree_with_btreemap_model",
        // (op selector, queue, value) triples.
        vec_of(
            tuple3(
                u64_range(0..8),
                u64_range(0..QUEUES as u64),
                u64_range(0..1 << 32),
            ),
            0..200,
        ),
        |ops| {
            let mut slab: SlabQueues<u64> = SlabQueues::new(QUEUES);
            let mut model: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for &(op, q, val) in ops {
                let q = q as usize;
                match op {
                    0..=4 => {
                        slab.push(q, val);
                        model.entry(q).or_default().push(val);
                    }
                    _ => {
                        let mut got = Vec::new();
                        slab.drain_into(q, &mut got);
                        let want = model.remove(&q).unwrap_or_default();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(slab.non_empty(), model.len());
                let got_qs: Vec<_> = slab.non_empty_queues().collect();
                let want_qs: Vec<_> = model.keys().copied().collect();
                prop_assert_eq!(got_qs, want_qs);
                for qq in 0..QUEUES {
                    prop_assert_eq!(slab.has(qq), model.contains_key(&qq));
                    let got: Vec<_> = slab.queue_iter(qq).copied().collect();
                    let want = model.get(&qq).cloned().unwrap_or_default();
                    prop_assert_eq!(got, want);
                }
            }
            Ok(())
        },
    );
}

/// `TokenRing` must hand out strictly sequential ids (never reusing one,
/// even after removal — the (done, id) sort in the simulator relies on
/// this for deterministic tie-breaks) and must agree with a
/// `HashMap<u64, V>` model on get / remove.
#[test]
fn token_ring_agrees_with_hashmap_model() {
    check(
        "token_ring_agrees_with_hashmap_model",
        // (op selector, payload, id selector) triples; the id selector is
        // reduced modulo the ids issued so far so removes and gets land on
        // a mix of live, already-removed, and trimmed ids.
        vec_of(
            tuple3(u64_range(0..3), u64_range(0..1 << 16), u64_range(0..64)),
            0..200,
        ),
        |ops| {
            let mut ring: TokenRing<u64> = TokenRing::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut issued = 0u64;
            for &(op, payload, id_sel) in ops {
                match op {
                    0 => {
                        let id = ring.insert(payload);
                        prop_assert!(id == issued, "ids must be sequential from zero");
                        model.insert(id, payload);
                        issued += 1;
                    }
                    op => {
                        // Probe an id in [0, issued] — one past the end is
                        // a deliberate never-issued probe.
                        let id = if issued == 0 {
                            0
                        } else {
                            id_sel % (issued + 1)
                        };
                        if op == 1 {
                            prop_assert_eq!(ring.remove(id), model.remove(&id));
                        } else {
                            prop_assert_eq!(ring.get(id).copied(), model.get(&id).copied());
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(ring.next_id(), issued);
                // The ring stores a dense window over live ids: it can
                // never hold more slots than ids issued and never fewer
                // than live entries.
                prop_assert!(ring.window() <= issued as usize);
                prop_assert!(ring.window() >= ring.len());
            }
            // Every id ever issued must agree with the model.
            for id in 0..issued {
                prop_assert_eq!(ring.get(id).copied(), model.get(&id).copied());
            }
            Ok(())
        },
    );
}
