//! `panic_reachability`: no undocumented panic site is reachable from
//! the simulator's serving entry points.
//!
//! The syntactic `panic` lint asks "does library code contain
//! `.unwrap()`?"; this lint asks the question that actually matters for
//! the supervised-sweep machinery: *can the run loop get there?* Roots
//! are the `System` run entry points (`run`, `try_run` in
//! `crates/core/src/system.rs`) and every
//! policy's `on_access` — the per-request dispatch surface. The walk
//! rides the overapproximating call graph, so a clean result really
//! means no reachable panic.
//!
//! Two site classes:
//!
//! * explicit panics — `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `.unwrap()`, `.expect()` — flagged per site;
//! * index expressions in the designated hot-path modules (the run loop
//!   and policies), where `a[i]` is an implicit bounds-check panic —
//!   aggregated into **one diagnostic per function** at the `fn` line
//!   with a site count, so geometry-bounded indexing is acknowledged
//!   with a single justified allow instead of dozens.
//!
//! Suppression: `allow(panic_reachability)` at the site (or `fn`) line;
//! an existing `allow(panic)` also covers explicit-panic sites, so the
//! documented invariants from the syntactic lint carry over without
//! double annotation.

use crate::diag::Diagnostic;
use crate::graph::ItemGraph;
use crate::scan::Tok;
use crate::workspace::Role;

/// The lint name.
pub const PANIC_REACHABILITY: &str = "panic_reachability";

/// Entry-point spec: (path, fn name).
const ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/system.rs", "run"),
    ("crates/core/src/system.rs", "try_run"),
];

/// Every policy's per-access dispatch method.
const POLICY_DIR: &str = "crates/core/src/policies/";
const POLICY_ENTRY: &str = "on_access";

/// Explicit panic macros.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Collects the root node ids.
pub fn roots(g: &ItemGraph<'_>) -> Vec<usize> {
    let mut out = Vec::new();
    for &(path, name) in ROOTS {
        out.extend(g.find(path, name));
    }
    out.extend(g.nodes.iter().enumerate().filter_map(|(i, n)| {
        (n.path.starts_with(POLICY_DIR) && n.name == POLICY_ENTRY && !n.in_test).then_some(i)
    }));
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the lint over the built graph.
pub fn check(g: &ItemGraph<'_>, out: &mut Vec<Diagnostic>) {
    let roots = roots(g);
    let reach = g.reach_from(&roots);
    for (&id, _) in &reach {
        let n = &g.nodes[id];
        if n.in_test {
            continue;
        }
        let f = &g.files[n.file];
        // Only library code answers to the panic policy; the check
        // harness asserts by design, and bins own their exits.
        match &f.role {
            Role::Lib(c) if c != "check" => {}
            _ => continue,
        }
        let root_name = root_of(g, &reach, id);
        let (s, e) = f.items[n.item].body;
        let toks = &f.scan.tokens[s..e];
        let mut index_sites = 0usize;
        for (k, t) in toks.iter().enumerate() {
            if !f.innermost_fn(n.item, s + k) {
                continue;
            }
            match &t.tok {
                Tok::Ident(w) if PANIC_MACROS.contains(&w.as_str()) && bang(toks, k) => {
                    push_site(
                        g,
                        out,
                        id,
                        t.line,
                        format!(
                            "`{w}!` in `{}` is reachable from entry point `{root_name}`: \
                             return a `SimError`, or suppress with \
                             `// profess: allow(panic_reachability): <why unreachable>`",
                            n.qualified
                        ),
                    );
                }
                Tok::Ident(w) if (w == "unwrap" || w == "expect") && method(toks, k) => {
                    push_site(
                        g,
                        out,
                        id,
                        t.line,
                        format!(
                            "`.{w}()` in `{}` is reachable from entry point `{root_name}`: \
                             propagate the error, or suppress with \
                             `// profess: allow(panic_reachability): <why it cannot fail>`",
                            n.qualified
                        ),
                    );
                }
                Tok::Ident(_) if super::code::is_hot_path_module(&n.path) && bracket(toks, k) => {
                    index_sites += 1;
                }
                _ => {}
            }
        }
        if index_sites > 0 {
            push_site(
                g,
                out,
                id,
                n.line,
                format!(
                    "fn `{}`: {index_sites} index expression(s) on the hot path, reachable \
                     from entry point `{root_name}` — each is an implicit bounds-check panic; \
                     suppress at the `fn` line with \
                     `// profess: allow(panic_reachability): <what pins the bound>`",
                    n.qualified
                ),
            );
        }
    }
}

/// Emits one site diagnostic, applying the suppression rule (the lint's
/// own allow, or a pre-existing `allow(panic)` at the same window).
fn push_site(g: &ItemGraph<'_>, out: &mut Vec<Diagnostic>, id: usize, line: u32, message: String) {
    let n = &g.nodes[id];
    let scan = &g.files[n.file].scan;
    let mut d = Diagnostic::new(PANIC_REACHABILITY, &n.path, line, message);
    d.suppressed =
        scan.is_suppressed(PANIC_REACHABILITY, line) || scan.is_suppressed("panic", line);
    out.push(d);
}

/// Walks the BFS parent chain back to the entry point's qualified name.
fn root_of(
    g: &ItemGraph<'_>,
    reach: &std::collections::BTreeMap<usize, usize>,
    id: usize,
) -> String {
    let mut cur = id;
    for _ in 0..reach.len() + 1 {
        match reach.get(&cur) {
            Some(&p) if p == cur => break,
            Some(&p) => cur = p,
            None => break,
        }
    }
    g.nodes[cur].qualified.clone()
}

fn bang(toks: &[crate::scan::Spanned], k: usize) -> bool {
    toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('!'))
}

fn method(toks: &[crate::scan::Spanned], k: usize) -> bool {
    k > 0
        && toks[k - 1].tok == Tok::Punct('.')
        && toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
}

fn bracket(toks: &[crate::scan::Spanned], k: usize) -> bool {
    matches!(&toks[k].tok, Tok::Ident(_))
        && toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('['))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileItems;
    use crate::workspace::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<FileItems> = files
            .iter()
            .map(|(p, s)| FileItems::parse(&SourceFile::new(p, s)))
            .collect();
        let g = ItemGraph::build(&parsed);
        let mut out = Vec::new();
        check(&g, &mut out);
        out
    }

    const SYS: &str = "crates/core/src/system.rs";

    #[test]
    fn reachable_unwrap_is_flagged_and_unreachable_is_not() {
        let d = run(&[
            (
                SYS,
                "impl System {\n pub fn try_run(&mut self) { step(self); }\n}\n",
            ),
            (
                "crates/mem/src/chan.rs",
                "pub fn step(s: &mut u8) { helper().unwrap(); }\n\
                 fn helper() -> Option<u8> { None }\n\
                 fn island() { other().unwrap(); }\nfn other() -> Option<u8> { None }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`.unwrap()` in `step`"));
        assert!(d[0].message.contains("entry point `System::try_run`"));
        assert_eq!(d[0].path, "crates/mem/src/chan.rs");
    }

    #[test]
    fn policy_on_access_is_a_root_and_allows_cover() {
        let d = run(&[(
            "crates/core/src/policies/pom.rs",
            "impl Pom {\n fn on_access(&mut self) { danger(); }\n}\n\
             // profess: allow(panic): epoch table is pre-sized\n\
             fn danger() { panic!(\"x\"); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].suppressed, "allow(panic) must carry over: {d:?}");
    }

    #[test]
    fn hot_path_indexing_aggregates_per_fn() {
        let d = run(&[(
            SYS,
            "impl System {\n pub fn run(&mut self) {\n let a = self.v[0] + self.v[1];\n \
             let b = w[2];\n }\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("3 index expression(s)"));
        assert_eq!(d[0].line, 2, "anchored at the fn line");
    }

    #[test]
    fn cold_library_indexing_is_not_flagged() {
        let d = run(&[
            (
                SYS,
                "impl System {\n pub fn run(&mut self) { cold(); }\n}\n",
            ),
            (
                "crates/mem/src/cold.rs",
                "pub fn cold() { let x = v[0]; }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_macro_counts_as_explicit_panic() {
        let d = run(&[(
            SYS,
            "impl System {\n pub fn run(&mut self) { pick(); }\n}\n\
             fn pick() { unreachable!(\"no free frame\") }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`unreachable!`"));
    }
}
