//! Workspace-wide call graph and panic reachability.
//!
//! [`CallGraph::build`] stitches per-file [`crate::syntax::Outline`]s into
//! one graph of non-test function definitions. Call-site resolution is
//! *name-based and over-approximate* — this is a linter, not a compiler —
//! with just enough context to stay quiet:
//!
//! * `foo(…)` resolves to free functions named `foo`;
//! * `x.foo(…)` resolves to any `impl`/`trait` method named `foo`
//!   (narrowed to the enclosing type's own method for `self.foo(…)`);
//! * `Type::foo(…)` resolves to `Type`'s method when the type is known
//!   to the workspace, and to free functions when `Type` is actually a
//!   module path (`warm::dp_placement_warm(…)`);
//! * `map(foo)` / `fold(z, Type::foo)` value references resolve the same
//!   way, so function-pointer plumbing doesn't hide edges;
//! * ties between same-named definitions prefer the caller's file, then
//!   its crate — two crates can each have a `Parser::eat` without
//!   cross-contaminating reachability.
//!
//! Over-approximation errs toward *more* reachability, which is the safe
//! direction for a no-panic analysis: a spurious edge can only demand a
//! justified `analyzer:allow`, never hide a real abort.
//!
//! [`panic_reachability`] runs BFS from the solver/sim entrypoints
//! ([`is_entrypoint`]) and reports every `panic!`/`unwrap`/`expect`/raw-
//! index site inside a reached function, carrying the **shortest call
//! chain** from an entrypoint so the diagnostic explains *why* the site
//! is load-bearing. This subsumes the old file-list no-panic rule: the
//! checkpoint/supervisor/chaos modules are covered because `run_day` /
//! `resume_day` / `run_chaos_trial` call into them, not because a
//! hardcoded list says so.

use crate::syntax::{CallSite, CallStyle, Outline, PanicSite};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The crate a workspace-relative path belongs to (`crates/<name>/…`),
/// or `""` for the root package — the same-crate narrowing key.
fn crate_of(file: &str) -> &str {
    file.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// True for the function names that seed panic reachability: the solver
/// entrypoints whose panic-freedom the paper's guarantees (bit-identical
/// B&B, crash-safe resume, chaos survival) depend on.
pub fn is_entrypoint(name: &str) -> bool {
    name.starts_with("optimal_")
        || name == "run_day"
        || name == "resume_day"
        || name == "run_chaos_trial"
        || name == "run_stream_day"
        || name == "resume_stream_day"
        || name == "dp_placement_warm"
}

/// One non-test function definition in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Function identifier.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Panic sites inside the body.
    pub panics: Vec<PanicSite>,
}

impl FnNode {
    /// `Type::name` or bare `name`, for chain frames.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The stitched workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every non-test fn, in (file, line) order.
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
    quals: BTreeSet<String>,
}

/// One reachable panic site, with the shortest entry→site call chain.
#[derive(Debug, Clone)]
pub struct PanicFinding {
    /// File containing the panic site.
    pub file: String,
    /// 1-based line of the panic site.
    pub line: u32,
    /// What kind of site this is (callers scope enforcement by kind).
    pub kind: crate::syntax::PanicKind,
    /// Human label of the site kind (`` `.unwrap()` `` etc.).
    pub kind_label: &'static str,
    /// The entrypoint this site is reachable from.
    pub entry: String,
    /// Call chain frames, entrypoint first, the containing fn last; each
    /// frame is `name (file:line)`.
    pub chain: Vec<String>,
}

impl CallGraph {
    /// Builds the graph from per-file outlines (`(workspace-relative
    /// path, outline)`), dropping test fns entirely.
    pub fn build(files: &[(String, Outline)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (path, outline) in files {
            for f in &outline.fns {
                if f.is_test {
                    continue;
                }
                if let Some(q) = &f.qual {
                    g.quals.insert(q.clone());
                }
                g.fns.push(FnNode {
                    file: path.clone(),
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    line: f.line,
                    calls: f.calls.clone(),
                    panics: f.panics.clone(),
                });
            }
        }
        g.fns
            .sort_by(|a, b| (&a.file, a.line, &a.name).cmp(&(&b.file, b.line, &b.name)));
        for (i, f) in g.fns.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
        }
        g
    }

    /// Graph indices of the entrypoint seeds, in (file, line) order.
    pub fn entrypoints(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| is_entrypoint(&self.fns[i].name))
            .collect()
    }

    /// When a name is defined in several places, prefers candidates in
    /// the caller's own file, then its own crate, before giving up and
    /// keeping all of them. Rust resolution almost always lands on the
    /// nearest definition, and without this tie-break a `Parser::eat` in
    /// one crate would drag every other crate's `Parser::eat` into the
    /// reachable set.
    fn narrow(&self, caller: usize, cands: Vec<usize>) -> Vec<usize> {
        if cands.len() <= 1 {
            return cands;
        }
        let file = &self.fns[caller].file;
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| &self.fns[i].file == file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let krate = crate_of(file);
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| crate_of(&self.fns[i].file) == krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands
    }

    /// Resolves one call site from `caller` to candidate definitions.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let caller_qual = self.fns[caller].qual.as_deref();
        let methods_of = |q: &str| -> Vec<usize> {
            cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual.as_deref() == Some(q))
                .collect()
        };
        let free_fns = || -> Vec<usize> {
            cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual.is_none())
                .collect()
        };
        let any_method = || -> Vec<usize> {
            cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual.is_some())
                .collect()
        };
        let qualified = |q: &str| -> Vec<usize> {
            let q = if q == "Self" {
                caller_qual.unwrap_or(q)
            } else {
                q
            };
            let exact = methods_of(q);
            if !exact.is_empty() {
                exact
            } else if self.quals.contains(q) {
                // A workspace type without this method: the call targets
                // something external (derive, trait impl we can't see).
                Vec::new()
            } else {
                // Unknown qualifier — most often a module path
                // (`warm::dp_placement_warm(…)`): fall back to free fns.
                free_fns()
            }
        };
        let resolved = match &call.style {
            CallStyle::Bare | CallStyle::Value { qual: None } => free_fns(),
            CallStyle::Method { receiver_is_self } => {
                if *receiver_is_self {
                    if let Some(q) = caller_qual {
                        let own = methods_of(q);
                        if !own.is_empty() {
                            return self.narrow(caller, own);
                        }
                    }
                }
                any_method()
            }
            CallStyle::Qualified { qual } | CallStyle::Value { qual: Some(qual) } => {
                qualified(qual)
            }
        };
        self.narrow(caller, resolved)
    }

    /// BFS from the entrypoints; returns, per fn index, the predecessor
    /// on a shortest chain (`usize::MAX` marks a seed) — or `None` when
    /// unreachable.
    pub fn reach(&self) -> Vec<Option<usize>> {
        let mut pred: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for e in self.entrypoints() {
            pred[e] = Some(usize::MAX);
            queue.push_back(e);
        }
        while let Some(i) = queue.pop_front() {
            for call in &self.fns[i].calls {
                for j in self.resolve(i, call) {
                    if pred[j].is_none() {
                        pred[j] = Some(i);
                        queue.push_back(j);
                    }
                }
            }
        }
        pred
    }

    /// The shortest entrypoint→`i` chain as display frames.
    fn chain_to(&self, pred: &[Option<usize>], i: usize) -> Vec<String> {
        let mut frames = Vec::new();
        let mut cur = i;
        loop {
            let f = &self.fns[cur];
            frames.push(format!("{} ({}:{})", f.display_name(), f.file, f.line));
            match pred[cur] {
                Some(p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        frames.reverse();
        frames
    }
}

/// Runs panic reachability over the graph: every panic site inside a
/// function reachable from an entrypoint, with its shortest call chain.
/// Findings come back in (file, line) order.
pub fn panic_reachability(graph: &CallGraph) -> Vec<PanicFinding> {
    let pred = graph.reach();
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if pred[i].is_none() || f.panics.is_empty() {
            continue;
        }
        let chain = graph.chain_to(&pred, i);
        let entry = {
            let mut cur = i;
            while let Some(p) = pred[cur] {
                if p == usize::MAX {
                    break;
                }
                cur = p;
            }
            graph.fns[cur].display_name()
        };
        for site in &f.panics {
            out.push(PanicFinding {
                file: f.file.clone(),
                line: site.line,
                kind: site.kind,
                kind_label: site.kind.label(),
                entry: entry.clone(),
                chain: chain.clone(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.entry).cmp(&(&b.file, b.line, &b.entry)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.kind_label == b.kind_label);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::outline_of;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let outlined: Vec<(String, Outline)> = files
            .iter()
            .map(|(p, src)| (p.to_string(), outline_of(&lex(src))))
            .collect();
        CallGraph::build(&outlined)
    }

    #[test]
    fn cross_file_chain_reaches_the_panic_site() {
        let g = graph(&[
            (
                "crates/placement/src/optimal.rs",
                "pub fn optimal_placement() { helper_mid(); }",
            ),
            (
                "crates/placement/src/mid.rs",
                "pub fn helper_mid() { deep_leaf(3); }",
            ),
            (
                "crates/stroll/src/leaf.rs",
                "pub fn deep_leaf(i: usize) -> u64 { TABLE[i].unwrap() }",
            ),
        ]);
        let findings = panic_reachability(&g);
        // `TABLE[i]` index + `.unwrap()` on the same line.
        assert_eq!(findings.len(), 2);
        let f = &findings[0];
        assert_eq!(f.file, "crates/stroll/src/leaf.rs");
        assert_eq!(f.entry, "optimal_placement");
        assert_eq!(f.chain.len(), 3);
        assert!(f.chain[0].starts_with("optimal_placement"));
        assert!(f.chain[2].starts_with("deep_leaf"));
    }

    #[test]
    fn unreachable_panics_are_silent() {
        let g = graph(&[
            ("a.rs", "pub fn optimal_x() { safe(); }"),
            ("b.rs", "pub fn safe() -> u64 { 0 }"),
            ("c.rs", "pub fn island() { x.unwrap(); }"),
        ]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn test_fns_neither_seed_nor_carry_panics() {
        let g = graph(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests {\n pub fn optimal_t() { x.unwrap(); }\n}",
        )]);
        assert!(g.entrypoints().is_empty());
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn method_resolution_narrows_self_calls_to_the_own_impl() {
        let g = graph(&[(
            "a.rs",
            r#"
pub fn run_day() { let e = Engine::new(); e.step(); }
struct Engine;
impl Engine {
    fn new() -> Engine { Engine }
    fn step(&self) { self.tick(); }
    fn tick(&self) { panic!("boom"); }
}
impl Other {
    fn tick(&self) {}
}
"#,
        )]);
        let findings = panic_reachability(&g);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .chain
            .iter()
            .any(|f| f.starts_with("Engine::tick")));
    }

    #[test]
    fn module_qualified_calls_fall_back_to_free_fns() {
        let g = graph(&[
            (
                "a.rs",
                "pub fn dp_placement_warm() { stroll::inner_solve(); }",
            ),
            ("b.rs", "pub fn inner_solve() { todo!() }"),
        ]);
        assert_eq!(panic_reachability(&g).len(), 1);
    }

    #[test]
    fn value_position_references_create_edges() {
        let g = graph(&[
            (
                "a.rs",
                "pub fn run_chaos_trial(v: &[u64]) -> u64 { v.iter().copied().map(score_one).sum() }",
            ),
            ("b.rs", "pub fn score_one(x: u64) -> u64 { x.checked_mul(2).unwrap() }"),
        ]);
        let findings = panic_reachability(&g);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].entry, "run_chaos_trial");
    }

    #[test]
    fn known_type_without_the_method_stays_external() {
        // `Widget::render` exists as a type in the workspace but has no
        // `render` — the call must not leak to the free fn of that name.
        let g = graph(&[(
            "a.rs",
            r#"
pub fn run_day() { Widget::render(); }
struct Widget;
impl Widget { fn other(&self) {} }
pub fn render() { panic!("free fn, not Widget's"); }
"#,
        )]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn name_ties_prefer_the_callers_crate() {
        // Two crates each define `Parser::bump`. obs's parser is
        // reachable; the analyzer's own same-named method must not be
        // dragged in by the collision.
        let g = graph(&[
            (
                "crates/obs/src/json.rs",
                "pub fn run_day() { Parser::new().bump(); }\n\
                 impl Parser { fn bump(&mut self) { self.i += 1; } fn new() -> Parser { Parser } }",
            ),
            (
                "crates/analyzer/src/json.rs",
                "impl Parser { fn bump(&mut self) { panic!(\"other crate\"); } }",
            ),
        ]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn chains_are_shortest_by_hops() {
        let g = graph(&[(
            "a.rs",
            r#"
pub fn run_day() { long_a(); direct(); }
pub fn long_a() { long_b(); }
pub fn long_b() { direct(); }
pub fn direct() { x.unwrap(); }
"#,
        )]);
        let findings = panic_reachability(&g);
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].chain.len(),
            2,
            "run_day -> direct, not via long_*"
        );
    }
}
