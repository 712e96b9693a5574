//! Workspace call graph and per-function taint summaries.
//!
//! The intra-procedural pass in [`crate::taint`] loses taint at every
//! function boundary: `let tmp = helper(&key); println!("{tmp}")` is
//! invisible when `helper` merely returns its argument. This module makes
//! the boundary transparent:
//!
//! * **Summaries.** For every function in the workspace we compute a
//!   [`FnSummary`]: which parameter positions flow into the return value
//!   (`taints_return`), whether the return value is secret regardless of
//!   the arguments (`returns_secret` — grounded facts such as `self.d`
//!   inside a secret impl), and which parameter positions reach a sink
//!   inside the callee or anything it calls (`param_sinks`, with the
//!   call-path trace).
//! * **Call graph.** Call sites are resolved by name: free calls match
//!   free functions, `Type::assoc(…)` matches functions inside
//!   `impl Type`, `module::f(…)` (a qualifier no impl defines `f` for)
//!   matches free functions in the file that defines `module`, and
//!   `.method(…)` matches any impl method of that name (merged
//!   conservatively when ambiguous). Unresolvable callees keep
//!   the legacy behavior — their argument chains taint the call result
//!   directly.
//! * **SCC fixpoint.** Summaries are computed over Tarjan SCCs of the
//!   call graph in reverse topological order (callees first); members of
//!   a cycle — recursion, mutual calls — are iterated to a fixpoint with
//!   a round cap, so `fn launder(v, n) { … launder(v, n-1) }` converges.
//!
//! Precision notes: resolution is name-based (no type inference), so
//! same-named methods from different impls merge into one conservative
//! summary, and a module path resolves by its last segment only
//! (`crate::util::helper(…)` matches `helper` in any `util.rs` or
//! `util/mod.rs`). Summary sink scans honor inline `keylint: allow(…)`
//! suppressions at the sink line, so a blessed sink does not propagate
//! S008 findings to its callers.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::config::Config;
use crate::parser::{CallSite, FileModel};
use crate::rules::{self, RuleId};
use crate::taint::{Engine, FileCtx};

/// Identity of one function: file index within the model slice plus fn
/// index within that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnKey {
    /// Index into the analyzed `&[FileModel]`.
    pub file: usize,
    /// Index into that file's `fns`.
    pub idx: usize,
}

/// One hop of a laundering/sink path, threaded into JSON findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What happens at this hop.
    pub note: String,
}

/// A sink reached by a parameter, with the call path leading to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkTrace {
    /// Sink flavor: `format-macro sink`, `copy sink`, `unzeroed free`,
    /// `call sink` (transitive), or `configured sink`.
    pub kind: String,
    /// Hops from the parameter to the sink, caller-side first.
    pub path: Vec<TraceStep>,
}

/// Longest trace kept on a summary — bounds the paths that would
/// otherwise grow without bound inside mutual-recursion cycles.
const MAX_TRACE: usize = 6;

/// Interprocedural facts about one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Parameter positions whose taint reaches the return value.
    pub taints_return: BTreeSet<usize>,
    /// The return value is secret independent of the arguments
    /// (grounded facts: secret-typed locals, `self` of a secret impl).
    pub returns_secret: bool,
    /// Parameter positions that reach a sink (directly or through
    /// further calls), with the first such sink's trace.
    pub param_sinks: BTreeMap<usize, SinkTrace>,
}

/// All function summaries for one analysis run, plus the config overrides
/// for functions the analyzer cannot see (`[summaries]` in keylint.toml).
pub struct Summaries {
    table: HashMap<FnKey, FnSummary>,
    by_name: HashMap<String, Vec<(FnKey, Option<String>)>>,
    sanitizer_fns: BTreeSet<String>,
    sink_fns: BTreeSet<String>,
    trusted_fns: BTreeSet<String>,
    /// Model paths, indexed like the analyzed `&[FileModel]` — used to
    /// prefer same-file definitions when a bare name is ambiguous.
    paths: Vec<String>,
}

/// Does `set` name this callee? Entries are either a bare function name
/// (matches any call) or a `Qualifier::name` pair (matches only calls
/// spelled with that qualifier, e.g. `MontCtx::new` but not `Vec::new`).
fn set_matches(set: &BTreeSet<String>, call: &CallSite) -> bool {
    if set.contains(&call.callee) {
        return true;
    }
    call.qualifier
        .as_ref()
        .is_some_and(|q| set.contains(&format!("{q}::{}", call.callee)))
}

impl Summaries {
    /// Computes summaries for every function in `models`, iterating the
    /// call graph's SCCs to a fixpoint.
    #[must_use]
    pub fn compute(models: &[FileModel], secret: &BTreeSet<String>, cfg: &Config) -> Summaries {
        let ctxs: Vec<FileCtx> = models.iter().map(FileCtx::new).collect();
        let by_name = build_by_name(&ctxs);
        let paths: Vec<String> = models.iter().map(|m| m.path.clone()).collect();
        let graph = CallGraph::build(&ctxs, &by_name, &paths);
        let supp: Vec<HashMap<RuleId, BTreeSet<u32>>> =
            models.iter().map(rules::suppressed_lines).collect();
        let mut sums = Summaries {
            table: HashMap::new(),
            by_name,
            sanitizer_fns: cfg.summary_sanitizers.iter().cloned().collect(),
            sink_fns: cfg.summary_sinks.iter().cloned().collect(),
            trusted_fns: cfg.summary_trusted.iter().cloned().collect(),
            paths,
        };
        for scc in graph.sccs() {
            // Singletons stabilize in one round (their callees are final);
            // cycles get a few rounds, capped in case suppression makes the
            // evaluation non-monotone.
            let rounds = 2 + 2 * scc.len();
            for _ in 0..rounds {
                let mut changed = false;
                for &node in &scc {
                    let key = graph.nodes[node].0;
                    let s = summarize(&ctxs, models, secret, cfg, &sums, &supp, key);
                    if sums.table.get(&key) != Some(&s) {
                        changed = true;
                        sums.table.insert(key, s);
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        sums
    }

    /// Is this callee a configured extern sanitizer (result carries no
    /// key bytes, whatever the arguments)?
    #[must_use]
    pub fn is_sanitizer_fn(&self, call: &CallSite) -> bool {
        set_matches(&self.sanitizer_fns, call)
    }

    /// Is this callee a configured extern sink (every argument position
    /// leaks)?
    #[must_use]
    pub fn is_sink_fn(&self, call: &CallSite) -> bool {
        set_matches(&self.sink_fns, call)
    }

    /// Is this callee configured as trusted custody? Its data-flow facts
    /// (`taints_return`) still propagate, but its internal sinks do not
    /// become S008 findings at call sites — copying operands is its job
    /// (the summary analogue of `[s005] allowed_paths`).
    #[must_use]
    pub fn is_trusted_fn(&self, call: &CallSite) -> bool {
        set_matches(&self.trusted_fns, call)
    }

    /// Does this call resolve to any summary or override? Known calls
    /// suppress the legacy argument-chain passthrough — their summary
    /// verdict governs instead.
    #[must_use]
    pub fn known(&self, call: &CallSite) -> bool {
        self.is_sanitizer_fn(call)
            || self.is_sink_fn(call)
            || !candidate_keys(&self.by_name, &self.paths, call).is_empty()
    }

    /// The merged summary of every function this call can resolve to, or
    /// `None` when the callee is unknown.
    #[must_use]
    pub fn resolve(&self, call: &CallSite, from: &str) -> Option<FnSummary> {
        let mut keys = candidate_keys(&self.by_name, &self.paths, call);
        if keys.is_empty() {
            return None;
        }
        // An unqualified free-fn call prefers a definition in its own
        // file: bare names collide across an entire workspace (every
        // test helper named `check`), and a local definition is what the
        // compiler would actually link.
        if !call.method && call.qualifier.is_none() && keys.len() > 1 {
            let local: Vec<FnKey> =
                keys.iter().copied().filter(|k| self.paths[k.file] == from).collect();
            if !local.is_empty() {
                keys = local;
            }
        }
        let mut merged = FnSummary::default();
        for k in keys {
            if let Some(s) = self.table.get(&k) {
                merged.returns_secret |= s.returns_secret;
                merged.taints_return.extend(s.taints_return.iter().copied());
                for (p, t) in &s.param_sinks {
                    merged.param_sinks.entry(*p).or_insert_with(|| t.clone());
                }
            }
        }
        Some(merged)
    }
}

/// Name index over every function: `(key, owning impl type)`.
fn build_by_name(ctxs: &[FileCtx]) -> HashMap<String, Vec<(FnKey, Option<String>)>> {
    let mut by_name: HashMap<String, Vec<(FnKey, Option<String>)>> = HashMap::new();
    for (file, ctx) in ctxs.iter().enumerate() {
        for (idx, f) in ctx.m.fns.iter().enumerate() {
            by_name
                .entry(f.name.clone())
                .or_default()
                .push((FnKey { file, idx }, ctx.fn_owner[idx].clone()));
        }
    }
    by_name
}

/// Functions a call site can resolve to: free calls match free fns,
/// `Q::name(…)` matches fns inside `impl Q` or, when no impl `Q` defines
/// `name`, free fns in the file that defines module `Q`; `.name(…)`
/// matches any impl method of that name. `paths` are the model paths,
/// indexed by [`FnKey::file`].
fn candidate_keys(
    by_name: &HashMap<String, Vec<(FnKey, Option<String>)>>,
    paths: &[String],
    call: &CallSite,
) -> Vec<FnKey> {
    let Some(cands) = by_name.get(&call.callee) else {
        return Vec::new();
    };
    if call.method {
        cands.iter().filter(|(_, o)| o.is_some()).map(|(k, _)| *k).collect()
    } else if let Some(q) = &call.qualifier {
        let owned: Vec<FnKey> = cands
            .iter()
            .filter(|(_, o)| o.as_deref() == Some(q.as_str()))
            .map(|(k, _)| *k)
            .collect();
        if !owned.is_empty() {
            return owned;
        }
        cands
            .iter()
            .filter(|(k, o)| o.is_none() && module_name(&paths[k.file]) == q)
            .map(|(k, _)| *k)
            .collect()
    } else {
        cands.iter().filter(|(_, o)| o.is_none()).map(|(k, _)| *k).collect()
    }
}

/// The innermost module a source file defines, as a path qualifier names
/// it: `src/engine.rs` → `engine`, `util/mod.rs` → `util`, and a crate
/// root (`<crate>/src/lib.rs` or `main.rs`) → the crate's directory.
fn module_name(path: &str) -> &str {
    let mut dirs = path.strip_suffix(".rs").unwrap_or(path).rsplit('/');
    match dirs.next().unwrap_or("") {
        "mod" => dirs.next().unwrap_or(""),
        "lib" | "main" => dirs.find(|d| *d != "src").unwrap_or(""),
        stem => stem,
    }
}

/// Computes one function's summary against the current table.
fn summarize(
    ctxs: &[FileCtx],
    all: &[FileModel],
    secret: &BTreeSet<String>,
    cfg: &Config,
    sums: &Summaries,
    supp: &[HashMap<RuleId, BTreeSet<u32>>],
    key: FnKey,
) -> FnSummary {
    let ctx = &ctxs[key.file];
    let m = ctx.m;
    let f = &m.fns[key.idx];
    let mut out = FnSummary::default();

    let grounded = Engine {
        ctx,
        all,
        secret,
        cfg,
        summaries: Some(sums),
        grounded: true,
    };
    if f.has_ret && !f.returns.is_empty() {
        let ivs = grounded.run_fn(key.idx, &[]);
        let cl = |n: &str, l: u32| interval_hit(&ivs, n, l);
        out.returns_secret = grounded.sources_tainted(&cl, &f.returns, f.body);
    }

    let hypo = Engine {
        grounded: false,
        ..grounded
    };
    for (pi, p) in ctx.params(key.idx).iter().enumerate() {
        let ivs = hypo.run_fn(key.idx, &[(p.name.clone(), p.line)]);
        let cl = |n: &str, l: u32| interval_hit(&ivs, n, l);
        if f.has_ret && !f.returns.is_empty() && hypo.sources_tainted(&cl, &f.returns, f.body) {
            out.taints_return.insert(pi);
        }
        if let Some(trace) = first_sink(&hypo, &cl, key.idx, &supp[key.file]) {
            out.param_sinks.insert(pi, trace);
        }
    }
    out
}

fn interval_hit(ivs: &HashMap<String, Vec<(u32, u32)>>, name: &str, line: u32) -> bool {
    ivs.get(name)
        .is_some_and(|v| v.iter().any(|&(s, e)| s <= line && line < e))
}

/// The earliest sink a tainted value reaches inside fn `fi`: format
/// macros, copy calls, unzeroed frees, and — transitively — calls whose
/// callee summary sinks the corresponding parameter. Sinks on suppressed
/// lines are skipped, so an inline allow also stops upward propagation.
fn first_sink(
    e: &Engine,
    tainted: &dyn Fn(&str, u32) -> bool,
    fi: usize,
    supp: &HashMap<RuleId, BTreeSet<u32>>,
) -> Option<SinkTrace> {
    let m = e.ctx.m;
    let cfg = e.cfg;
    let blocked = |rule: RuleId, line: u32| supp.get(&rule).is_some_and(|s| s.contains(&line));
    // (line, tie-break, trace) — pick the first sink in program order.
    let mut hits: Vec<(u32, u8, SinkTrace)> = Vec::new();
    for &mi in &e.ctx.fn_macros[fi] {
        let mac = &m.macros[mi];
        if !rules::SINK_MACROS.contains(&mac.name.as_str()) || blocked(RuleId::S004, mac.line) {
            continue;
        }
        if let Some(arg) = mac
            .args
            .iter()
            .find(|a| !a.after_dot && !a.before_dot && tainted(&a.text, mac.line))
        {
            hits.push((
                mac.line,
                0,
                SinkTrace {
                    kind: "format-macro sink".into(),
                    path: vec![TraceStep {
                        file: m.path.clone(),
                        line: mac.line,
                        note: format!("`{}!({})` renders the value", mac.name, arg.text),
                    }],
                },
            ));
        }
    }
    let blessed = cfg.allowed_paths.iter().any(|p| m.path.starts_with(p.as_str()));
    if !blessed {
        for &ci in &e.ctx.fn_method_calls[fi] {
            let c = &m.method_calls[ci];
            if blocked(RuleId::S005, c.line) {
                continue;
            }
            let Some(root) = c.chain.first() else { continue };
            if tainted(root, c.line)
                && !c.chain[1..].iter().any(|s| cfg.sanitizers.contains(s))
            {
                hits.push((
                    c.line,
                    1,
                    SinkTrace {
                        kind: "copy sink".into(),
                        path: vec![TraceStep {
                            file: m.path.clone(),
                            line: c.line,
                            note: format!("`.{}()` duplicates the bytes", c.method),
                        }],
                    },
                ));
            }
        }
        for &ci in &e.ctx.fn_from_calls[fi] {
            let c = &m.from_calls[ci];
            if blocked(RuleId::S005, c.line) {
                continue;
            }
            if let Some(a) = c.args.iter().find(|a| tainted(a, c.line)) {
                hits.push((
                    c.line,
                    1,
                    SinkTrace {
                        kind: "copy sink".into(),
                        path: vec![TraceStep {
                            file: m.path.clone(),
                            line: c.line,
                            note: format!("`Vec::from({a})` copies the bytes"),
                        }],
                    },
                ));
            }
        }
    }
    for site in rules::fallible_frees(m, &m.fns[fi], cfg) {
        if blocked(RuleId::S007, site.line) {
            continue;
        }
        if let Some((n, _)) = site.candidates.iter().find(|(n, l)| tainted(n, *l)) {
            hits.push((
                site.line,
                2,
                SinkTrace {
                    kind: "unzeroed free".into(),
                    path: vec![TraceStep {
                        file: m.path.clone(),
                        line: site.line,
                        note: format!("`heap_free({n})` frees the bytes unzeroed"),
                    }],
                },
            ));
        }
    }
    for hit in transitive_call_sinks(e, tainted, fi) {
        let line = m.calls[hit.call].line;
        if blocked(RuleId::S008, line) {
            continue;
        }
        hits.push((line, 3, hit.trace));
    }
    hits.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    hits.into_iter().next().map(|(_, _, t)| t)
}

/// One call site passing a tainted argument into a sinking callee.
pub struct CallSinkHit {
    /// Index into `m.calls`.
    pub call: usize,
    /// Argument position that leaks.
    pub arg: usize,
    /// Root identifier of the leaking argument (for the finding symbol).
    pub root: String,
    /// Path from this call down to the sink.
    pub trace: SinkTrace,
}

/// Calls in fn `fi` whose callee summary (or configured-sink override)
/// sinks a tainted argument — the S008 facts and the transitive leg of
/// the summary sink scan.
pub(crate) fn transitive_call_sinks(
    e: &Engine,
    tainted: &dyn Fn(&str, u32) -> bool,
    fi: usize,
) -> Vec<CallSinkHit> {
    let Some(sums) = e.summaries else {
        return Vec::new();
    };
    let m = e.ctx.m;
    let mut out = Vec::new();
    for &ci in &e.ctx.fn_calls[fi] {
        let call = &m.calls[ci];
        if sums.is_sanitizer_fn(call) || sums.is_trusted_fn(call) {
            continue;
        }
        let configured = sums.is_sink_fn(call);
        let resolved = sums.resolve(call, &m.path);
        if !configured && resolved.is_none() {
            continue;
        }
        // Evaluate argument chains just inside the parens so this call
        // does not suppress its own arguments as known-call interiors.
        let inner = (call.arg_span.0 + 1, call.arg_span.1);
        for (ai, arg) in call.args.iter().enumerate() {
            let sink = resolved.as_ref().and_then(|sm| sm.param_sinks.get(&ai));
            if !configured && sink.is_none() {
                continue;
            }
            if !e.sources_tainted(tainted, arg, inner) {
                continue;
            }
            let mut path = vec![TraceStep {
                file: m.path.clone(),
                line: call.line,
                note: format!("passed as argument {} of `{}`", ai + 1, call.callee),
            }];
            match sink {
                Some(st) => path.extend(st.path.iter().cloned()),
                None => path.push(TraceStep {
                    file: m.path.clone(),
                    line: call.line,
                    note: format!("`{}` is a configured sink", call.callee),
                }),
            }
            path.truncate(MAX_TRACE);
            let kind = sink.map_or_else(|| "configured sink".to_string(), |st| st.kind.clone());
            let root = arg
                .first()
                .and_then(|s| s.chain.first())
                .cloned()
                .unwrap_or_default();
            out.push(CallSinkHit {
                call: ci,
                arg: ai,
                root,
                trace: SinkTrace { kind, path },
            });
            break; // one finding per call site is enough
        }
    }
    out
}

/// The workspace call graph (name-resolved, conservative).
pub struct CallGraph {
    /// `(identity, "path::fn")` per node.
    nodes: Vec<(FnKey, String)>,
    /// Adjacency: caller node → callee nodes.
    succ: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every function in `ctxs`.
    fn build(
        ctxs: &[FileCtx],
        by_name: &HashMap<String, Vec<(FnKey, Option<String>)>>,
        paths: &[String],
    ) -> Self {
        let mut nodes = Vec::new();
        let mut node_id: HashMap<FnKey, usize> = HashMap::new();
        for (file, ctx) in ctxs.iter().enumerate() {
            for (idx, f) in ctx.m.fns.iter().enumerate() {
                let key = FnKey { file, idx };
                node_id.insert(key, nodes.len());
                let display = match &ctx.fn_owner[idx] {
                    Some(owner) => format!("{}::{}::{}", ctx.m.path, owner, f.name),
                    None => format!("{}::{}", ctx.m.path, f.name),
                };
                nodes.push((key, display));
            }
        }
        let mut succ = vec![Vec::new(); nodes.len()];
        for (file, ctx) in ctxs.iter().enumerate() {
            for call in &ctx.m.calls {
                let Some(caller_idx) = ctx.fn_of(call.tok_index) else {
                    continue;
                };
                let caller = node_id[&FnKey { file, idx: caller_idx }];
                for target in candidate_keys(by_name, paths, call) {
                    let t = node_id[&target];
                    if !succ[caller].contains(&t) {
                        succ[caller].push(t);
                    }
                }
            }
        }
        CallGraph { nodes, succ }
    }

    /// Tarjan SCCs, emitted callee-first (reverse topological order of
    /// the condensation) — exactly the summary processing order.
    fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.succ.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut out = Vec::new();
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            frames.push((start, 0));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                if frame.1 == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = self.succ[v].get(frame.1) {
                    frame.1 += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(u, _)) = frames.last() {
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Graphviz DOT rendering.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph keylint_callgraph {\n  rankdir=LR;\n");
        for (i, (_, name)) in self.nodes.iter().enumerate() {
            s.push_str(&format!("  n{i} [label=\"{}\"];\n", name.replace('"', "'")));
        }
        for (from, tos) in self.succ.iter().enumerate() {
            for &to in tos {
                s.push_str(&format!("  n{from} -> n{to};\n"));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Renders the DOT call graph for `models` (the `--emit-callgraph` path).
#[must_use]
pub fn dot(models: &[FileModel]) -> String {
    let ctxs: Vec<FileCtx> = models.iter().map(FileCtx::new).collect();
    let by_name = build_by_name(&ctxs);
    let paths: Vec<String> = models.iter().map(|m| m.path.clone()).collect();
    CallGraph::build(&ctxs, &by_name, &paths).to_dot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::rules::secret_types;

    fn summaries_of(files: &[(&str, &str)]) -> (Vec<FileModel>, Summaries) {
        let cfg = Config::default();
        let models: Vec<FileModel> =
            files.iter().map(|(p, s)| parse_file(p, s)).collect();
        let secret = secret_types(&models, &cfg);
        let sums = Summaries::compute(&models, &secret, &cfg);
        (models, sums)
    }

    fn summary_for<'s>(models: &[FileModel], sums: &'s Summaries, name: &str) -> &'s FnSummary {
        for (file, m) in models.iter().enumerate() {
            for (idx, f) in m.fns.iter().enumerate() {
                if f.name == name {
                    return sums.table.get(&FnKey { file, idx }).expect("summary computed");
                }
            }
        }
        panic!("fn {name} not found");
    }

    #[test]
    fn identity_helper_taints_return() {
        let (models, sums) = summaries_of(&[("a.rs", "fn ident(v: BigUint) -> BigUint { v }")]);
        let s = summary_for(&models, &sums, "ident");
        assert!(s.taints_return.contains(&0));
        assert!(!s.returns_secret);
    }

    #[test]
    fn two_hop_chain_taints_return_across_files() {
        let (models, sums) = summaries_of(&[
            ("a.rs", "fn one(v: BigUint) -> BigUint { two(v) }"),
            ("b.rs", "fn two(v: BigUint) -> BigUint { v }"),
        ]);
        let s = summary_for(&models, &sums, "one");
        assert!(s.taints_return.contains(&0));
    }

    #[test]
    fn recursive_helper_converges() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "fn launder(v: BigUint, n: u32) -> BigUint { if n == 0 { return v; } launder(v, n - 1) }",
        )]);
        let s = summary_for(&models, &sums, "launder");
        assert!(s.taints_return.contains(&0));
        assert!(!s.taints_return.contains(&1));
    }

    #[test]
    fn sanitizer_tail_keeps_summary_clean() {
        let (models, sums) = summaries_of(&[("a.rs", "fn size(v: &BigUint) -> usize { v.len() }")]);
        let s = summary_for(&models, &sums, "size");
        assert!(s.taints_return.is_empty());
        assert!(s.param_sinks.is_empty());
    }

    #[test]
    fn macro_sink_lands_in_param_sinks() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "fn log_value(v: &BigUint) {\n    println!(\"v = {}\", v);\n}",
        )]);
        let s = summary_for(&models, &sums, "log_value");
        let sink = s.param_sinks.get(&0).expect("param 0 sinks");
        assert_eq!(sink.kind, "format-macro sink");
        assert_eq!(sink.path[0].line, 2);
    }

    #[test]
    fn transitive_sink_extends_the_trace() {
        let (models, sums) = summaries_of(&[
            ("a.rs", "fn outer(v: &BigUint) { inner(v); }"),
            ("b.rs", "fn inner(v: &BigUint) { println!(\"{}\", v); }"),
        ]);
        let s = summary_for(&models, &sums, "outer");
        let sink = s.param_sinks.get(&0).expect("transitive sink");
        assert!(sink.path.len() >= 2, "{:?}", sink.path);
        assert_eq!(sink.path[0].file, "a.rs");
        assert_eq!(sink.path[1].file, "b.rs");
    }

    #[test]
    fn suppressed_sink_does_not_propagate() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "fn log_value(v: &BigUint) {\n    // keylint: allow(S004) -- audit-reviewed\n    println!(\"{}\", v);\n}",
        )]);
        let s = summary_for(&models, &sums, "log_value");
        assert!(s.param_sinks.is_empty());
    }

    #[test]
    fn mutual_recursion_terminates() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "fn a(v: BigUint, n: u32) -> BigUint { if n == 0 { return v; } b(v, n) }\nfn b(v: BigUint, n: u32) -> BigUint { a(v, n) }",
        )]);
        // `b` only taints its return through the cycle back into `a`'s
        // base case — the SCC fixpoint must carry that around the loop.
        let s = summary_for(&models, &sums, "b");
        assert!(s.taints_return.contains(&0));
        assert!(!s.taints_return.contains(&1));
        // A cycle with no base case never returns the value: the least
        // fixpoint correctly stays empty.
        let (m2, s2) = summaries_of(&[(
            "a.rs",
            "fn c(v: BigUint) -> BigUint { d(v) }\nfn d(v: BigUint) -> BigUint { c(v) }",
        )]);
        assert!(summary_for(&m2, &s2, "c").taints_return.is_empty());
    }

    #[test]
    fn qualified_calls_resolve_to_impl_owners() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "struct W;\nimpl W { fn wrap(v: BigUint) -> BigUint { v } }\nimpl V { fn wrap(v: BigUint) -> u32 { 0 } }\nfn user(v: BigUint) -> BigUint { W::wrap(v) }",
        )]);
        let s = summary_for(&models, &sums, "user");
        assert!(s.taints_return.contains(&0));
    }

    #[test]
    fn self_qualified_calls_resolve_through_the_enclosing_impl() {
        let (models, sums) = summaries_of(&[(
            "a.rs",
            "struct G;\nimpl G {\n    fn wrap(v: BigUint) -> BigUint { v }\n    fn log(v: &BigUint) { println!(\"{}\", v); }\n    fn user(v: BigUint) -> BigUint { Self::wrap(v) }\n    fn leaker(v: &BigUint) { Self::log(v); }\n}",
        )]);
        // `Self::wrap` must resolve to `G::wrap`, carrying its data flow…
        let s = summary_for(&models, &sums, "user");
        assert!(s.taints_return.contains(&0));
        // …and `Self::log` must propagate its sink upward (the S008 leg).
        let l = summary_for(&models, &sums, "leaker");
        let sink = l.param_sinks.get(&0).expect("Self:: call sink propagates");
        assert_eq!(sink.kind, "format-macro sink");
    }

    #[test]
    fn module_qualified_calls_resolve_to_the_module_file() {
        let (models, sums) = summaries_of(&[
            ("crates/x/src/util.rs", "fn wrap(v: BigUint) -> BigUint { v }"),
            ("crates/x/src/other.rs", "fn wrap(v: BigUint) -> u32 { 0 }"),
            (
                "crates/x/src/lib.rs",
                "fn user(v: BigUint) -> BigUint { crate::util::wrap(v) }\nfn constant(v: BigUint) -> u32 { other::wrap(v) }",
            ),
        ]);
        // Each qualified call resolves to its own module's `wrap` only:
        // util.rs passes the argument through, other.rs drops it.
        assert!(summary_for(&models, &sums, "user").taints_return.contains(&0));
        assert!(summary_for(&models, &sums, "constant").taints_return.is_empty());
        assert_eq!(module_name("crates/x/src/util.rs"), "util");
        assert_eq!(module_name("crates/x/src/util/mod.rs"), "util");
        assert_eq!(module_name("crates/x/src/lib.rs"), "x");
    }

    #[test]
    fn dot_output_lists_nodes_and_edges() {
        let models = vec![parse_file("a.rs", "fn f() { g(); }\nfn g() {}")];
        let d = dot(&models);
        assert!(d.starts_with("digraph keylint_callgraph"));
        assert!(d.contains("a.rs::f"));
        assert!(d.contains("->"));
    }
}
