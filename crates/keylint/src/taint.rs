//! Taint tracking: an intra-procedural dataflow core, extended across
//! function boundaries by the call-graph summaries in
//! [`crate::callgraph`].
//!
//! The syntactic rules resolve one expression at a time, so a secret
//! laundered through an intermediate binding — `let tmp = key.d();
//! println!("{tmp}")` — used to escape S004/S005. This module closes that
//! hole with a per-function forward dataflow pass over the parser's
//! binding graph ([`crate::parser::Assign`]):
//!
//! * **Seeds.** A binding is tainted when its annotated type or `T::…`
//!   constructor is a secret type, or when its initializer is a secret
//!   expression (a chain rooted at a secret-typed binding or `self` of a
//!   secret impl, a secret accessor such as `.key()`, or a CRT component
//!   field such as `.d`).
//! * **Propagation.** Taint flows through `let` rebinding, plain
//!   `name = expr;` reassignment, tuple/struct destructuring (every bound
//!   name of a tainted initializer is tainted — over-approximate across
//!   tuple positions by design), and `&`/`*`/`as`/`?` passthrough, which
//!   the chain extractor simply walks over. Events are processed in
//!   program order, so straight-line chains of any depth reach their
//!   fixpoint in a single pass.
//! * **Calls.** A chain rooted at a *resolved* call — `helper(&key)`
//!   where `helper` is defined somewhere in the workspace (or configured
//!   under `[summaries]`) — takes its verdict from the callee's summary:
//!   the result is tainted iff the summary says an argument flows to the
//!   return (or the return is secret outright), and the raw argument
//!   chains are *not* treated as direct sources. Unresolved callees keep
//!   the legacy conservative passthrough (arguments taint the result).
//! * **Loops.** Back-edge taint (a use textually before its def, as in
//!   `loop { log(tmp); tmp = key.d(); }`) is closed by iterating each
//!   function: an interval born inside a loop body that survives to the
//!   loop's end re-seeds its name at the loop head until nothing changes
//!   (capped — taint sets only grow, so a handful of rounds suffices).
//! * **Sanitizers.** A chain ending in a configured sanitizer
//!   (`redact()`, `len()`, `is_empty()`, … — `[sanitizers] methods` in
//!   `keylint.toml`) provably does not carry key bytes, so taint dies
//!   there: `let n = key.d().len();` leaves `n` clean.
//! * **Shadowing.** Re-binding a name to a clean value closes its taint
//!   interval: after `let t = key.d(); let t = t.len();` the name `t` is
//!   clean. Taint facts are line intervals per name, scoped to the
//!   enclosing function, so the same name in another function is never
//!   contaminated. Root *type* resolution is scoped the same way: a
//!   secret-typed `key` in one fn cannot mis-type an unrelated `key` in
//!   another.
//!
//! Precision notes: the walk is name-based, not scope-based, so a clean
//! rebinding inside a nested block clears the name for the rest of the
//! function (under-taint), and a tainted root conservatively taints every
//! unsanitized projection of itself (over-taint).

use std::collections::{BTreeSet, HashMap};

use crate::callgraph::{CallSinkHit, Summaries};
use crate::config::Config;
use crate::parser::{Binding, CallSite, FileModel, SourceRef, StructDef};
use crate::rules::{classify_field, FieldKind};

/// Per-file index with every parser fact bucketed by its innermost
/// enclosing function, built once per file so the per-function passes
/// stop re-filtering the whole item list (the old O(fns × assigns)
/// walk).
pub struct FileCtx<'a> {
    /// The underlying model.
    pub m: &'a FileModel,
    pub(crate) fn_bindings: Vec<Vec<usize>>,
    pub(crate) fn_assigns: Vec<Vec<usize>>,
    pub(crate) fn_macros: Vec<Vec<usize>>,
    pub(crate) fn_method_calls: Vec<Vec<usize>>,
    pub(crate) fn_from_calls: Vec<Vec<usize>>,
    pub(crate) fn_calls: Vec<Vec<usize>>,
    pub(crate) fn_loops: Vec<Vec<usize>>,
    /// Bindings outside any recognized fn body.
    pub(crate) loose_bindings: Vec<usize>,
    /// Call-site index by callee token index.
    pub(crate) call_at: HashMap<usize, usize>,
    /// Fn index by `sig_start`.
    fn_index: HashMap<usize, usize>,
    /// Impl self-type owning each fn, if any.
    pub(crate) fn_owner: Vec<Option<String>>,
}

impl<'a> FileCtx<'a> {
    /// Buckets every item of `m` by enclosing function.
    #[must_use]
    pub fn new(m: &'a FileModel) -> Self {
        let n = m.fns.len();
        let fn_index: HashMap<usize, usize> =
            m.fns.iter().enumerate().map(|(i, f)| (f.sig_start, i)).collect();
        let mut ctx = FileCtx {
            m,
            fn_bindings: vec![Vec::new(); n],
            fn_assigns: vec![Vec::new(); n],
            fn_macros: vec![Vec::new(); n],
            fn_method_calls: vec![Vec::new(); n],
            fn_from_calls: vec![Vec::new(); n],
            fn_calls: vec![Vec::new(); n],
            fn_loops: vec![Vec::new(); n],
            loose_bindings: Vec::new(),
            call_at: m.calls.iter().enumerate().map(|(i, c)| (c.tok_index, i)).collect(),
            fn_index,
            fn_owner: m
                .fns
                .iter()
                .map(|f| m.impl_at(f.sig_start).map(|im| im.type_name.clone()))
                .collect(),
        };
        for (i, b) in m.bindings.iter().enumerate() {
            match ctx.fn_of(b.tok_index) {
                Some(fi) => ctx.fn_bindings[fi].push(i),
                None => ctx.loose_bindings.push(i),
            }
        }
        for (i, a) in m.assigns.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(a.tok_index) {
                ctx.fn_assigns[fi].push(i);
            }
        }
        for (i, mc) in m.macros.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(mc.tok_index) {
                ctx.fn_macros[fi].push(i);
            }
        }
        for (i, c) in m.method_calls.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(c.tok_index) {
                ctx.fn_method_calls[fi].push(i);
            }
        }
        for (i, c) in m.from_calls.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(c.tok_index) {
                ctx.fn_from_calls[fi].push(i);
            }
        }
        for (i, c) in m.calls.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(c.tok_index) {
                ctx.fn_calls[fi].push(i);
            }
        }
        for (i, &(open, _)) in m.loops.iter().enumerate() {
            if let Some(fi) = ctx.fn_of(open) {
                ctx.fn_loops[fi].push(i);
            }
        }
        ctx
    }

    /// Index of the innermost fn containing token `tok_index`, if any.
    pub(crate) fn fn_of(&self, tok_index: usize) -> Option<usize> {
        self.m
            .fn_at(tok_index)
            .map(|f| self.fn_index[&f.sig_start])
    }

    /// Parameters of fn `fi` in positional order (`self` excluded — the
    /// parser skips it).
    pub(crate) fn params(&self, fi: usize) -> Vec<&Binding> {
        let f = &self.m.fns[fi];
        self.fn_bindings[fi]
            .iter()
            .map(|&i| &self.m.bindings[i])
            .filter(|b| b.tok_index < f.body.0)
            .collect()
    }

    /// Bindings visible when resolving a root name at `tok_index`: the
    /// enclosing fn's bindings plus file-level ones — never another fn's
    /// (the cross-function mis-typing guard). Outside any fn, the whole
    /// file remains the scope.
    pub(crate) fn scoped_bindings(&self, tok_index: usize) -> Vec<&Binding> {
        match self.fn_of(tok_index) {
            Some(fi) => self.fn_bindings[fi]
                .iter()
                .chain(&self.loose_bindings)
                .map(|&i| &self.m.bindings[i])
                .collect(),
            None => self.m.bindings.iter().collect(),
        }
    }
}

/// Is this binding declared with a secret type (annotation or `T::…`
/// constructor)?
pub(crate) fn binding_secret(b: &Binding, secret: &BTreeSet<String>) -> bool {
    b.type_idents.iter().any(|t| secret.contains(t))
        || b.ctor.as_deref().is_some_and(|c| secret.contains(c))
}

/// The dataflow evaluator for one file. `grounded: true` is the real
/// analysis (secret types, accessors, `self` facts all seed taint);
/// `grounded: false` is the hypothetical mode summary computation uses —
/// only the explicit seeds (one parameter at a time) are tainted, so the
/// result isolates what *that parameter* contributes.
#[derive(Clone, Copy)]
pub(crate) struct Engine<'a> {
    pub ctx: &'a FileCtx<'a>,
    pub all: &'a [FileModel],
    pub secret: &'a BTreeSet<String>,
    pub cfg: &'a Config,
    pub summaries: Option<&'a Summaries>,
    pub grounded: bool,
}

impl Engine<'_> {
    /// Runs fn `fi` to a back-edge fixpoint: intervals born inside a loop
    /// body that survive to the loop's end re-seed their name at the loop
    /// head, then the pass repeats until nothing changes (capped).
    pub(crate) fn run_fn(
        &self,
        fi: usize,
        seeds: &[(String, u32)],
    ) -> HashMap<String, Vec<(u32, u32)>> {
        let m = self.ctx.m;
        let f = &m.fns[fi];
        let end_line = m
            .toks
            .get(f.body.1)
            .map_or(u32::MAX, |t| t.line.saturating_add(1));
        // (loop-head line, loop-end line) per loop in this fn. The spans
        // store the token range between the braces, so the head is the
        // token before the range and the end is the closing brace.
        let loop_lines: Vec<(u32, u32)> = self.ctx.fn_loops[fi]
            .iter()
            .filter_map(|&li| {
                let (open, close) = m.loops[li];
                let head = m.toks.get(open.wrapping_sub(1))?.line;
                let end = m.toks.get(close).map_or(end_line, |t| t.line);
                Some((head, end))
            })
            .collect();
        let mut extra: Vec<(String, u32)> = seeds.to_vec();
        let mut rounds = 0;
        loop {
            let ivs = self.one_pass(fi, &extra, end_line);
            rounds += 1;
            let mut grew = false;
            for &(head, end) in &loop_lines {
                for (name, list) in &ivs {
                    for &(s, e) in list {
                        // Born strictly inside the loop and still live at
                        // its end: the back-edge carries it to the head.
                        if s > head && s <= end && e > end {
                            let known = extra
                                .iter_mut()
                                .find(|(n, _)| n == name);
                            match known {
                                Some((_, l)) if *l <= head => {}
                                Some((_, l)) => {
                                    *l = head;
                                    grew = true;
                                }
                                None => {
                                    extra.push((name.clone(), head));
                                    grew = true;
                                }
                            }
                        }
                    }
                }
            }
            if !grew || rounds >= 8 {
                return ivs;
            }
        }
    }

    /// One forward pass over the assignments of fn `fi`, in program
    /// order. `extra` seeds activate when the walk reaches their line.
    fn one_pass(
        &self,
        fi: usize,
        extra: &[(String, u32)],
        end_line: u32,
    ) -> HashMap<String, Vec<(u32, u32)>> {
        let m = self.ctx.m;
        let f = &m.fns[fi];
        let mut state: HashMap<String, u32> = HashMap::new();
        if self.grounded {
            for &bi in &self.ctx.fn_bindings[fi] {
                let b = &m.bindings[bi];
                if b.tok_index < f.body.0 && binding_secret(b, self.secret) {
                    state.insert(b.name.clone(), b.line);
                }
            }
        }
        let mut pending: Vec<(&String, u32)> = extra.iter().map(|(n, l)| (n, *l)).collect();
        pending.sort_by_key(|&(_, l)| l);
        let mut pi = 0usize;
        let mut closed: Vec<(String, u32, u32)> = Vec::new();
        for &ai in &self.ctx.fn_assigns[fi] {
            let a = &m.assigns[ai];
            while pi < pending.len() && pending[pi].1 <= a.line {
                state.entry(pending[pi].0.clone()).or_insert(pending[pi].1);
                pi += 1;
            }
            // Binding-level seed: a secret-typed `let` is tainted
            // whatever its initializer looked like.
            let typed_secret = self.grounded
                && self.ctx.fn_bindings[fi].iter().any(|&bi| {
                    let b = &m.bindings[bi];
                    b.line == a.line
                        && a.names.contains(&b.name)
                        && binding_secret(b, self.secret)
                });
            let rhs_tainted = typed_secret || {
                let cl = |n: &str, _l: u32| state.contains_key(n);
                // Tuple destructurings get no summary verdict: taint is
                // position-blind across `let (a, b, c) = f();`, so a
                // `returns_secret` callee would smear every name (e.g. the
                // rng riding along with a generated key). Only single-name
                // assigns trust the callee summary; multi-name ones fall
                // back to the argument-passthrough rule.
                let eng = if a.names.len() > 1 {
                    Engine { summaries: None, ..*self }
                } else {
                    *self
                };
                eng.sources_tainted(&cl, &a.sources, a.rhs_span)
            };
            for name in &a.names {
                if rhs_tainted {
                    state.entry(name.clone()).or_insert(a.line);
                } else if let Some(start) = state.remove(name) {
                    // Clean rebinding: shadowing kills the taint.
                    closed.push((name.clone(), start, a.line));
                }
            }
        }
        for &(n, l) in &pending[pi..] {
            state.entry(n.clone()).or_insert(l);
        }
        for (name, start) in state {
            closed.push((name, start, end_line));
        }
        let mut out: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        for (n, s, e) in closed {
            out.entry(n).or_default().push((s, e));
        }
        out
    }

    /// Is any chain of `sources` (an rhs, a return expression, a call
    /// argument spanning `span`) a secret expression? Chains sitting
    /// inside the parens of a *known* call are skipped — the callee's
    /// summary verdict (via [`Engine::call_result_tainted`] on the call's
    /// own root chain) governs what flows out of it.
    pub(crate) fn sources_tainted(
        &self,
        tainted: &dyn Fn(&str, u32) -> bool,
        sources: &[SourceRef],
        span: (usize, usize),
    ) -> bool {
        sources
            .iter()
            .any(|s| !self.arg_of_known_call(s, span) && self.source_tainted(tainted, s))
    }

    /// Is chain `s` strictly inside the argument parens of a known
    /// free-function call, or of a method call to a configured summary
    /// sanitizer (`kernel.create_file(..)`), contained in `span`?
    fn arg_of_known_call(&self, s: &SourceRef, span: (usize, usize)) -> bool {
        let Some(sums) = self.summaries else {
            return false;
        };
        self.ctx.m.calls.iter().any(|c| {
            (!c.method || sums.is_sanitizer_fn(c))
                && c.arg_span.0 >= span.0
                && c.arg_span.1 <= span.1
                && s.tok_index > c.arg_span.0
                && s.tok_index < c.arg_span.1
                && sums.known(c)
        })
    }

    /// Is this single chain a secret expression, given the taint oracle
    /// `tainted` (an in-flight state during a pass, or finished intervals
    /// when scanning sinks)?
    pub(crate) fn source_tainted(
        &self,
        tainted: &dyn Fn(&str, u32) -> bool,
        s: &SourceRef,
    ) -> bool {
        let chain = &s.chain;
        let Some(root) = chain.first() else {
            return false;
        };
        let m = self.ctx.m;
        let line = m.toks.get(s.tok_index).map_or(0, |t| t.line);
        // Sanitized tail: the secret provably does not survive. `unwrap`
        // and `expect` are value-preserving wrappers, so the check looks
        // through them to the last meaningful segment —
        // `s.open(&wire).expect("...")` sanitizes like `s.open(&wire)`.
        let tail = chain[1..].iter().rev().find(|seg| *seg != "unwrap" && *seg != "expect");
        if tail.is_some_and(|l| self.cfg.sanitizers.contains(l)) {
            return false;
        }
        // A chain rooted at a resolved free-function call: the callee's
        // summary decides what flows out.
        if let Some(&ci) = self.ctx.call_at.get(&s.tok_index) {
            let call = &m.calls[ci];
            if !call.method {
                if let Some(verdict) = self.call_result_tainted(tainted, call) {
                    return verdict;
                }
            }
        }
        if self.grounded {
            // Typed resolution is authoritative for secret-typed roots: it
            // distinguishes `key.d()` (secret) from `key.bits()` (metadata).
            let self_secret = root == "self"
                && m.impl_at(s.tok_index)
                    .is_some_and(|im| self.secret.contains(&im.type_name));
            if self_secret || self.typed_secret_binding(root, s.tok_index) {
                return chain_is_secret(self.ctx, self.all, self.secret, self.cfg, chain, s.tok_index);
            }
            // Secret accessors / CRT component fields taint regardless of
            // the root's (unknown or non-secret) type — the same reach
            // S004 has always had on direct `.key()` / `.d` macro args.
            if chain[1..].iter().any(|seg| {
                self.cfg.accessors.contains(seg) || self.cfg.secret_field_names.contains(seg)
            }) {
                return true;
            }
        }
        // A laundered local: any unsanitized projection of it is tainted.
        if root == "self" || !tainted(root, line) {
            return false;
        }
        // Hypothetical refinement: when the seeded root carries a known
        // secret type, give it the same field-level resolution grounded
        // analysis uses — otherwise summaries would contradict the direct
        // rules by calling `key.bits()`-style metadata projections secret.
        if !self.grounded && chain.len() > 1 && self.typed_secret_binding(root, s.tok_index) {
            return chain_is_secret(self.ctx, self.all, self.secret, self.cfg, chain, s.tok_index);
        }
        true
    }

    /// Verdict for the result of a call, when the callee is known:
    /// `Some(false)` for configured sanitizer fns, `Some(tainted?)` per
    /// the resolved summary, `None` when unknown (legacy passthrough
    /// stays in charge).
    fn call_result_tainted(
        &self,
        tainted: &dyn Fn(&str, u32) -> bool,
        call: &CallSite,
    ) -> Option<bool> {
        let sums = self.summaries?;
        if sums.is_sanitizer_fn(call) {
            return Some(false);
        }
        let sm = sums.resolve(call, &self.ctx.m.path)?;
        if self.grounded && sm.returns_secret {
            return Some(true);
        }
        // Evaluate argument chains just inside the parens so this call
        // does not suppress its own arguments as known-call interiors.
        let inner = (call.arg_span.0 + 1, call.arg_span.1);
        for &p in &sm.taints_return {
            if let Some(arg) = call.args.get(p) {
                if self.sources_tainted(tainted, arg, inner) {
                    return Some(true);
                }
            }
        }
        Some(false)
    }

    /// Is `name` a secret-typed binding in scope at `tok_index`?
    pub(crate) fn typed_secret_binding(&self, name: &str, tok_index: usize) -> bool {
        self.ctx
            .scoped_bindings(tok_index)
            .iter()
            .any(|b| b.name == name && binding_secret(b, self.secret))
    }
}

/// Taint facts for one file: per-name tainted line intervals, computed
/// function by function. Rules query this instead of re-deriving chains.
pub struct FileTaint<'a> {
    ctx: FileCtx<'a>,
    all: &'a [FileModel],
    secret: &'a BTreeSet<String>,
    cfg: &'a Config,
    summaries: Option<&'a Summaries>,
    /// name → half-open tainted line ranges `[start, end)`. Ranges from
    /// different functions never overlap, so one map per file suffices.
    intervals: HashMap<String, Vec<(u32, u32)>>,
}

impl<'a> FileTaint<'a> {
    /// Runs the dataflow pass over every function in `m`. With
    /// `summaries`, call results resolve through callee summaries;
    /// without (`None`), calls keep the conservative legacy passthrough.
    #[must_use]
    pub fn compute(
        m: &'a FileModel,
        all: &'a [FileModel],
        secret: &'a BTreeSet<String>,
        cfg: &'a Config,
        summaries: Option<&'a Summaries>,
    ) -> Self {
        let ctx = FileCtx::new(m);
        let mut intervals: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        {
            let e = Engine {
                ctx: &ctx,
                all,
                secret,
                cfg,
                summaries,
                grounded: true,
            };
            for fi in 0..m.fns.len() {
                for (name, list) in e.run_fn(fi, &[]) {
                    intervals.entry(name).or_default().extend(list);
                }
            }
        }
        // Secret-typed bindings outside any recognized fn body (macro
        // expansions, exotic syntax): degrade to a file-wide fact so the
        // lint errs on the side of catching the leak.
        for &bi in &ctx.loose_bindings {
            let b = &m.bindings[bi];
            if binding_secret(b, secret) {
                intervals
                    .entry(b.name.clone())
                    .or_default()
                    .push((b.line, u32::MAX));
            }
        }
        Self {
            ctx,
            all,
            secret,
            cfg,
            summaries,
            intervals,
        }
    }

    fn engine(&self) -> Engine<'_> {
        Engine {
            ctx: &self.ctx,
            all: self.all,
            secret: self.secret,
            cfg: self.cfg,
            summaries: self.summaries,
            grounded: true,
        }
    }

    /// Is `name` carrying secret material at `line`?
    #[must_use]
    pub fn tainted_at(&self, name: &str, line: u32) -> bool {
        self.intervals
            .get(name)
            .is_some_and(|v| v.iter().any(|&(s, e)| s <= line && line < e))
    }

    /// S005's question: does this copy-method receiver chain denote a
    /// secret expression — either by typed resolution or because its root
    /// is a laundered (tainted) local at `line`?
    #[must_use]
    pub fn copy_is_secret(&self, chain: &[String], tok_index: usize, line: u32) -> bool {
        if chain_is_secret(&self.ctx, self.all, self.secret, self.cfg, chain, tok_index) {
            return true;
        }
        let Some(root) = chain.first() else {
            return false;
        };
        // A typed secret root was already resolved field-by-field above;
        // trust that verdict (`key.bits().clone()` stays clean).
        if root == "self" || self.engine().typed_secret_binding(root, tok_index) {
            return false;
        }
        self.tainted_at(root, line)
            && !chain[1..].iter().any(|seg| self.cfg.sanitizers.contains(seg))
    }

    /// S008's facts: call sites in this file whose callee summary (or
    /// configured-sink override) sinks a grounded-tainted argument.
    #[must_use]
    pub fn call_sinks(&self) -> Vec<CallSinkHit> {
        if self.summaries.is_none() {
            return Vec::new();
        }
        let e = self.engine();
        let cl = |n: &str, l: u32| self.tainted_at(n, l);
        let mut out = Vec::new();
        for fi in 0..self.ctx.m.fns.len() {
            out.extend(crate::callgraph::transitive_call_sinks(&e, &cl, fi));
        }
        out
    }
}

/// Resolves whether a method-call chain denotes a secret expression by
/// walking it through struct definitions field by field.
///
/// The root must be secret (a secret-typed binding in scope at
/// `tok_index`, or `self` inside an impl of a secret type). Each
/// subsequent segment is then resolved:
///
/// * a CRT component name (`d`, `p`, `qinv`, …) is secret outright;
/// * a field whose type is secret keeps the walk alive;
/// * a field of raw-buffer type (`Vec`, `String`, `BigUint`, …) inside a
///   secret type is treated as secret payload — that is exactly the copy
///   the rule exists to catch (suppress with a comment when the field is
///   genuinely public, e.g. the modulus `n`);
/// * a field of plain type (counters, flags) ends the walk clean;
/// * an unresolvable segment (a method call) is secret only if listed in
///   `accessors`, else the walk gives up clean — the lint prefers missing
///   an exotic chain over drowning real findings in noise.
pub(crate) fn chain_is_secret(
    ctx: &FileCtx<'_>,
    all: &[FileModel],
    secret: &BTreeSet<String>,
    cfg: &Config,
    chain: &[String],
    tok_index: usize,
) -> bool {
    let Some(root) = chain.first() else {
        return false;
    };
    // Resolve the root to a type name, against bindings in scope only.
    let mut cur: Option<String> = if root == "self" {
        ctx.m.impl_at(tok_index).map(|im| im.type_name.clone())
    } else {
        ctx.scoped_bindings(tok_index)
            .iter()
            .filter(|b| &b.name == root)
            .flat_map(|b| b.type_idents.iter().chain(b.ctor.as_ref()))
            .find(|t| secret.contains(*t) || struct_def(all, t).is_some())
            .cloned()
    };
    if !cur.as_deref().is_some_and(|t| secret.contains(t)) {
        return false;
    }
    if chain.len() == 1 {
        return true; // `key.clone()` — duplicating the secret itself
    }
    for seg in &chain[1..] {
        if cfg.secret_field_names.contains(seg) {
            return true;
        }
        let field = cur
            .as_deref()
            .and_then(|t| struct_def(all, t))
            .and_then(|s| s.fields.iter().find(|f| &f.name == seg));
        match field {
            Some(f) => match classify_field(&f.type_idents, secret) {
                FieldKind::Buffer => return true,
                FieldKind::Secret => {
                    cur = f.type_idents.iter().find(|t| secret.contains(*t)).cloned();
                }
                FieldKind::Other => return false,
            },
            None => return cfg.accessors.contains(seg),
        }
    }
    // Walked off the end still inside secret types: the final expression
    // is itself secret.
    true
}

/// The (first) struct definition named `name`, across all files. When
/// several files define same-named structs with different shapes,
/// [`crate::rules::struct_ambiguities`] surfaces a warning instead of
/// this lookup silently guessing.
pub(crate) fn struct_def<'a>(all: &'a [FileModel], name: &str) -> Option<&'a StructDef> {
    all.iter()
        .flat_map(|f| &f.structs)
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::rules::secret_types;

    fn taint_of(src: &str) -> (FileModelBox, Config) {
        (FileModelBox(parse_file("t.rs", src)), Config::default())
    }

    // Owns the model so tests can borrow FileTaint from it.
    struct FileModelBox(FileModel);

    impl FileModelBox {
        fn query(&self, cfg: &Config, name: &str, line: u32) -> bool {
            let models = std::slice::from_ref(&self.0);
            let secret = secret_types(models, cfg);
            let t = FileTaint::compute(&self.0, models, &secret, cfg, None);
            t.tainted_at(name, line)
        }

        /// Like `query`, but with call summaries resolved first.
        fn query_summarized(&self, cfg: &Config, name: &str, line: u32) -> bool {
            let models = std::slice::from_ref(&self.0);
            let secret = secret_types(models, cfg);
            let sums = Summaries::compute(models, &secret, cfg);
            let t = FileTaint::compute(&self.0, models, &secret, cfg, Some(&sums));
            t.tainted_at(name, line)
        }
    }

    #[test]
    fn one_hop_laundering_is_tracked() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let tmp = key.d();\n    let _ = tmp;\n}",
        );
        assert!(m.query(&cfg, "tmp", 3));
        assert!(m.query(&cfg, "key", 2));
    }

    #[test]
    fn two_hop_laundering_is_tracked() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let a = key.d();\n    let b = a;\n    let c = b;\n}",
        );
        assert!(m.query(&cfg, "c", 4));
    }

    #[test]
    fn sanitizer_kills_taint() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let n = key.d().len();\n    let m2 = n;\n}",
        );
        assert!(!m.query(&cfg, "n", 3));
        assert!(!m.query(&cfg, "m2", 3));
    }

    #[test]
    fn metadata_of_secret_root_stays_clean() {
        let (m, cfg) = taint_of(
            "struct RsaPrivateKey { d: u64, n_bits: u32 }\nfn f(key: RsaPrivateKey) {\n    let b = key.n_bits;\n}",
        );
        assert!(!m.query(&cfg, "b", 4));
    }

    #[test]
    fn shadowing_closes_the_interval() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let t = key.d();\n    let _u = t;\n    let t = 5;\n    let _v = t;\n}",
        );
        assert!(m.query(&cfg, "t", 3));
        assert!(!m.query(&cfg, "t", 5));
    }

    #[test]
    fn destructuring_taints_all_names() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let (a, b) = (key.d(), 1);\n}",
        );
        assert!(m.query(&cfg, "a", 3));
        assert!(m.query(&cfg, "b", 3)); // over-approximate by design
    }

    #[test]
    fn other_functions_are_not_contaminated() {
        let (m, cfg) = taint_of(
            "fn a(key: RsaPrivateKey) {\n    let tmp = key.d();\n    let _ = tmp;\n}\nfn b(tmp: u32) {\n    let _ = tmp;\n}",
        );
        assert!(m.query(&cfg, "tmp", 3));
        assert!(!m.query(&cfg, "tmp", 6));
    }

    #[test]
    fn accessor_roots_taint_without_type_info() {
        let (m, cfg) = taint_of(
            "fn f(srv: &Server) {\n    let k = srv.private_key();\n    let _ = k;\n}",
        );
        assert!(m.query(&cfg, "k", 3));
    }

    #[test]
    fn plain_reassignment_propagates() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let mut x = 0u64;\n    x = key.d();\n    let _ = x;\n}",
        );
        assert!(!m.query(&cfg, "x", 2));
        assert!(m.query(&cfg, "x", 4));
    }

    #[test]
    fn same_named_root_in_another_fn_does_not_mistype() {
        // `buf` is secret-typed in `a` but a plain u32 in `b`; the scoped
        // root resolution must not let a's binding type b's chain.
        let (m, cfg) = taint_of(
            "struct RsaPrivateKey { d: Vec<u8> }\nfn a(buf: RsaPrivateKey) {\n    let t = buf.d;\n}\nfn b(buf: u32) {\n    let t = buf;\n    let _ = t;\n}",
        );
        assert!(m.query(&cfg, "t", 4));
        assert!(!m.query(&cfg, "t", 7));
    }

    #[test]
    fn loop_back_edge_taints_use_before_def() {
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let mut tmp = 0u64;\n    loop {\n        let probe = tmp;\n        tmp = key.d();\n    }\n}",
        );
        // The back-edge carries `tmp`'s taint to the loop head, so the
        // textually-earlier use is tainted too.
        assert!(m.query(&cfg, "probe", 5));
        assert!(m.query(&cfg, "tmp", 4));
    }

    #[test]
    fn straight_line_use_before_def_stays_clean() {
        // Same shape but no loop: the earlier use really is clean (this is
        // the regression pin for fn-wide over-seeding).
        let (m, cfg) = taint_of(
            "fn f(key: RsaPrivateKey) {\n    let mut x = 0u64;\n    let probe = x;\n    x = key.d();\n}",
        );
        assert!(!m.query(&cfg, "probe", 4));
        assert!(!m.query(&cfg, "x", 3));
    }

    #[test]
    fn resolved_identity_call_taints_result() {
        let (m, cfg) = taint_of(
            "fn ident(v: BigUint) -> BigUint { v }\nfn f(key: RsaPrivateKey) {\n    let tmp = ident(key.d());\n    let _ = tmp;\n}",
        );
        assert!(m.query_summarized(&cfg, "tmp", 4));
    }

    #[test]
    fn resolved_sanitizing_call_clears_result() {
        // `size` only returns metadata; with summaries the raw-argument
        // passthrough must NOT taint the result.
        let (m, cfg) = taint_of(
            "fn size(v: &BigUint) -> usize { v.len() }\nfn f(key: RsaPrivateKey) {\n    let n = size(key.d());\n    let _ = n;\n}",
        );
        assert!(m.query(&cfg, "n", 4)); // legacy passthrough: conservative
        assert!(!m.query_summarized(&cfg, "n", 4));
    }
}
