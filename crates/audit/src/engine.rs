//! The audit engine: runs every rule over a set of source files and
//! reconciles findings with inline suppression directives.
//!
//! The engine is pure — it takes `(path, text)` pairs and returns a report
//! — so the fixture tests can present known-bad snippets under virtual
//! in-scope paths without touching the real tree.

use crate::callgraph::{CallGraph, ChainHop};
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser::{parse_file, PanicKind, ParsedFile};
use crate::rules::{
    in_r1_scope, in_r4_scope, in_r6_domain, in_r7_scope, in_r8_scope, in_r9_scope, is_r6_entry,
    suppression_budget, R1_BANNED_IDENTS, RULE_BAD_SUPPRESSION, RULE_DETERMINISM, RULE_ENV_READ,
    RULE_FLOAT_REDUCTION, RULE_FORBID_UNSAFE, RULE_IDS, RULE_PANIC_REACH, RULE_RNG_STREAM,
    RULE_SUPPRESSION_BUDGET, RULE_UNUSED_SUPPRESSION,
};
use std::collections::{BTreeMap, BTreeSet};

/// One file to audit: a repo-relative `/`-separated path and its contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, e.g. `crates/split/src/guard.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`determinism`, `panic-reachability`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
    /// For R6: the call chain from the untrusted-input entry function to
    /// the function containing the panic site. Empty for other rules.
    pub chain: Vec<ChainHop>,
}

impl Finding {
    fn new(path: &str, line: usize, rule: &'static str, message: String) -> Self {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            let rendered: Vec<String> = self
                .chain
                .iter()
                .map(|h| format!("{} ({}:{})", h.name, h.path, h.line))
                .collect();
            write!(f, "\n    via {}", rendered.join(" -> "))?;
        }
        Ok(())
    }
}

/// A suppression directive that silenced at least one finding.
#[derive(Debug, Clone)]
pub struct UsedSuppression {
    /// File the directive lives in.
    pub path: String,
    /// Line of the directive comment.
    pub line: usize,
    /// Rule it suppresses.
    pub rule: String,
    /// The mandatory human justification.
    pub reason: String,
    /// Findings it silenced.
    pub count: usize,
}

/// The audit result: surviving findings plus the suppression ledger.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Unsuppressed findings, sorted by path/line/rule. Non-empty means a
    /// nonzero exit.
    pub findings: Vec<Finding>,
    /// Suppressions that silenced at least one finding.
    pub suppressions: Vec<UsedSuppression>,
    /// Files the engine looked at.
    pub files_scanned: usize,
}

/// A parsed `// stsl-audit: allow(rule, reason = "…")` directive.
#[derive(Debug)]
struct Directive {
    path: String,
    line: usize,
    target_line: usize,
    rule: String,
    reason: String,
    used: usize,
}

/// Runs the full rule set over `files` and reconciles suppressions.
pub fn audit(files: &[SourceFile]) -> AuditReport {
    let mut raw: Vec<Finding> = Vec::new();
    let mut directives: Vec<Directive> = Vec::new();
    let mut parsed_domain: Vec<(String, ParsedFile)> = Vec::new();

    for file in files {
        let lexed = lex(&file.text);
        let excluded = excluded_spans(&lexed.tokens);
        let is_excluded = |line: usize| excluded.iter().any(|&(a, b)| line >= a && line <= b);
        let token_lines: BTreeSet<usize> = lexed.tokens.iter().map(|t| t.line).collect();

        parse_directives(
            file,
            &lexed.comments,
            &token_lines,
            &mut directives,
            &mut raw,
        );

        if in_r1_scope(&file.path) {
            scan_r1(file, &lexed.tokens, &is_excluded, &mut raw);
        }
        if in_r4_scope(&file.path) {
            scan_r4(file, &lexed.tokens, &mut raw);
        }
        if in_r7_scope(&file.path) {
            scan_r7(file, &lexed.tokens, &is_excluded, &mut raw);
        }
        if in_r8_scope(&file.path) {
            scan_r8(file, &lexed.tokens, &is_excluded, &mut raw);
        }
        if in_r9_scope(&file.path) {
            scan_r9(file, &lexed.tokens, &is_excluded, &mut raw);
        }
        if in_r6_domain(&file.path) {
            parsed_domain.push((file.path.clone(), parse_file(&lexed.tokens, &excluded)));
        }
    }

    scan_r6(&parsed_domain, &mut raw);

    // Reconcile findings with directives.
    let mut findings = Vec::new();
    for f in raw {
        let slot = directives.iter_mut().find(|d| {
            d.path == f.path
                && d.target_line == f.line
                && d.rule == f.rule
                && f.rule != RULE_BAD_SUPPRESSION
                && f.rule != RULE_UNUSED_SUPPRESSION
        });
        match slot {
            Some(d) => d.used += 1,
            None => findings.push(f),
        }
    }
    for d in &directives {
        if d.used == 0 && RULE_IDS.contains(&d.rule.as_str()) {
            findings.push(Finding::new(
                &d.path,
                d.line,
                RULE_UNUSED_SUPPRESSION,
                format!(
                    "allow({}) suppressed nothing: no {} finding on target line {}; \
                     remove the directive or fix the target",
                    d.rule, d.rule, d.target_line
                ),
            ));
        }
    }
    // Per-rule suppression budgets: every allow() is a reviewed
    // exception, and the review happens when the budget in rules.rs is
    // raised — the directive past the budget is itself a finding.
    let mut by_rule: BTreeMap<&str, Vec<&Directive>> = BTreeMap::new();
    for d in directives.iter().filter(|d| d.used > 0) {
        by_rule.entry(d.rule.as_str()).or_default().push(d);
    }
    for (rule, ds) in &by_rule {
        let budget = suppression_budget(rule);
        if ds.len() > budget {
            let over = ds[budget];
            findings.push(Finding::new(
                &over.path,
                over.line,
                RULE_SUPPRESSION_BUDGET,
                format!(
                    "{} allow({rule}) directives exceed the per-rule budget of {budget}; \
                     fix the finding or raise the budget in rules.rs SUPPRESSION_BUDGETS \
                     under review",
                    ds.len()
                ),
            ));
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let suppressions = directives
        .into_iter()
        .filter(|d| d.used > 0)
        .map(|d| UsedSuppression {
            path: d.path,
            line: d.line,
            rule: d.rule,
            reason: d.reason,
            count: d.used,
        })
        .collect();

    AuditReport {
        findings,
        suppressions,
        files_scanned: files.len(),
    }
}

/// Parses suppression directives out of line comments. A directive on a
/// line that carries code applies to that line; a directive on a line of
/// its own applies to the next line that carries code.
fn parse_directives(
    file: &SourceFile,
    comments: &[Comment],
    token_lines: &BTreeSet<usize>,
    directives: &mut Vec<Directive>,
    findings: &mut Vec<Finding>,
) {
    for c in comments {
        // Doc comments (`///` or `//!`) only *document* the directive
        // syntax; a live directive must be a plain `//` comment.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(idx) = c.text.find("stsl-audit:") else {
            continue;
        };
        let rest = c.text[idx + "stsl-audit:".len()..].trim();
        let parsed = parse_allow(rest);
        match parsed {
            Some((rule, reason)) if RULE_IDS.contains(&rule.as_str()) => {
                let target_line = if token_lines.contains(&c.line) {
                    c.line
                } else {
                    token_lines
                        .range(c.line + 1..)
                        .next()
                        .copied()
                        .unwrap_or(c.line)
                };
                directives.push(Directive {
                    path: file.path.clone(),
                    line: c.line,
                    target_line,
                    rule,
                    reason,
                    used: 0,
                });
            }
            Some((rule, _)) => findings.push(Finding::new(
                &file.path,
                c.line,
                RULE_BAD_SUPPRESSION,
                format!("allow() names unknown rule `{rule}`"),
            )),
            None => findings.push(Finding::new(
                &file.path,
                c.line,
                RULE_BAD_SUPPRESSION,
                "malformed directive; expected \
                 `stsl-audit: allow(<rule>, reason = \"…\")`"
                    .to_string(),
            )),
        }
    }
}

/// Parses `allow(<rule>, reason = "<nonempty>")`. Returns `None` on any
/// syntax problem, including a missing or empty reason.
fn parse_allow(s: &str) -> Option<(String, String)> {
    let s = s.strip_prefix("allow(")?;
    let comma = s.find(',')?;
    let rule = s[..comma].trim().to_string();
    let rest = s[comma + 1..].trim();
    let rest = rest.strip_prefix("reason")?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let close = rest.find('"')?;
    let reason = rest[..close].trim().to_string();
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some((rule, reason))
}

/// R1: bans host-clock, unseeded-RNG, raw-thread and hash-iteration
/// constructs in the deterministic crates.
fn scan_r1(
    file: &SourceFile,
    tokens: &[Tok],
    is_excluded: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if is_excluded(t.line) {
            continue;
        }
        if let Some(name) = t.ident() {
            for (banned, msg) in &R1_BANNED_IDENTS {
                if name == *banned {
                    findings.push(Finding::new(
                        &file.path,
                        t.line,
                        RULE_DETERMINISM,
                        (*msg).to_string(),
                    ));
                }
            }
            if name == "SystemTime" {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_DETERMINISM,
                    "SystemTime reads the host clock; simulated time must come \
                              from the simnet virtual clock"
                        .to_string(),
                ));
            }
            if name == "Instant" && path_call(tokens, i, "now") {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_DETERMINISM,
                    "Instant::now() reads the host clock; use the simnet virtual \
                              clock (informational wall-time goes through WallTimer)"
                        .to_string(),
                ));
            }
            if name == "thread" && path_call(tokens, i, "spawn") {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_DETERMINISM,
                    "raw thread::spawn bypasses the deterministic scoped pool; \
                              thread only via stsl-parallel"
                        .to_string(),
                ));
            }
        }
    }
}

/// Whether tokens `i..` spell `<ident> :: <method>`.
fn path_call(tokens: &[Tok], i: usize, method: &str) -> bool {
    matches!(
        (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)),
        (Some(a), Some(b), Some(c))
            if a.is_punct(':') && b.is_punct(':') && c.is_ident(method)
    )
}

/// R6: interprocedural panic-reachability. Builds the call graph over
/// the reachability domain, walks it from every non-test function in the
/// entry files, and flags each panic site in a reached function — with
/// the full entry-point → panic chain attached to the finding.
fn scan_r6(parsed: &[(String, ParsedFile)], findings: &mut Vec<Finding>) {
    let graph = CallGraph::build(parsed);
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| is_r6_entry(&graph.nodes[i].path))
        .collect();
    let reached = graph.reachable_with_chains(&entries);
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for (&n, chain) in &reached {
        let node = &graph.nodes[n];
        for p in &node.panics {
            if !seen.insert((node.path.clone(), p.line)) {
                continue;
            }
            let what = match &p.kind {
                PanicKind::UnwrapLike(m) => format!(
                    "`{m}()` can abort on untrusted input; propagate the typed \
                     error (DecodeError/CifarError/io::Error) instead"
                ),
                PanicKind::Macro(m) => format!(
                    "`{m}!` aborts the server; untrusted bytes must surface as a \
                     typed error"
                ),
                PanicKind::Index => "slice/array indexing can panic on out-of-range input; use \
                                     .get()/.split_first()/try_into()"
                    .to_string(),
            };
            let message = if chain.len() > 1 {
                format!(
                    "{what} (reachable from untrusted-input entry `{}`)",
                    graph.display_name(chain[0])
                )
            } else {
                what
            };
            let mut f = Finding::new(&node.path, p.line, RULE_PANIC_REACH, message);
            f.chain = chain.iter().map(|&i| graph.hop(i)).collect();
            findings.push(f);
        }
    }
}

/// R7: float-reduction discipline. Outside the sanctioned seam, flags
/// `.sum::<f32/f64>()`, bare `.sum()` with float evidence in the same
/// statement, `.fold(<float literal>, …)` and `+=`/`-=` accumulation
/// into a float-typed local — all of which fix an evaluation order the
/// bitwise-equivalence tests cannot see.
fn scan_r7(
    file: &SourceFile,
    tokens: &[Tok],
    is_excluded: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    const MSG: &str = "non-associative float reduction outside the sanctioned kernel seam; \
                       route it through crates/tensor/src/ops (or the aggregate.rs \
                       combiners) so the bitwise-equivalence tests pin its order";
    // Locals with float evidence: `let [mut] x: f32/f64` or `let [mut] x = <float>`.
    let mut float_locals: BTreeSet<&str> = BTreeSet::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if matches!(tokens.get(j), Some(t) if t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = tokens.get(j).and_then(|t| t.ident()) else {
            continue;
        };
        let mut k = j + 1;
        let mut is_float = false;
        let single_colon = matches!(tokens.get(k), Some(t) if t.is_punct(':'))
            && !matches!(tokens.get(k + 1), Some(t) if t.is_punct(':'));
        if single_colon {
            if let Some(ty) = tokens.get(k + 1).and_then(|t| t.ident()) {
                if ty == "f32" || ty == "f64" {
                    is_float = true;
                }
            }
            k += 2;
        }
        if matches!(tokens.get(k), Some(t) if t.is_punct('='))
            && tokens.get(k + 1).is_some_and(|t| t.float_text().is_some())
        {
            is_float = true;
        }
        if is_float {
            float_locals.insert(name);
        }
    }

    for (i, t) in tokens.iter().enumerate() {
        if is_excluded(t.line) {
            continue;
        }
        let prev_is = |k: usize, c: char| i >= k && tokens[i - k].is_punct(c);
        let next_is = |k: usize, c: char| matches!(tokens.get(i + k), Some(n) if n.is_punct(c));
        if let Some(name) = t.ident() {
            if name == "sum" && prev_is(1, '.') {
                let turbofish_float = next_is(1, ':')
                    && next_is(2, ':')
                    && next_is(3, '<')
                    && matches!(
                        tokens.get(i + 4).and_then(|t| t.ident()),
                        Some("f32") | Some("f64")
                    );
                let bare_float = next_is(1, '(') && statement_has_float(tokens, i);
                if turbofish_float || bare_float {
                    findings.push(Finding::new(
                        &file.path,
                        t.line,
                        RULE_FLOAT_REDUCTION,
                        MSG.to_string(),
                    ));
                }
            }
            if name == "fold"
                && prev_is(1, '.')
                && next_is(1, '(')
                && tokens.get(i + 2).is_some_and(|t| t.float_text().is_some())
            {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_FLOAT_REDUCTION,
                    MSG.to_string(),
                ));
            }
            if float_locals.contains(name)
                && (next_is(1, '+') || next_is(1, '-'))
                && next_is(2, '=')
            {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_FLOAT_REDUCTION,
                    MSG.to_string(),
                ));
            }
        }
    }
}

/// Whether the statement containing token `i` mentions `f32`/`f64` or a
/// float literal (evidence for flagging a bare `.sum()`).
fn statement_has_float(tokens: &[Tok], i: usize) -> bool {
    // `,` bounds too, so one float field of a struct literal does not
    // lend its evidence to an integer `.sum()` in a sibling field.
    let boundary =
        |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',');
    let start = (0..i)
        .rev()
        .find(|&j| boundary(&tokens[j]))
        .map_or(0, |j| j + 1);
    let end = (i..tokens.len())
        .find(|&j| boundary(&tokens[j]))
        .unwrap_or(tokens.len());
    tokens[start..end]
        .iter()
        .any(|t| t.is_ident("f32") || t.is_ident("f64") || t.float_text().is_some())
}

/// R8: RNG-stream discipline. In R1 scope (outside the RNG root file),
/// flags direct RNG construction, constant-literal seeds, and textual
/// reuse of the same seed expression (stream aliasing) within a file.
fn scan_r8(
    file: &SourceFile,
    tokens: &[Tok],
    is_excluded: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let mut first_seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if is_excluded(t.line) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let next_is = |c: char| matches!(tokens.get(i + 1), Some(n) if n.is_punct(c));
        if matches!(
            name,
            "from_entropy" | "seed_from_u64" | "from_seed" | "from_os_rng"
        ) && next_is('(')
        {
            findings.push(Finding::new(
                &file.path,
                t.line,
                RULE_RNG_STREAM,
                format!(
                    "`{name}` constructs an RNG outside the seeded root; every stream \
                     must come from rng_from_seed/derive_seed (crates/tensor/src/init.rs) \
                     so seeded replay covers it"
                ),
            ));
            continue;
        }
        if !matches!(name, "rng_from_seed" | "derive_seed") || !next_is('(') {
            continue;
        }
        let Some(canon) = canonical_args(tokens, i + 1) else {
            continue;
        };
        if name == "rng_from_seed"
            && tokens.get(i + 2).and_then(|t| t.num_text()).is_some()
            && matches!(tokens.get(i + 3), Some(t) if t.is_punct(')'))
        {
            findings.push(Finding::new(
                &file.path,
                t.line,
                RULE_RNG_STREAM,
                "a literal seed detaches this RNG from the run seed; derive it from \
                 the configured seed via derive_seed(parent, stream)"
                    .to_string(),
            ));
            continue;
        }
        match first_seen.get(&(name.to_string(), canon.clone())) {
            None => {
                first_seen.insert((name.to_string(), canon), t.line);
            }
            Some(&first) if first != t.line => {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    RULE_RNG_STREAM,
                    format!(
                        "seed expression `{name}({canon})` is reused (first used on line \
                         {first}); two RNGs built from the same seed alias the same \
                         stream — give each its own derive_seed stream id"
                    ),
                ));
            }
            Some(_) => {}
        }
    }
}

/// Canonical text of a call's argument list starting at the `(` token:
/// identifiers, punctuation and numeric texts concatenated, with `self.`
/// receivers stripped so `self.config.seed` and `config.seed` compare
/// equal. Returns `None` on unbalanced input.
fn canonical_args(tokens: &[Tok], open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut parts: Vec<String> = Vec::new();
    let mut i = open;
    loop {
        let t = tokens.get(i)?;
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => {
                depth += 1;
                if depth > 1 {
                    parts.push(if tokens[i].is_punct('(') { "(" } else { "[" }.into());
                }
            }
            TokKind::Punct(')') | TokKind::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
                parts.push(if t.is_punct(')') { ")" } else { "]" }.into());
            }
            TokKind::Ident(s) if s == "self" => {
                // Strip `self .` so method and free contexts compare equal.
                if matches!(tokens.get(i + 1), Some(n) if n.is_punct('.')) {
                    i += 1;
                }
            }
            TokKind::Ident(s) => parts.push(s.clone()),
            TokKind::Punct(c) => parts.push(c.to_string()),
            TokKind::Literal(_) => parts.push(t.num_text().unwrap_or("#").to_string()),
            TokKind::Lifetime => parts.push("'_".to_string()),
        }
        i += 1;
    }
    Some(parts.join(""))
}

/// R9: env-read discipline. `env::var`/`env::var_os` anywhere outside
/// the sanctioned config/backend-selection files forks behaviour on
/// state the experiment configs do not record.
fn scan_r9(
    file: &SourceFile,
    tokens: &[Tok],
    is_excluded: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if is_excluded(t.line) {
            continue;
        }
        if t.is_ident("env") && (path_call(tokens, i, "var") || path_call(tokens, i, "var_os")) {
            findings.push(Finding::new(
                &file.path,
                t.line,
                RULE_ENV_READ,
                "environment read outside the sanctioned config sites (rules.rs \
                 R9_ENV_FILES); take configuration as data so runs are reproducible \
                 from their recorded configs"
                    .to_string(),
            ));
        }
    }
}

/// R4: the crate root must declare `#![forbid(unsafe_code)]`.
fn scan_r4(file: &SourceFile, tokens: &[Tok], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 4 < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('!')
            && tokens[i + 2].is_punct('[')
            && tokens[i + 3].is_ident("forbid")
            && tokens[i + 4].is_punct('(')
        {
            let mut j = i + 5;
            while j < tokens.len() && !tokens[j].is_punct(')') {
                if tokens[j].is_ident("unsafe_code") {
                    return;
                }
                j += 1;
            }
        }
        i += 1;
    }
    let line = tokens.first().map_or(1, |t| t.line);
    findings.push(Finding::new(
        &file.path,
        line,
        RULE_FORBID_UNSAFE,
        "crate root must declare #![forbid(unsafe_code)]".to_string(),
    ));
}

/// Line spans covered by `#[cfg(test)]` / `#[test]` items — rule-exempt.
fn excluded_spans(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && matches!(tokens.get(i + 1), Some(t) if t.is_punct('[')) {
            let attr_line = tokens[i].line;
            let (idents, mut j) = parse_bracketed(tokens, i + 1);
            let is_test = idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not");
            if !is_test {
                i = j;
                continue;
            }
            // Skip any further attributes on the same item.
            while j < tokens.len()
                && tokens[j].is_punct('#')
                && matches!(tokens.get(j + 1), Some(t) if t.is_punct('['))
            {
                j = parse_bracketed(tokens, j + 1).1;
            }
            // Consume the item: to `;` at depth 0 or the matching `}`.
            let mut depth = 0usize;
            let mut end_line = attr_line;
            while j < tokens.len() {
                let t = &tokens[j];
                end_line = t.line;
                match &t.kind {
                    TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                        depth += 1;
                    }
                    TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 && t.is_punct('}') {
                            j += 1;
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((attr_line, end_line));
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Parses one `[…]` group starting at `open` (which must be `[`). Returns
/// the identifiers inside and the index just past the closing `]`.
fn parse_bracketed(tokens: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('[') | TokKind::Punct('(') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(']') | TokKind::Punct(')') | TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (idents, i + 1);
                }
            }
            TokKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, i)
}
