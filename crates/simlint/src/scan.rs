//! Per-file rule matching over the lexed token stream.
//!
//! The matchers are deliberately *lexical*: they know paths, call shapes,
//! and declared-type names, not inferred types. That buys zero dependencies
//! and sub-second whole-workspace runs, at the cost of documented
//! approximations (e.g. R3 recognizes maps by their declaration site in the
//! same file). Each approximation errs toward silence on code it cannot
//! classify; the dynamic gates (checksums, `alloc_count`, sweep identity)
//! remain the backstop.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::RuleId;
use std::collections::BTreeSet;

/// Crates exempt from the sim-determinism rules (R1/R2/R3): the bench
/// harnesses are *supposed* to read wall-clocks, and the lint/model-checker
/// tooling is not part of the simulation.
const TOOL_CRATE_PREFIXES: [&str; 3] = ["crates/bench/", "crates/simlint/", "crates/loom/"];

/// The sanctioned wrapper around `std::collections` hash types.
const HASH_WRAPPER_FILE: &str = "crates/simcore/src/hash.rs";

/// The zero-alloc hot-path list: (file suffix, steady-state functions).
/// Mirrors DESIGN.md §6.2; the runtime `alloc_count` gate enforces the same
/// contract dynamically over ~13k events.
const HOT_FNS: [(&str, &[&str]); 7] = [
    (
        "crates/kernel/src/host.rs",
        &[
            "irq",
            "irq_stamped",
            "wire_arrival",
            "recv",
            "drain_fenced",
            "release_tx_entry",
        ],
    ),
    (
        "crates/ioctopus/src/netloop.rs",
        &["run", "run_unbatched", "dispatch", "push_outs"],
    ),
    (
        "crates/memsys/src/cache.rs",
        &[
            "walk",
            "holds_home",
            "home_of",
            "slot_of",
            "touch",
            "victim",
            "ddio_victim",
            "fill",
            "probe_at",
            "upgrade_cpu",
            "insert_at",
            "peek_at",
            "invalidate_at",
            "downgrade_at",
        ],
    ),
    (
        "crates/memsys/src/system.rs",
        &[
            "cpu_access",
            "dma_read",
            "dma_write",
            "invalidate_copies",
            "flush_writebacks",
        ],
    ),
    (
        "crates/simcore/src/outbuf.rs",
        &["push", "drain", "clear", "as_slice"],
    ),
    ("crates/telemetry/src/trace.rs", &["push"]),
    ("crates/telemetry/src/flight.rs", &["record_dma"]),
];

const MAP_TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

/// One rule violation (or suppressed violation) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the specific site.
    pub message: String,
    /// The trimmed source line, for diff-anchored output.
    pub snippet: String,
    /// `Some(reason)` when an inline pragma suppressed this finding.
    pub suppressed_reason: Option<String>,
}

/// An inline `// simlint: allow(...)` pragma, tracked for the audit report.
#[derive(Debug, Clone)]
pub struct PragmaRecord {
    /// File containing the pragma.
    pub file: String,
    /// Line of the pragma comment itself.
    pub line: u32,
    /// Rule slugs it names (unvalidated).
    pub rules: Vec<String>,
    /// The justification after the rule list, if any.
    pub reason: Option<String>,
    /// The source line the pragma governs (same line for trailing comments,
    /// next code line for own-line comments).
    pub target_line: u32,
    /// Whether it suppressed at least one finding in this run.
    pub used: bool,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Active violations.
    pub findings: Vec<Finding>,
    /// Violations silenced by a reasoned pragma.
    pub suppressed: Vec<Finding>,
    /// Every pragma seen, used or not.
    pub pragmas: Vec<PragmaRecord>,
}

struct Sig<'a> {
    toks: &'a [Tok],
}

impl<'a> Sig<'a> {
    fn id(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => Some(t.text.as_str()),
            _ => None,
        }
    }
    fn is_id(&self, i: usize, s: &str) -> bool {
        self.id(i) == Some(s)
    }
    fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::Punct && t.text.as_bytes() == [c as u8])
    }
    /// `::` immediately before token `i` (so `i - 3` is the previous path
    /// segment).
    fn sep_before(&self, i: usize) -> bool {
        i >= 2 && self.is_punct(i - 1, ':') && self.is_punct(i - 2, ':')
    }
    /// `::` immediately after token `i`.
    fn sep_after(&self, i: usize) -> bool {
        self.is_punct(i + 1, ':') && self.is_punct(i + 2, ':')
    }
    fn line(&self, i: usize) -> u32 {
        self.toks[i].line
    }
    fn number(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Number => Some(t.text.as_str()),
            _ => None,
        }
    }
}

struct FnSpan {
    name: String,
    /// Sig-token index range of the body, exclusive of the outer braces.
    body: (usize, usize),
}

/// Locates every `fn name(...) { ... }` body in the significant-token
/// stream. Trait-method declarations without bodies are skipped; `fn` in
/// type position (`fn(u32) -> u32`) has no name and is skipped too.
fn fn_spans(sig: &Sig<'_>) -> Vec<FnSpan> {
    let n = sig.toks.len();
    let mut spans = Vec::new();
    for i in 0..n {
        if !sig.is_id(i, "fn") {
            continue;
        }
        let Some(name) = sig.id(i + 1) else { continue };
        // Find the body's opening brace (or `;` ending a bodiless decl),
        // ignoring everything nested in (), [], or <> along the signature.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body_start = None;
        while j < n {
            let t = &sig.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes()[0] {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => bracket += 1,
                    b']' => bracket -= 1,
                    b'{' if paren == 0 && bracket == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    b';' if paren == 0 && bracket == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body_start else { continue };
        let mut depth = 0i32;
        let mut k = open;
        while k < n {
            if sig.toks[k].kind == TokKind::Punct {
                match sig.toks[k].text.as_bytes()[0] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        spans.push(FnSpan {
            name: name.to_string(),
            body: (open + 1, k.min(n)),
        });
    }
    spans
}

/// Names in this file declared with a hash-map/set type, via either a type
/// ascription (`name: FxHashMap<...>` — fields, lets, params) or a
/// constructor binding (`let name = FxHashMap::default()`).
fn map_typed_names(sig: &Sig<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..sig.toks.len() {
        let Some(t) = sig.id(i) else { continue };
        if !MAP_TYPES.contains(&t) {
            continue;
        }
        if sig.is_punct(i + 1, '<') {
            // Ascription: walk back over any `path::` segments to the colon.
            let mut j = i;
            while sig.sep_before(j) && j >= 3 && sig.id(j - 3).is_some() {
                j -= 3;
            }
            if j >= 2 && sig.is_punct(j - 1, ':') && !sig.is_punct(j - 2, ':') {
                if let Some(name) = sig.id(j - 2) {
                    names.insert(name.to_string());
                }
            }
        } else if sig.sep_after(i) {
            // Constructor: `let [mut] name = [path::]Type::default()`.
            let mut j = i;
            while sig.sep_before(j) && j >= 3 && sig.id(j - 3).is_some() {
                j -= 3;
            }
            if j >= 1 && sig.is_punct(j - 1, '=') {
                let mut k = j - 2;
                if sig.is_id(k, "mut") && k >= 1 {
                    k -= 1;
                }
                if let Some(name) = sig.id(k) {
                    if k >= 1 && sig.is_id(k - 1, "let") {
                        names.insert(name.to_string());
                    }
                }
            }
        }
    }
    names
}

/// Sig-token ranges of `#[cfg(test)] mod ... { ... }` bodies. The hot-path
/// allocation rule skips them: test helpers collecting into `Vec`s are not
/// on the event hot path.
fn cfg_test_ranges(sig: &Sig<'_>) -> Vec<(usize, usize)> {
    let n = sig.toks.len();
    let mut ranges = Vec::new();
    for i in 0..n {
        if !(sig.is_punct(i, '#')
            && sig.is_punct(i + 1, '[')
            && sig.is_id(i + 2, "cfg")
            && sig.is_punct(i + 3, '(')
            && sig.is_id(i + 4, "test")
            && sig.is_punct(i + 5, ')')
            && sig.is_punct(i + 6, ']'))
        {
            continue;
        }
        // Skip any further attributes, then require a `mod` item.
        let mut j = i + 7;
        while sig.is_punct(j, '#') && sig.is_punct(j + 1, '[') {
            let mut depth = 0i32;
            j += 1;
            while j < n {
                if sig.is_punct(j, '[') {
                    depth += 1;
                } else if sig.is_punct(j, ']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !sig.is_id(j, "mod") {
            continue;
        }
        while j < n && !sig.is_punct(j, '{') {
            j += 1;
        }
        let mut depth = 0i32;
        let start = j;
        while j < n {
            if sig.is_punct(j, '{') {
                depth += 1;
            } else if sig.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        ranges.push((start, j.min(n)));
    }
    ranges
}

/// Token ranges of `use ...;` statements, for import-site matching.
fn use_ranges(sig: &Sig<'_>) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < sig.toks.len() {
        if sig.is_id(i, "use") {
            let mut j = i + 1;
            while j < sig.toks.len() && !sig.is_punct(j, ';') {
                j += 1;
            }
            ranges.push((i, j));
            i = j;
        }
        i += 1;
    }
    ranges
}

fn parse_pragmas(rel: &str, toks: &[Tok], sig_lines: &[u32], out: &mut FileScan) {
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        // Pragmas are plain `//` comments that *begin* with `simlint:`;
        // doc comments mentioning the syntax are not pragmas.
        if t.text.starts_with("///") || t.text.starts_with("//!") || !t.text.starts_with("//") {
            continue;
        }
        let body = t.text[2..].trim_start();
        if !body.starts_with("simlint:") {
            continue;
        }
        let rest = &body["simlint:".len()..];
        let rest = rest.trim_start();
        let parsed = rest.strip_prefix("allow").and_then(|r| {
            let r = r.trim_start();
            let r = r.strip_prefix('(')?;
            let close = r.find(')')?;
            Some((
                r[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>(),
                r[close + 1..].to_string(),
            ))
        });
        let Some((rules, tail)) = parsed else {
            out.findings.push(Finding {
                rule: RuleId::PragmaHygiene,
                file: rel.to_string(),
                line: t.line,
                message: "malformed simlint pragma (expected `simlint: allow(<rule>) — <reason>`)"
                    .to_string(),
                snippet: String::new(),
                suppressed_reason: None,
            });
            continue;
        };
        let reason = {
            let r = tail
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':', ' '])
                .trim();
            if r.is_empty() {
                None
            } else {
                Some(r.to_string())
            }
        };
        // A trailing comment governs its own line; an own-line comment
        // governs the next line holding significant tokens.
        let trailing = sig_lines.binary_search(&t.line).is_ok();
        let target_line = if trailing {
            t.line
        } else {
            match sig_lines.iter().find(|&&l| l > t.line) {
                Some(&l) => l,
                None => t.line,
            }
        };
        out.pragmas.push(PragmaRecord {
            file: rel.to_string(),
            line: t.line,
            rules,
            reason,
            target_line,
            used: false,
        });
    }
}

fn is_tool_crate(rel: &str) -> bool {
    TOOL_CRATE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Scans one file's source, returning findings after pragma application.
///
/// `rel` is the workspace-relative path (forward slashes); it drives crate
/// scoping, so fixture tests can exercise any rule by picking a virtual
/// path.
pub fn scan_source(rel: &str, src: &str) -> FileScan {
    let toks = lex(src);
    let sig_toks: Vec<Tok> = toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect();
    let sig = Sig { toks: &sig_toks };
    let src_lines: Vec<&str> = src.lines().collect();
    let sig_lines: Vec<u32> = {
        let mut v: Vec<u32> = sig_toks.iter().map(|t| t.line).collect();
        v.dedup();
        v
    };

    let mut out = FileScan::default();
    parse_pragmas(rel, &toks, &sig_lines, &mut out);

    let mut raw: Vec<(RuleId, u32, String)> = Vec::new();
    if !is_tool_crate(rel) {
        rule_default_hasher(rel, &sig, &mut raw);
        rule_wallclock(&sig, &mut raw);
        rule_unordered_iteration(&sig, &mut raw);
    }
    rule_lossy_time_cast(&sig, &mut raw);
    rule_hot_path_alloc(rel, &sig, &mut raw);

    // Pragma hygiene: unknown rule slugs and missing reasons are violations
    // in every mode (a reasonless pragma does not suppress).
    for p in &out.pragmas {
        for r in &p.rules {
            if RuleId::from_slug(r).is_none() {
                raw.push((
                    RuleId::PragmaHygiene,
                    p.line,
                    format!("pragma names unknown rule `{r}`"),
                ));
            }
        }
        if p.reason.is_none() {
            raw.push((
                RuleId::PragmaHygiene,
                p.line,
                format!(
                    "pragma suppressing `{}` lacks a reason (write `simlint: allow({}) — <why>`)",
                    p.rules.join(", "),
                    p.rules.join(", ")
                ),
            ));
        }
    }

    for (rule, line, message) in raw {
        let snippet = src_lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let mut reason = None;
        if rule != RuleId::PragmaHygiene {
            for p in out.pragmas.iter_mut() {
                if p.target_line == line
                    && p.reason.is_some()
                    && p.rules.iter().any(|r| r == rule.slug())
                {
                    reason = p.reason.clone();
                    p.used = true;
                    break;
                }
            }
        }
        let f = Finding {
            rule,
            file: rel.to_string(),
            line,
            message,
            snippet,
            suppressed_reason: reason,
        };
        if f.suppressed_reason.is_some() {
            out.suppressed.push(f);
        } else {
            out.findings.push(f);
        }
    }
    out.findings.sort_by_key(|a| (a.line, a.rule));
    out.suppressed.sort_by_key(|a| (a.line, a.rule));
    out
}

/// R1: default-hasher hash collections in sim crates.
fn rule_default_hasher(rel: &str, sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    if rel == HASH_WRAPPER_FILE {
        return;
    }
    let uses = use_ranges(sig);
    for i in 0..sig.toks.len() {
        let Some(t) = sig.id(i) else { continue };
        if t == "RandomState" {
            raw.push((
                RuleId::DefaultHasher,
                sig.line(i),
                "explicit RandomState (seeded per-process; breaks replay determinism)".into(),
            ));
            continue;
        }
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // Constructor / associated call with the default hasher.
        if sig.sep_after(i) {
            if let Some(m) = sig.id(i + 3) {
                if matches!(m, "new" | "with_capacity" | "default") {
                    raw.push((
                        RuleId::DefaultHasher,
                        sig.line(i),
                        format!(
                            "{t}::{m}() uses the seeded default hasher; use simcore::hash::Fx{t} (or with_hasher)"
                        ),
                    ));
                    continue;
                }
            }
        }
        // Import from std::collections.
        let in_std_use = uses.iter().any(|&(a, b)| {
            i > a
                && i < b
                && (a..b).any(|j| sig.is_id(j, "collections"))
                && (a..b).any(|j| sig.is_id(j, "std"))
        });
        if in_std_use {
            raw.push((
                RuleId::DefaultHasher,
                sig.line(i),
                format!("import of std::collections::{t}; use simcore::hash::Fx{t} in sim crates"),
            ));
        }
    }
}

/// R2: wall-clock / environment nondeterminism outside `crates/bench`.
fn rule_wallclock(sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    for i in 0..sig.toks.len() {
        let Some(t) = sig.id(i) else { continue };
        let hit: Option<String> = match t {
            "Instant" if sig.sep_after(i) && sig.is_id(i + 3, "now") => {
                Some("Instant::now() reads the wall clock".into())
            }
            "SystemTime" => Some("SystemTime is wall-clock time".into()),
            "sleep" if sig.sep_before(i) && sig.id(i.wrapping_sub(3)) == Some("thread") => {
                Some("thread::sleep makes timing OS-dependent".into())
            }
            "available_parallelism" => {
                Some("available_parallelism() depends on the host machine".into())
            }
            "var" | "var_os" | "vars"
                if sig.sep_before(i) && sig.id(i.wrapping_sub(3)) == Some("env") =>
            {
                Some(format!("env::{t}() makes behavior environment-dependent"))
            }
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => Some(format!(
                "{t} draws OS entropy; use simcore::rng seeded streams"
            )),
            _ => None,
        };
        if let Some(msg) = hit {
            raw.push((RuleId::Wallclock, sig.line(i), msg));
        }
    }
}

/// R3: hash-order iteration inside functions that schedule events.
fn rule_unordered_iteration(sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    let maps = map_typed_names(sig);
    if maps.is_empty() {
        return;
    }
    for span in fn_spans(sig) {
        let (a, b) = span.body;
        let schedules = (a..b).any(|i| match sig.id(i) {
            Some(t) if t.starts_with("schedule") && sig.is_punct(i + 1, '(') => true,
            Some("push")
                if sig.is_punct(i + 1, '(')
                    && sig.is_punct(i.wrapping_sub(1), '.')
                    && matches!(sig.id(i.wrapping_sub(2)), Some("q") | Some("queue")) =>
            {
                true
            }
            Some("push_outs") if sig.is_punct(i + 1, '(') => true,
            _ => false,
        });
        if !schedules {
            continue;
        }
        for i in a..b {
            // `map.iter()` / `map.keys()` / ... with a known map receiver.
            if let Some(m) = sig.id(i) {
                if ITER_METHODS.contains(&m)
                    && sig.is_punct(i + 1, '(')
                    && sig.is_punct(i.wrapping_sub(1), '.')
                {
                    if let Some(recv) = sig.id(i.wrapping_sub(2)) {
                        if maps.contains(recv) {
                            raw.push((
                                RuleId::UnorderedIteration,
                                sig.line(i),
                                format!(
                                    "`{recv}.{m}()` iterates hash order inside scheduling fn `{}`; use simcore::hash::sorted_entries/sorted_keys",
                                    span.name
                                ),
                            ));
                        }
                    }
                }
                // `for x in &map {` / `for x in &self.map {`
                if m == "in" {
                    let mut j = i + 1;
                    if sig.is_punct(j, '&') {
                        j += 1;
                    }
                    if sig.is_id(j, "mut") {
                        j += 1;
                    }
                    if sig.is_id(j, "self") && sig.is_punct(j + 1, '.') {
                        j += 2;
                    }
                    if let Some(name) = sig.id(j) {
                        if maps.contains(name) && sig.is_punct(j + 1, '{') {
                            raw.push((
                                RuleId::UnorderedIteration,
                                sig.line(i),
                                format!(
                                    "`for _ in &{name}` iterates hash order inside scheduling fn `{}`; use simcore::hash::sorted_entries/sorted_keys",
                                    span.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// R4: lossy `as` casts on picosecond values.
fn rule_lossy_time_cast(sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    const LOSSY_TARGETS: [&str; 11] = [
        "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
    ];
    // Does this file define the Time/Dur newtypes? (Then `self.0` is ps.)
    let defines_time = (0..sig.toks.len()).any(|i| {
        sig.is_id(i, "struct")
            && matches!(sig.id(i + 1), Some("Time") | Some("Dur"))
            && sig.is_punct(i + 2, '(')
    });
    for i in 0..sig.toks.len() {
        if !sig.is_id(i, "as") {
            continue;
        }
        let Some(tgt) = sig.id(i + 1) else { continue };
        if !LOSSY_TARGETS.contains(&tgt) {
            continue;
        }
        let mut ps_source = false;
        if i >= 1 && sig.is_punct(i - 1, ')') {
            // Walk back over the call's parens to its callee.
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if sig.is_punct(j, ')') {
                    depth += 1;
                } else if sig.is_punct(j, '(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j >= 1 && sig.id(j - 1) == Some("as_ps") {
                ps_source = true;
            }
        } else if let Some(name) = sig.id(i.wrapping_sub(1)) {
            if name == "ps" || (name.ends_with("_ps") && name.to_lowercase() == name) {
                ps_source = true;
            }
        } else if defines_time
            && sig.number(i.wrapping_sub(1)) == Some("0")
            && sig.is_punct(i.wrapping_sub(2), '.')
            && sig.id(i.wrapping_sub(3)) == Some("self")
        {
            ps_source = true;
        }
        if ps_source {
            raw.push((
                RuleId::LossyTimeCast,
                sig.line(i),
                format!(
                    "lossy `as {tgt}` on a picosecond value (u64 ps exceed {tgt}'s exact range); use Time/Dur conversion methods"
                ),
            ));
        }
    }
}

/// R5: allocating constructs in the zero-alloc hot-path functions.
fn rule_hot_path_alloc(rel: &str, sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    let Some(&(_, hot)) = HOT_FNS.iter().find(|(f, _)| rel.ends_with(f)) else {
        return;
    };
    const ALLOC_METHODS: [&str; 5] = ["clone", "to_string", "to_owned", "to_vec", "collect"];
    let test_ranges = cfg_test_ranges(sig);
    for span in fn_spans(sig) {
        if !hot.contains(&span.name.as_str()) {
            continue;
        }
        if test_ranges
            .iter()
            .any(|&(a, b)| span.body.0 > a && span.body.1 <= b + 1)
        {
            continue;
        }
        let (a, b) = span.body;
        for i in a..b {
            let Some(t) = sig.id(i) else { continue };
            let hit: Option<String> = match t {
                "Vec" | "Box" | "String" if sig.sep_after(i) => match sig.id(i + 3) {
                    Some(m @ ("new" | "with_capacity" | "from")) => {
                        Some(format!("{t}::{m} allocates"))
                    }
                    _ => None,
                },
                "vec" | "format" if sig.is_punct(i + 1, '!') => Some(format!("{t}! allocates")),
                m if ALLOC_METHODS.contains(&m)
                    && sig.is_punct(i + 1, '(')
                    && sig.is_punct(i.wrapping_sub(1), '.') =>
                {
                    Some(format!(".{m}() allocates"))
                }
                _ => None,
            };
            if let Some(what) = hit {
                raw.push((
                    RuleId::HotPathAlloc,
                    sig.line(i),
                    format!(
                        "{what} inside hot-path fn `{}` (zero-alloc steady state, DESIGN.md §6.2)",
                        span.name
                    ),
                ));
            }
        }
    }
}
