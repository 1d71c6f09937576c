//! Machine-checked determinism house rules for the SoV workspace
//! (DESIGN.md §13).
//!
//! The repository's core invariant — byte-identical `DriveReport`s and
//! bench JSON for any worker/depth schedule — is easy to break with one
//! innocent line: a wall-clock read that leaks into a report, an
//! iteration over a `HashMap` whose order escapes into output, an
//! `unsafe` block whose safety argument lives only in a reviewer's
//! memory. Until this crate, those rules were enforced by convention.
//! `sov-lint` turns them into a scanner that walks every Rust source
//! file in the workspace and fails the build on violations, with
//! `file:line` diagnostics.
//!
//! The scanner strips comments and string/char literals first (tracking
//! nested block comments, raw strings, and lifetimes vs. char literals),
//! so prose mentioning `Instant::now` never trips a rule, and code
//! hidden in odd formatting still does. It is a *lexical* checker by
//! design: no type inference, no false sense of completeness — the rules
//! are written so that evasion is visible in review.
//!
//! # Rules
//!
//! | rule | meaning |
//! |------|---------|
//! | `wall-clock` | no `Instant::now` / `SystemTime` outside the telemetry allowlist (stage timing in `sov_runtime::pipeline`) |
//! | `map-iter` | no iteration over a `HashMap`/`HashSet` unless the result is sorted within the next few lines |
//! | `unsafe-site` | `unsafe` only in audited files (`sov-runtime/src/pool.rs`) |
//! | `unsafe-comment` | every `unsafe` is preceded by a `// SAFETY:` comment stating its invariant |
//! | `stdout` | no `println!`/`print!`/`eprintln!`/`dbg!` in library code (benches, bins, and tests excepted) |
//! | `env-read` | no `std::env` reads in library code (config must flow through explicit parameters) |
//! | `stale-allow` | every allowlisted path exists under the scanned root and still has a site of its rule outside test code, so a deleted file or a removed site cannot leave its exemption behind |
//!
//! # Suppressions
//!
//! Suppressions are **in-source**, so the audit trail lives next to the
//! code it excuses, and every one must carry a justification:
//!
//! ```text
//! // sov-lint: allow(map-iter) — order-independent usize sum
//! let total: usize = pools.values().map(Vec::len).sum();
//! ```
//!
//! A trailing comment on the flagged line works too, and the
//! `allow-file(rule)` form of the same marker, anywhere in a file,
//! suppresses one rule for the whole file. A suppression without a
//! justification is itself a diagnostic.

#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Files allowed to read the wall clock, with the audited reason: the
/// one library telemetry module, which stamps the drive's stage calls and
/// the Fig. 5 replay. Host timings of whole workloads live in the
/// `sov-bench` bins, which `BENCH_CRATES` exempts.
const WALL_CLOCK_ALLOW: &[(&str, &str)] = &[(
    "crates/sov-runtime/src/pipeline.rs",
    "`run_inline`'s drive-stage compute times, and the Fig. 5 replay's stage stamps, wall time and frame latencies",
)];

/// Files allowed to contain `unsafe`, with the audited reason. Every
/// site inside them still needs its own `// SAFETY:` comment.
const UNSAFE_ALLOW: &[(&str, &str)] = &[(
    "crates/sov-runtime/src/pool.rs",
    "audited raw-pointer task dispatch (DESIGN.md §8/§13)",
)];

/// Crates whose whole purpose is measurement and console output.
const BENCH_CRATES: &[&str] = &["sov-bench"];

/// The lint rules. `name()` is the id used in `allow(...)` suppressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Wall-clock read outside the telemetry allowlist.
    WallClock,
    /// Unsorted iteration over a hash map/set.
    MapIter,
    /// `unsafe` outside the audited file allowlist.
    UnsafeSite,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeComment,
    /// Console output from library code.
    Stdout,
    /// Environment read from library code.
    EnvRead,
    /// Malformed suppression (missing justification or unknown rule).
    Suppression,
    /// An allowlist entry naming a file that does not exist or that has
    /// no site of the entry's rule outside test code.
    StaleAllow,
}

impl Rule {
    /// The rule id used in diagnostics and `allow(...)` suppressions.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::MapIter => "map-iter",
            Rule::UnsafeSite => "unsafe-site",
            Rule::UnsafeComment => "unsafe-comment",
            Rule::Stdout => "stdout",
            Rule::EnvRead => "env-read",
            Rule::Suppression => "suppression",
            Rule::StaleAllow => "stale-allow",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "wall-clock" => Rule::WallClock,
            "map-iter" => Rule::MapIter,
            "unsafe-site" => Rule::UnsafeSite,
            "unsafe-comment" => Rule::UnsafeComment,
            "stdout" => Rule::Stdout,
            "env-read" => Rule::EnvRead,
            _ => return None,
        })
    }
}

/// One lint finding at `file:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number; 0 for a finding about the whole file.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// What was found and what to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A source line split into its code part (strings/chars blanked) and
/// the concatenated text of any comments on it.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Lexer state carried across lines.
enum Mode {
    Code,
    Block(u32),
    Str,
    RawStr(u32),
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits `source` into per-line (code, comment) views, blanking string
/// and char literals and routing comment text (line, block, doc) into
/// the comment part. Handles nested block comments, raw strings, and
/// the lifetime-vs-char-literal ambiguity.
fn split_lines(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut mode = Mode::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let Mode::Block(_) = mode {
            } else if let Mode::Code = mode {
            } else {
                // A literal spanning lines: keep the mode, break the line.
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: consume to end of line.
                    i += 2;
                    while i < chars.len() && chars[i] != '\n' {
                        cur.comment.push(chars[i]);
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    mode = Mode::Str;
                    cur.code.push(' ');
                    i += 1;
                    continue;
                }
                if c == 'r' && !chars.get(i.wrapping_sub(1)).copied().is_some_and(is_ident) {
                    // Possible raw string: r"..." or r#"..."# (or br...).
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        cur.code.push(' ');
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal or lifetime?
                    if next == Some('\\') {
                        // Escaped char literal: consume to closing quote.
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        cur.code.push(' ');
                        i += 1;
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        cur.code.push(' ');
                        i += 3;
                        continue;
                    }
                    // A lifetime: emit and move on.
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        mode = Mode::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Byte offsets of word-bounded occurrences of `pat` in `code` (the
/// character before and after the match must not be identifier chars).
fn word_sites(code: &str, pat: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = code[at + pat.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            sites.push(at);
        }
        from = at + pat.len().max(1);
    }
    sites
}

/// What kind of source a file is, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// A crate's library code (`crates/*/src`, root `src/`).
    Library,
    /// Binary targets (`src/bin`, `src/main.rs`) and examples.
    Binary,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
}

fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.iter().any(|p| *p == "tests" || *p == "benches") {
        return FileKind::Test;
    }
    if parts.iter().any(|p| *p == "bin" || *p == "examples") || rel.ends_with("main.rs") {
        return FileKind::Binary;
    }
    FileKind::Library
}

fn crate_name(rel: &str) -> Option<&str> {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        parts.next()
    } else {
        None
    }
}

/// Per-line suppression info parsed from comments.
#[derive(Debug, Default, Clone)]
struct Suppress {
    line_rules: Vec<Rule>,
    file_rules: Vec<Rule>,
    malformed: Vec<String>,
}

const ALLOW_MARK: &str = "sov-lint: allow";

fn parse_suppressions(comment: &str) -> Suppress {
    let mut out = Suppress::default();
    let mut from = 0;
    while let Some(pos) = comment[from..].find(ALLOW_MARK) {
        let at = from + pos + ALLOW_MARK.len();
        let rest = &comment[at..];
        let (file_scope, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        from = at;
        let Some(inner) = rest.strip_prefix('(') else {
            out.malformed
                .push("suppression must be `allow(<rule>)` or `allow-file(<rule>)`".into());
            continue;
        };
        let Some(close) = inner.find(')') else {
            out.malformed.push("unclosed `allow(` suppression".into());
            continue;
        };
        let name = inner[..close].trim();
        let Some(rule) = Rule::from_name(name) else {
            out.malformed.push(format!("unknown lint rule `{name}`"));
            continue;
        };
        // A justification is mandatory: at least a few words after the
        // closing paren (conventionally `— <why this is sound>`).
        let why = inner[close + 1..]
            .trim_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
        if why.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
            out.malformed.push(format!(
                "suppression of `{name}` needs a justification after the paren"
            ));
            continue;
        }
        if file_scope {
            out.file_rules.push(rule);
        } else {
            out.line_rules.push(rule);
        }
    }
    out
}

/// Everything derived from one file before rules run.
struct FileScan {
    rel: String,
    kind: FileKind,
    krate: Option<String>,
    lines: Vec<Line>,
    in_test: Vec<bool>,
    suppress: Vec<Suppress>,
    file_allowed: Vec<Rule>,
}

impl FileScan {
    fn new(rel: &str, source: &str) -> Self {
        let lines = split_lines(source);
        let in_test = mark_test_regions(&lines);
        let suppress: Vec<Suppress> = lines
            .iter()
            .map(|l| parse_suppressions(&l.comment))
            .collect();
        let file_allowed: Vec<Rule> = suppress.iter().flat_map(|s| s.file_rules.clone()).collect();
        Self {
            rel: rel.to_string(),
            kind: classify(rel),
            krate: crate_name(rel).map(str::to_string),
            lines,
            in_test,
            suppress,
            file_allowed,
        }
    }

    /// Whether `rule` is suppressed at `line` (0-based): by a trailing
    /// comment, a comment-only line block directly above, or a
    /// file-level allow.
    fn suppressed(&self, line: usize, rule: Rule) -> bool {
        if self.file_allowed.contains(&rule) {
            return true;
        }
        if self.suppress[line].line_rules.contains(&rule) {
            return true;
        }
        let mut j = line;
        while j > 0 {
            j -= 1;
            if !self.lines[j].code.trim().is_empty() {
                return false;
            }
            if self.suppress[j].line_rules.contains(&rule) {
                return true;
            }
            if self.lines[j].comment.is_empty() {
                return false;
            }
        }
        false
    }

    fn is_bench_crate(&self) -> bool {
        self.krate
            .as_deref()
            .is_some_and(|k| BENCH_CRATES.contains(&k))
    }
}

/// Marks lines inside `#[cfg(test)] mod … { … }` regions by brace
/// counting over the code mask.
fn mark_test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg = false;
    let mut region_base: Option<i64> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        let depth_before = depth;
        depth += line.code.chars().filter(|&c| c == '{').count() as i64;
        depth -= line.code.chars().filter(|&c| c == '}').count() as i64;
        if let Some(base) = region_base {
            in_test[i] = true;
            if depth <= base {
                region_base = None;
            }
            continue;
        }
        if code.contains("cfg(test)") {
            pending_cfg = true;
            // `#[cfg(test)] mod t { … }` on one line still opens below.
        }
        if pending_cfg && !word_sites(&line.code, "mod").is_empty() {
            pending_cfg = false;
            in_test[i] = true;
            if depth > depth_before {
                region_base = Some(depth_before);
            }
            continue;
        }
        if pending_cfg && !code.is_empty() && !code.starts_with('#') {
            // The cfg(test) gated a non-mod item (fn, use, …): treat just
            // that item's line as test code.
            pending_cfg = false;
            in_test[i] = true;
        }
    }
    in_test
}

/// Collects identifiers declared as `HashMap`/`HashSet` (bindings,
/// struct fields, parameters) from the code mask.
fn map_names(lines: &[Line]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in lines {
        for ty in ["HashMap", "HashSet"] {
            for at in word_sites(&line.code, ty) {
                if let Some(name) = declared_name(&line.code[..at]) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Given the code preceding a `HashMap`/`HashSet` token, walks backwards
/// through `::`-qualified paths, `&`, `mut`, and generics to find the
/// `ident:` or `ident =` that names the declared map.
fn declared_name(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    // Strip qualifying paths (`std::collections::`) and wrapper
    // generics (`RefCell<`, `Arc<Mutex<`) down to the declaration site.
    loop {
        if s.ends_with("::") {
            s = s[..s.len() - 2].trim_end();
            s = s[..s.len() - trailing_ident(s).len()].trim_end();
            continue;
        }
        if let Some(rest) = s.strip_suffix('<') {
            let rest = rest.trim_end();
            s = rest[..rest.len() - trailing_ident(rest).len()].trim_end();
            continue;
        }
        break;
    }
    // Strip reference/mutability noise between `:`/`=` and the type:
    // `&`, `&'a`, `mut`, `&mut`, `dyn`.
    loop {
        let t = s.trim_end();
        if let Some(rest) = t.strip_suffix("mut") {
            if rest.chars().next_back().is_none_or(|c| !is_ident(c)) {
                s = rest;
                continue;
            }
        }
        if let Some(rest) = t.strip_suffix('&') {
            s = rest;
            continue;
        }
        let ident = trailing_ident(t);
        if !ident.is_empty() && t[..t.len() - ident.len()].ends_with('\'') {
            s = &t[..t.len() - ident.len() - 1];
            continue;
        }
        s = t;
        break;
    }
    if let Some(rest) = s.strip_suffix(':') {
        let name = trailing_ident(rest.trim_end());
        if !name.is_empty() {
            return Some(name.to_string());
        }
        return None;
    }
    if let Some(rest) = s.strip_suffix('=') {
        let rest = rest.trim_end();
        let name = trailing_ident(rest);
        if !name.is_empty() && !rest.ends_with("==") {
            return Some(name.to_string());
        }
    }
    None
}

fn trailing_ident(s: &str) -> &str {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident(c))
        .last()
        .map_or(end, |(i, _)| i);
    &s[start..end]
}

/// Accessor calls that may sit between a map name and its iteration
/// (`pools.borrow().values()`, `shared.lock().unwrap().keys()`, …).
const ACCESSOR_HOPS: &[&str] = &[
    ".borrow()",
    ".borrow_mut()",
    ".lock()",
    ".read()",
    ".write()",
    ".unwrap()",
    ".as_ref()",
    ".as_mut()",
];

/// Iteration-adjacent method suffixes whose order is the hash order.
const ITER_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// How many following lines may contain the `.sort` that re-orders a
/// collected hash iteration before it counts as unsorted.
const SORT_WINDOW: usize = 12;

/// Lints one file's source. `rel` is the workspace-relative path used
/// in diagnostics and allowlist matching.
#[must_use]
pub fn lint_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    lint_file(rel, source, true)
}

/// [`lint_source`], honouring the file allowlists only when `allowlists`
/// is set.
fn lint_file(rel: &str, source: &str, allowlists: bool) -> Vec<Diagnostic> {
    let scan = FileScan::new(rel, source);
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        out.push(Diagnostic {
            file: scan.rel.clone(),
            line: line + 1,
            rule,
            message,
        });
    };

    // Malformed suppressions are always reported.
    for (i, s) in scan.suppress.iter().enumerate() {
        for m in &s.malformed {
            push(i, Rule::Suppression, m.clone());
        }
    }

    let names = map_names(&scan.lines);
    let wall_clock_allowed = allowlists && WALL_CLOCK_ALLOW.iter().any(|(f, _)| *f == scan.rel);
    let unsafe_allowed = allowlists && UNSAFE_ALLOW.iter().any(|(f, _)| *f == scan.rel);
    let bench = scan.is_bench_crate();

    for (i, line) in scan.lines.iter().enumerate() {
        let code = &line.code;
        let app_code = scan.kind == FileKind::Library && !scan.in_test[i];

        // wall-clock: telemetry reads outside the allowlist.
        if app_code && !bench && !wall_clock_allowed && !scan.suppressed(i, Rule::WallClock) {
            for pat in ["Instant::now", "SystemTime"] {
                if !word_sites(code, pat).is_empty() {
                    push(
                        i,
                        Rule::WallClock,
                        format!(
                            "`{pat}` outside the telemetry allowlist — wall-clock reads \
                             must not influence report-affecting code"
                        ),
                    );
                    break;
                }
            }
        }

        // stdout / env-read: library code stays silent and config-free.
        if app_code && !bench && !scan.suppressed(i, Rule::Stdout) {
            for pat in ["println!", "print!", "eprintln!", "eprint!", "dbg!"] {
                if !word_sites(code, pat).is_empty() {
                    push(
                        i,
                        Rule::Stdout,
                        format!("`{pat}` in library code — route output through return values"),
                    );
                    break;
                }
            }
        }
        if app_code
            && !bench
            && !scan.suppressed(i, Rule::EnvRead)
            && !word_sites(code, "env").is_empty()
            && (code.contains("std::env") || code.contains("env::"))
        {
            push(
                i,
                Rule::EnvRead,
                "`std::env` read in library code — pass configuration explicitly".into(),
            );
        }

        // unsafe: audited files only, every site carries SAFETY.
        if !word_sites(code, "unsafe").is_empty() {
            if scan.kind != FileKind::Test
                && !scan.in_test[i]
                && !unsafe_allowed
                && !scan.suppressed(i, Rule::UnsafeSite)
            {
                push(
                    i,
                    Rule::UnsafeSite,
                    "`unsafe` outside the audited allowlist (see sov-lint UNSAFE_ALLOW)".into(),
                );
            }
            if !has_safety_comment(&scan.lines, i) && !scan.suppressed(i, Rule::UnsafeComment) {
                push(
                    i,
                    Rule::UnsafeComment,
                    "`unsafe` without a `// SAFETY:` comment stating the invariant it relies on"
                        .into(),
                );
            }
        }

        // map-iter: hash iteration whose order can escape.
        if !scan.in_test[i] && scan.kind != FileKind::Test && !scan.suppressed(i, Rule::MapIter) {
            let site = map_iteration_site(code, &names)
                .or_else(|| continuation_iteration_site(&scan.lines, i, &names));
            if let Some(name) = site {
                let sorted_soon = scan.lines[i..(i + SORT_WINDOW).min(scan.lines.len())]
                    .iter()
                    .any(|l| l.code.contains(".sort"));
                if !sorted_soon {
                    push(
                        i,
                        Rule::MapIter,
                        format!(
                            "iteration over hash collection `{name}` without a nearby sort — \
                             hash order must not reach report-affecting code"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Whether line `i` (containing `unsafe`) has a `SAFETY:` comment on the
/// same line or in the comment block directly above.
fn has_safety_comment(lines: &[Line], i: usize) -> bool {
    if lines[i].comment.contains("SAFETY") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !lines[j].code.trim().is_empty() {
            return false;
        }
        if lines[j].comment.contains("SAFETY") {
            return true;
        }
        if lines[j].comment.is_empty() {
            return false;
        }
    }
    false
}

/// Finds a hash-collection iteration on this line: a declared map name
/// followed by an iterating method, or a `for … in` over the map.
fn map_iteration_site(code: &str, names: &[String]) -> Option<String> {
    for name in names {
        for at in word_sites(code, name) {
            let mut after = &code[at + name.len()..];
            while let Some(rest) = ACCESSOR_HOPS.iter().find_map(|hop| after.strip_prefix(hop)) {
                after = rest;
            }
            if ITER_SUFFIXES.iter().any(|s| after.starts_with(s)) {
                return Some(name.clone());
            }
        }
        if let Some(pos) = code.find(" in ") {
            let expr = code[pos + 4..].trim();
            let expr = expr.strip_prefix('&').unwrap_or(expr);
            let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
            let expr = expr.strip_prefix("self.").unwrap_or(expr);
            let head = trailing_ident_prefix(expr);
            if head == name {
                let tail = expr[head.len()..].trim_start();
                if tail.is_empty() || tail.starts_with('{') {
                    return Some(name.clone());
                }
            }
        }
    }
    None
}

/// Catches rustfmt-split method chains: a line starting with an
/// iterating method (`.keys()`, …) whose previous code line ends with a
/// declared map name (possibly behind accessor hops).
fn continuation_iteration_site(lines: &[Line], i: usize, names: &[String]) -> Option<String> {
    let trimmed = lines[i].code.trim_start();
    if !ITER_SUFFIXES.iter().any(|s| trimmed.starts_with(s)) {
        return None;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let prev = lines[j].code.trim_end();
        if prev.trim().is_empty() {
            continue;
        }
        let mut p = prev;
        while let Some(rest) = ACCESSOR_HOPS.iter().find_map(|hop| p.strip_suffix(hop)) {
            p = rest.trim_end();
        }
        let tail = trailing_ident(p);
        return names.iter().find(|n| n.as_str() == tail).cloned();
    }
    None
}

/// The leading identifier of `s`.
fn trailing_ident_prefix(s: &str) -> &str {
    let end = s
        .char_indices()
        .find(|&(_, c)| !is_ident(c))
        .map_or(s.len(), |(i, _)| i);
    &s[..end]
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// diagnostic order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/{src,tests,benches,examples}`, the facade `src/`, root
/// `tests/`, and `examples/`; and every allowlisted path must exist
/// under `root` and still need its entry.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        krates.sort();
        for k in krates {
            for sub in ["src", "tests", "benches", "examples"] {
                rust_files(&k.join(sub), &mut files)?;
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        rust_files(&root.join(sub), &mut files)?;
    }
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        out.extend(lint_source(&rel, &source));
    }
    let allowlists = WALL_CLOCK_ALLOW
        .iter()
        .map(|&(f, _)| (f, Rule::WallClock, "WALL_CLOCK_ALLOW"))
        .chain(
            UNSAFE_ALLOW
                .iter()
                .map(|&(f, _)| (f, Rule::UnsafeSite, "UNSAFE_ALLOW")),
        );
    for (file, rule, list) in allowlists {
        let path = root.join(file);
        let message = if !path.is_file() {
            format!("sov-lint's {list} names this file, which does not exist; drop the entry")
        } else if !lint_file(file, &std::fs::read_to_string(&path)?, false)
            .iter()
            .any(|d| d.rule == rule)
        {
            format!(
                "sov-lint's {list} names this file, which has no `{}` site outside test \
                 code; drop the entry",
                rule.name()
            )
        } else {
            continue;
        };
        out.push(Diagnostic {
            file: file.to_string(),
            line: 0,
            rule: Rule::StaleAllow,
            message,
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(rel: &str, src: &str) -> Vec<(usize, Rule)> {
        lint_source(rel, src)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect()
    }

    const LIB: &str = "crates/sov-demo/src/demo.rs";

    #[test]
    fn wall_clock_flagged_with_line_number() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        assert_eq!(rules_at(LIB, src), vec![(2, Rule::WallClock)]);
    }

    #[test]
    fn wall_clock_in_string_or_comment_is_ignored() {
        let src = "// prose about Instant::now\nconst S: &str = \"Instant::now\";\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn wall_clock_in_test_module_is_allowed() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn wall_clock_allowlisted_file_is_clean() {
        let src = "fn stamp() { let _ = std::time::Instant::now(); }\n";
        assert!(rules_at("crates/sov-runtime/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_justification_works() {
        let src = "// sov-lint: allow(wall-clock) — jitter seed, never reported\n\
                   fn f() { let _ = std::time::Instant::now(); }\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn suppression_without_justification_is_flagged() {
        let src = "// sov-lint: allow(wall-clock)\nfn f() { let _ = std::time::Instant::now(); }\n";
        let rules = rules_at(LIB, src);
        assert!(rules.contains(&(1, Rule::Suppression)), "{rules:?}");
        assert!(rules.contains(&(2, Rule::WallClock)), "{rules:?}");
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let src = "// sov-lint: allow(no-such-rule) — whatever\nfn f() {}\n";
        assert_eq!(rules_at(LIB, src), vec![(1, Rule::Suppression)]);
    }

    #[test]
    fn unsorted_map_iteration_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(cells: &HashMap<u32, u32>) -> Vec<u32> {\n\
                       cells.keys().copied().collect()\n\
                   }\n";
        assert_eq!(rules_at(LIB, src), vec![(3, Rule::MapIter)]);
    }

    #[test]
    fn map_iteration_with_nearby_sort_is_clean() {
        let src = "use std::collections::HashMap;\n\
                   fn f(cells: &HashMap<u32, u32>) -> Vec<u32> {\n\
                       let mut v: Vec<u32> = cells.keys().copied().collect();\n\
                       v.sort_unstable();\n\
                       v\n\
                   }\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) {\n\
                       for kv in &m {\n\
                           let _ = kv;\n\
                       }\n\
                   }\n";
        assert_eq!(rules_at(LIB, src), vec![(3, Rule::MapIter)]);
    }

    #[test]
    fn map_iter_suppression_on_same_line_works() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> usize {\n\
                       m.values().len() // sov-lint: allow(map-iter) — order-free count\n\
                   }\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn multiline_chain_iteration_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct G { cells: HashMap<u32, u32> }\n\
                   impl G {\n\
                       fn all(&self) -> Vec<u32> {\n\
                           self.cells\n\
                               .keys()\n\
                               .copied()\n\
                               .collect()\n\
                       }\n\
                   }\n";
        assert_eq!(rules_at(LIB, src), vec![(6, Rule::MapIter)]);
    }

    #[test]
    fn iteration_behind_refcell_borrow_is_still_flagged() {
        let src = "use std::cell::RefCell;\nuse std::collections::HashMap;\n\
                   struct P { pools: RefCell<HashMap<u32, Vec<u8>>> }\n\
                   impl P {\n\
                       fn pooled(&self) -> usize {\n\
                           self.pools.borrow().values().map(Vec::len).sum()\n\
                       }\n\
                   }\n";
        assert_eq!(rules_at(LIB, src), vec![(6, Rule::MapIter)]);
    }

    #[test]
    fn vec_iteration_is_not_a_map_iteration() {
        let src = "fn f(points: &[u32]) -> u32 {\n    points.iter().sum()\n}\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_double_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let rules = rules_at(LIB, src);
        assert!(rules.contains(&(2, Rule::UnsafeSite)), "{rules:?}");
        assert!(rules.contains(&(2, Rule::UnsafeComment)), "{rules:?}");
    }

    #[test]
    fn audited_unsafe_with_safety_comment_is_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: caller guarantees p is valid for reads.\n\
                   unsafe { *p }\n\
                   }\n";
        assert!(rules_at("crates/sov-runtime/src/pool.rs", src).is_empty());
    }

    #[test]
    fn stdout_and_env_flagged_in_library_code_only() {
        let src = "fn f() {\n    println!(\"x\");\n    let _ = std::env::var(\"HOME\");\n}\n";
        let lib = rules_at(LIB, src);
        assert!(lib.contains(&(2, Rule::Stdout)), "{lib:?}");
        assert!(lib.contains(&(3, Rule::EnvRead)), "{lib:?}");
        assert!(rules_at("crates/sov-demo/src/bin/tool.rs", src).is_empty());
        assert!(rules_at("crates/sov-bench/src/lib.rs", src).is_empty());
        assert!(rules_at("crates/sov-demo/tests/t.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = "fn f<'a>(s: &'a str) -> &'a str {\n\
                   let _ = r#\"println! Instant::now \"quoted\"\"#;\n\
                   let _c = 'x';\n\
                   let _q = '\\'';\n\
                   s\n\
                   }\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn block_comments_mask_code() {
        let src = "/* let _ = Instant::now();\n   still comment */\nfn f() {}\n";
        assert!(rules_at(LIB, src).is_empty());
    }

    #[test]
    fn allow_file_suppresses_whole_file() {
        let src = "// sov-lint: allow-file(stdout) — demo crate prints a banner\n\
                   fn a() { println!(\"one\"); }\n\
                   fn b() { println!(\"two\"); }\n";
        assert!(rules_at(LIB, src).is_empty());
    }
}
