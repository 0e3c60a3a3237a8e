//! INSANE invariant linter v2: a two-tier static analyzer for the
//! repo-specific rules `clippy` cannot express, run as
//! `cargo run -p insane-lint` (CI job `lint-invariants`).
//!
//! **Tier 1 (regex fallback, [`scan`])** — per-line code/comment channel
//! rules, unchanged from v1:
//!
//! * `safety-comment` — every `unsafe` keyword must carry a `// SAFETY:`
//!   comment on the same line or in the contiguous comment block
//!   immediately above.
//! * `unsafe-whitelist` — `unsafe` may appear only in the two crates
//!   whose job it is (`insane-memory`, `insane-queues`) plus the
//!   telemetry overhead-guard test (counting global allocator); every
//!   other crate additionally carries `#![forbid(unsafe_code)]`.
//! * `no-panic-paths` — non-test code in `insane-core`/`insane-fabric`/
//!   `insane-telemetry`/`insanectl` must not call `unwrap`/`expect` or
//!   invoke `panic!`-family macros.
//! * `raw-slot-arithmetic` — slot-index/generation arithmetic belongs in
//!   `insane-memory` alone, and non-test code may name `SlotToken` only
//!   there and in `insane-ipc` (the process boundary it exists for).
//! * `raw-socket` — OS socket types may be named only by the kernel-UDP
//!   datapath plugin and the simulated-fabric UDP device.
//! * `bad-waiver` — an `insane-lint:` directive lacking a non-empty
//!   reason.
//!
//! **Tier 2 (AST + call graph, [`lex`]/[`parse`]/[`callgraph`]/
//! [`rules`])** — whole-workspace analyses:
//!
//! * `hot-path-alloc` / `hot-path-block` / `hot-path-rwlock` /
//!   `hot-path-panic` — functions reachable from
//!   `// insane-lint: hot-path-root` markers must not allocate, block,
//!   acquire reader-writer locks (read-mostly state belongs in a
//!   `SnapshotCell`, DESIGN.md §12), or carry implicit panic sites;
//!   reachability stops at `#[cfg(test)]` boundaries and
//!   `// insane-lint: cold-path` markers.
//! * `lock-order-cycle` / `lock-across-wait` — the workspace lock
//!   acquisition graph must be acyclic and no guard may be held across
//!   a wait point (condvar waits that take the guard are exempt: the
//!   condvar releases it).
//! * `slot-token-drop` — a `SlotToken` (Copy, no Drop) bound outside
//!   `insane-memory` must be consumed, never silently dropped.
//!
//! **Waivers** are parsed only from genuine comment tokens (line
//! comments and single-line block comments — never from string
//! literals or the interior lines of multi-line block comments):
//!
//! * line waiver: `insane-lint: allow(<rule>) -- <reason>` covers its
//!   own line and the next;
//! * function waiver: `insane-lint: allow-fn(<rule>) -- <reason>` in
//!   the comment block above a `fn` covers the whole body;
//! * a waiver without a reason (≥ 3 chars) is itself a `bad-waiver`
//!   violation.

pub mod callgraph;
pub mod findings;
pub mod lex;
pub mod parse;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use parse::{Directive, ParsedFile};
use scan::{find_word, ScannedLine};

/// Path prefixes (repo-relative, `/`-separated) where `unsafe` is legal.
/// `crates/telemetry/tests/` is allowed one `unsafe`: the overhead-guard
/// test installs a counting `GlobalAlloc` to prove the emit/consume path
/// adds zero allocations (library code in `crates/telemetry/src/` stays
/// under `#![forbid(unsafe_code)]`).
const UNSAFE_WHITELIST: &[&str] = &[
    "crates/memory/",
    "crates/queues/",
    "crates/ipc/",
    "crates/telemetry/tests/",
];

/// Crates whose non-test code must be panic-free.  The bench harness
/// rides along: its suites exercise the sharded polling engine, the
/// multi-tenant overload paths, the process split and the time-aware
/// gates, and must report failures (ordering violations, stalls,
/// refused tenants, violated BENCH gates) through the driver's one
/// error exit instead of panicking.  `crates/ipc` (the daemon and
/// client library) is in the zone because a panic in the daemon kills
/// every attached application's session.
const NO_PANIC_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/fabric/src/",
    "crates/ipc/src/",
    "crates/telemetry/src/",
    "crates/bench/src/",
    "examples/mixed_criticality.rs",
    "tools/insanectl/src/",
];

/// Carved out of [`NO_PANIC_PREFIXES`]: the Table 3 LoC-measured
/// programs, written the way the paper's applications are (setup
/// failures `expect`ed), because their line count is the measurement.
const NO_PANIC_EXEMPT: &[&str] = &["crates/bench/src/apps/"];

/// Files allowed to name OS socket types: the kernel-UDP datapath plugin
/// and the simulated AF_INET device it is built on.
const SOCKET_ALLOWLIST: &[&str] = &[
    "crates/fabric/src/devices/udp.rs",
    "crates/core/src/runtime/plugins.rs",
];

/// Where slot-token internals may be manipulated.
const SLOT_ARITHMETIC_HOME: &str = "crates/memory/";

/// Where non-test code may name `SlotToken` at all: the pool that mints
/// it and the process boundary that ships it.  Everywhere else a slot
/// travels as its owning handle (`SlotGuard`/`SlotView`).
const SLOT_TOKEN_ZONES: &[&str] = &[SLOT_ARITHMETIC_HOME, "crates/ipc/"];

/// Identifier-boundary tokens whose call marks a panic path.
const PANIC_CALLS: &[&str] = &["unwrap", "expect"];

/// Macros whose invocation marks a panic path.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Socket type names guarded by `raw-socket`.
const SOCKET_TYPES: &[&str] = &["UdpSocket", "TcpListener", "TcpStream"];

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (what `allow(...)` takes).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Workspace-analysis counters for the JSON report and the CI runtime
/// guard.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub files: usize,
    pub functions: usize,
    pub hot_functions: usize,
    /// Findings suppressed by (reasoned) waivers.
    pub waived: usize,
    pub elapsed_ms: u128,
}

/// Full analysis result.
#[derive(Debug)]
pub struct Analysis {
    pub violations: Vec<Violation>,
    pub stats: Stats,
    /// Hot functions as `(qname, root qname, file, line)` — the
    /// reachability set behind the hot-path rules (`--list-hot`).
    pub hot: Vec<(String, String, String, u32)>,
}

/// Lints one file's source text with the **regex tier only** (plus
/// waivers). `rel` is the repo-relative path used for scope decisions
/// (whitelists) and reporting. The AST tier needs the whole workspace
/// (call graph); use [`analyze_root`] for it.
pub fn lint_file(rel: &Path, source: &str) -> Vec<Violation> {
    let rel_str = rel_str_of(rel);
    let lexed = lex::lex(source);
    let waivers = collect_waivers(&lexed.comments);
    let mut out = regex_tier(&rel_str, source);
    let mut kept: Vec<Violation> = out
        .drain(..)
        .filter(|v| !waivers.iter().any(|w| w.covers(v)))
        .collect();
    kept.extend(bad_waiver_violations(rel, &waivers));
    for v in &mut kept {
        v.file = rel.to_path_buf();
    }
    kept.sort_by_key(|v| v.line);
    kept
}

/// Recursively runs the **full two-tier analysis** on every `.rs` file
/// under `root` that belongs to the workspace's own code (crates/, src/,
/// tools/, tests/, examples/), skipping `target/`, `vendor/`
/// (third-party shims) and test fixtures. Equivalent to
/// [`analyze_root`] but returning only the violations.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(analyze_root(root)?.violations)
}

/// The full v2 analysis: regex tier per file, then the AST/call-graph
/// tier across the whole workspace, then waiver application.
pub fn analyze_root(root: &Path) -> std::io::Result<Analysis> {
    let started = Instant::now();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut parsed: Vec<ParsedFile> = Vec::with_capacity(files.len());
    let mut raw: Vec<Violation> = Vec::new();
    let mut waivers_by_file: Vec<Vec<Waiver>> = Vec::with_capacity(files.len());

    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel_str_of(rel);
        let lexed = lex::lex(&source);
        let test_file = is_test_file(&rel_str);
        let waivers = collect_waivers(&lexed.comments);
        raw.extend(regex_tier(&rel_str, &source).into_iter().map(|mut v| {
            v.file = rel.clone();
            v
        }));
        raw.extend(bad_waiver_violations(rel, &waivers));
        waivers_by_file.push(waivers);
        parsed.push(parse::parse_file(&rel_str, lexed, test_file));
    }

    let graph = callgraph::build(&parsed);
    let hot = callgraph::hot_provenance(&parsed, &graph);
    let ctx = rules::RuleCtx {
        files: &parsed,
        graph: &graph,
        hot: &hot,
    };
    rules::hot_path::run(&ctx, &mut raw);
    rules::lock_order::run(&ctx, &mut raw);
    rules::slot_token::run(&ctx, &mut raw);

    // Fn-scoped waiver index: file -> parsed index, plus bad fn-waivers.
    let rel_index: std::collections::HashMap<String, usize> = parsed
        .iter()
        .enumerate()
        .map(|(i, p)| (p.file.clone(), i))
        .collect();
    for p in &parsed {
        for f in &p.fns {
            for w in &f.waivers {
                if !w.reason_ok {
                    raw.push(Violation {
                        file: PathBuf::from(&p.file),
                        line: w.line as usize,
                        rule: "bad-waiver",
                        message: format!(
                            "`{}` marker on `{}` has no reason; append `-- <why>`",
                            w.rule, f.qname
                        ),
                    });
                }
            }
        }
    }

    let before = raw.len();
    let mut kept: Vec<Violation> = raw
        .into_iter()
        .filter(|v| {
            if v.rule == "bad-waiver" {
                return true;
            }
            let rel_str = rel_str_of(&v.file);
            let Some(&pi) = rel_index.get(&rel_str) else {
                return true;
            };
            // Line waivers.
            if waivers_by_file[pi].iter().any(|w| w.covers(v)) {
                return false;
            }
            // Function waivers.
            !parsed[pi].fns.iter().any(|f| {
                f.covers_line(v.line) && f.waivers.iter().any(|w| w.reason_ok && w.rule == v.rule)
            })
        })
        .collect();
    let waived = before - kept.len();
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    kept.dedup();

    let functions: usize = parsed.iter().map(|p| p.fns.len()).sum();
    let hot_functions = hot.iter().filter(|p| p.is_some()).count();
    let mut hot_list: Vec<(String, String, String, u32)> = hot
        .iter()
        .enumerate()
        .filter_map(|(id, prov)| {
            let root = (*prov)?;
            let f = graph.info(&parsed, id);
            let r = graph.info(&parsed, root);
            Some((
                f.qname.clone(),
                r.qname.clone(),
                parsed[graph.fns[id].file].file.clone(),
                f.line,
            ))
        })
        .collect();
    hot_list.sort();
    Ok(Analysis {
        violations: kept,
        hot: hot_list,
        stats: Stats {
            files: parsed.len(),
            functions,
            hot_functions,
            waived,
            elapsed_ms: started.elapsed().as_millis(),
        },
    })
}

fn rel_str_of(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

fn is_test_file(rel_str: &str) -> bool {
    rel_str.starts_with("tests/") || rel_str.contains("/tests/")
}

/// The v1 per-line rules (tier 1), without waiver application.
fn regex_tier(rel_str: &str, source: &str) -> Vec<Violation> {
    let lines = scan::scan(source);
    let in_test = test_spans(&lines, rel_str);
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        check_unsafe(rel_str, idx, &lines, &mut out);
        check_panic_paths(rel_str, idx, line, in_test[idx], &mut out);
        check_slot_arithmetic(rel_str, idx, line, in_test[idx], &mut out);
        check_sockets(rel_str, idx, line, &mut out);
    }
    out
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let skip = ["target", "vendor", ".git", "fixtures"]
                .iter()
                .any(|d| rel_str == *d || rel_str.ends_with(&format!("/{d}")));
            let top_ok = ["crates", "src", "tools", "tests", "examples"]
                .iter()
                .any(|d| rel_str == *d || rel_str.starts_with(&format!("{d}/")));
            if !skip && (top_ok || rel_str.is_empty()) {
                collect_rs_files(root, &path, out)?;
            }
        } else if rel_str.ends_with(".rs") {
            let top_ok = ["crates/", "src/", "tools/", "tests/", "examples/"]
                .iter()
                .any(|d| rel_str.starts_with(d));
            if top_ok {
                out.push(rel);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Waivers

#[derive(Debug)]
struct Waiver {
    /// 0-based line the directive appears on.
    line: usize,
    rule: String,
    reason_missing: bool,
}

impl Waiver {
    /// A directive covers its own line and the next line (so it can sit
    /// above the offending statement).
    fn covers(&self, v: &Violation) -> bool {
        !self.reason_missing
            && v.rule == self.rule
            && (v.line == self.line + 1 || v.line == self.line + 2)
    }
}

/// Collects line waivers from discrete comment tokens. This is where the
/// v1 substring hole is closed: only [`lex::CommentKind::Line`] and
/// single-line [`lex::CommentKind::Block`] comments can mint a waiver
/// ([`parse::directive_of`] rejects `BlockInterior`), and string
/// literals never reach this code at all — the lexer does not produce
/// comment tokens for them.
fn collect_waivers(comments: &[lex::Comment]) -> Vec<Waiver> {
    comments
        .iter()
        .filter_map(|c| match parse::directive_of(c) {
            Some(Directive::Allow { rule, reason_ok }) => Some(Waiver {
                line: (c.line as usize).saturating_sub(1),
                rule,
                reason_missing: !reason_ok,
            }),
            _ => None,
        })
        .collect()
}

fn bad_waiver_violations(rel: &Path, waivers: &[Waiver]) -> Vec<Violation> {
    waivers
        .iter()
        .filter(|w| w.reason_missing)
        .map(|w| Violation {
            file: rel.to_path_buf(),
            line: w.line + 1,
            rule: "bad-waiver",
            message: format!(
                "waiver for `{}` has no reason; write `insane-lint: allow({}) -- <why>`",
                w.rule, w.rule
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Test-span detection

/// Computes, for each line, whether it sits inside test-only code:
/// a `#[cfg(test)]`/`#[cfg(all(test, ...))]` module, a `#[test]` function,
/// or an integration-test/bench file.
fn test_spans(lines: &[ScannedLine], rel_str: &str) -> Vec<bool> {
    if is_test_file(rel_str) {
        return vec![true; lines.len()];
    }
    let mut in_test = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut test_starts: Vec<i32> = Vec::new();
    let mut pending_attr = false;

    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if is_test_attr(code) {
            pending_attr = true;
        }
        in_test[idx] = !test_starts.is_empty() || pending_attr;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_starts.push(depth);
                        pending_attr = false;
                    }
                }
                '}' => {
                    if test_starts.last() == Some(&depth) {
                        test_starts.pop();
                    }
                    depth -= 1;
                }
                ';' if pending_attr && test_starts.is_empty() => {
                    // Attribute applied to a braceless item (e.g. a
                    // `#[cfg(test)] use ...;`): the span ends here.
                    pending_attr = false;
                }
                _ => {}
            }
        }
        if !test_starts.is_empty() {
            in_test[idx] = true;
        }
    }
    in_test
}

/// Does this code line carry an attribute that marks test-only code?
fn is_test_attr(code: &str) -> bool {
    let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    if compact.contains("#[test]") || compact.contains("#[should_panic") {
        return true;
    }
    if let Some(pos) = compact.find("#[cfg(") {
        let args = &compact[pos + 6..];
        let end = args.find(")]").map(|e| &args[..e]).unwrap_or(args);
        return !find_word(end, "test").is_empty();
    }
    false
}

// ---------------------------------------------------------------------------
// Tier-1 rules

fn check_unsafe(rel: &str, idx: usize, lines: &[ScannedLine], out: &mut Vec<Violation>) {
    let code = &lines[idx].code;
    if find_word(code, "unsafe").is_empty() {
        return;
    }
    let whitelisted = UNSAFE_WHITELIST.iter().any(|p| rel.starts_with(p));
    if !whitelisted {
        out.push(Violation {
            file: PathBuf::new(),
            line: idx + 1,
            rule: "unsafe-whitelist",
            message: format!(
                "`unsafe` is only permitted in {}; move the unsafe operation behind \
                 their safe APIs",
                UNSAFE_WHITELIST.join(", ")
            ),
        });
    }
    // SAFETY comment on the same line or anywhere in the contiguous
    // comment block immediately above (long justifications span many
    // lines; what matters is that the block is adjacent to the unsafe).
    let mut documented = lines[idx].comment.contains("SAFETY:");
    let mut j = idx;
    while !documented && j > 0 {
        j -= 1;
        let above = &lines[j];
        if !above.code.trim().is_empty() || above.comment.is_empty() {
            break;
        }
        documented = above.comment.contains("SAFETY:");
    }
    if !documented {
        out.push(Violation {
            file: PathBuf::new(),
            line: idx + 1,
            rule: "safety-comment",
            message: "`unsafe` without a `// SAFETY:` comment on the same line or in the \
                      comment block above; state the invariant that makes this sound"
                .to_string(),
        });
    }
}

fn check_panic_paths(
    rel: &str,
    idx: usize,
    line: &ScannedLine,
    in_test: bool,
    out: &mut Vec<Violation>,
) {
    let listed = |paths: &[&str]| paths.iter().any(|p| rel.starts_with(p));
    if in_test || !listed(NO_PANIC_PREFIXES) || listed(NO_PANIC_EXEMPT) {
        return;
    }
    let code = &line.code;
    for call in PANIC_CALLS {
        for pos in find_word(code, call) {
            // Only flag *calls*: `.unwrap()` / `.expect("...")`.
            let after = code[pos + call.len()..].trim_start();
            let is_method = code[..pos].trim_end().ends_with('.');
            if is_method && after.starts_with('(') {
                out.push(Violation {
                    file: PathBuf::new(),
                    line: idx + 1,
                    rule: "no-panic-paths",
                    message: format!(
                        "`.{call}()` in non-test {} code: return a typed error instead \
                         (control plane must degrade, not die)",
                        crate_of(rel)
                    ),
                });
            }
        }
    }
    for mac in PANIC_MACROS {
        for pos in find_word(code, mac) {
            let after = code[pos + mac.len()..].trim_start();
            if after.starts_with('!') {
                out.push(Violation {
                    file: PathBuf::new(),
                    line: idx + 1,
                    rule: "no-panic-paths",
                    message: format!(
                        "`{mac}!` in non-test {} code: return a typed error instead",
                        crate_of(rel)
                    ),
                });
            }
        }
    }
}

fn check_slot_arithmetic(
    rel: &str,
    idx: usize,
    line: &ScannedLine,
    in_test: bool,
    out: &mut Vec<Violation>,
) {
    if rel.starts_with(SLOT_ARITHMETIC_HOME) {
        return;
    }
    let code = &line.code;
    // SlotToken struct literals (construction belongs to the pool), and
    // outside the token's zones any non-test mention of the type.
    let may_name = in_test || SLOT_TOKEN_ZONES.iter().any(|zone| rel.starts_with(zone));
    for pos in find_word(code, "SlotToken") {
        let after = code[pos + "SlotToken".len()..].trim_start();
        let message = if after.starts_with('{') {
            "constructing a `SlotToken` outside insane-memory defeats the \
             generation-tag discipline; mint tokens through the pool API"
        } else if !may_name {
            "naming `SlotToken` outside insane-memory and insane-ipc: the bare id is for \
             descriptor rings between processes; inside one, move the `SlotGuard`/`SlotView`"
        } else {
            continue;
        };
        out.push(Violation {
            file: PathBuf::new(),
            line: idx + 1,
            rule: "raw-slot-arithmetic",
            message: message.to_string(),
        });
    }
    // Generation tags are an insane-memory implementation detail.  Test
    // code is exempt from the bare-identifier heuristic: scenario tests
    // legitimately name unrelated things "generation" (e.g. application
    // restart generations) and cannot reach pool internals anyway.
    if !in_test && !find_word(code, "generation").is_empty() {
        out.push(Violation {
            file: PathBuf::new(),
            line: idx + 1,
            rule: "raw-slot-arithmetic",
            message: "manipulating slot `generation` tags outside insane-memory; use the \
                      pool's validate/release API"
                .to_string(),
        });
    }
    // Arithmetic on `<token|slot>.index()` — recomputing slot addresses.
    let mut start = 0;
    while let Some(rel_pos) = code[start..].find(".index()") {
        let pos = start + rel_pos;
        start = pos + ".index()".len();
        let receiver: String = code[..pos]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let receiver = receiver.to_ascii_lowercase();
        if !(receiver.contains("token") || receiver.contains("slot")) {
            continue;
        }
        let after = code[pos + ".index()".len()..].trim_start();
        let before = code[..pos.saturating_sub(receiver.len())].trim_end();
        let arith = |s: &str| {
            s.starts_with('+')
                || s.starts_with('-')
                || s.starts_with('*')
                || s.starts_with('/')
                || s.starts_with('%')
                || s.starts_with("<<")
                || s.starts_with(">>")
        };
        let ends_arith = |s: &str| {
            s.ends_with('+')
                || s.ends_with('-')
                || s.ends_with('*')
                || s.ends_with('/')
                || s.ends_with('%')
                || s.ends_with("<<")
                || s.ends_with(">>")
        };
        if arith(after) || ends_arith(before) || after.starts_with("as ") {
            out.push(Violation {
                file: PathBuf::new(),
                line: idx + 1,
                rule: "raw-slot-arithmetic",
                message: "arithmetic on a slot index outside insane-memory; slot address \
                          computation belongs to the pool"
                    .to_string(),
            });
        }
    }
}

fn check_sockets(rel: &str, idx: usize, line: &ScannedLine, out: &mut Vec<Violation>) {
    if SOCKET_ALLOWLIST.contains(&rel) {
        return;
    }
    for ty in SOCKET_TYPES {
        if !find_word(&line.code, ty).is_empty() {
            out.push(Violation {
                file: PathBuf::new(),
                line: idx + 1,
                rule: "raw-socket",
                message: format!(
                    "`{ty}` outside the kernel-UDP datapath plugin; all packet I/O must go \
                     through a registered datapath so QoS routing and failover apply"
                ),
            });
        }
    }
}

fn crate_of(rel: &str) -> &str {
    if rel.starts_with("crates/core/") {
        "insane-core"
    } else if rel.starts_with("crates/fabric/") {
        "insane-fabric"
    } else if rel.starts_with("crates/telemetry/") {
        "insane-telemetry"
    } else if rel.starts_with("tools/insanectl/") {
        "insanectl"
    } else {
        "workspace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<&'static str> {
        lint_file(Path::new(rel), src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    /// A listed path that no longer exists silently shrinks its zone
    /// (or widens its allowance) when files move.
    #[test]
    fn every_listed_path_exists_in_the_repo() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lists = [
            UNSAFE_WHITELIST,
            NO_PANIC_PREFIXES,
            NO_PANIC_EXEMPT,
            SOCKET_ALLOWLIST,
            SLOT_TOKEN_ZONES,
        ];
        for path in lists.into_iter().flatten() {
            assert!(root.join(path).exists(), "{path} is listed but not there");
        }
    }

    #[test]
    fn bench_harness_is_panic_free_except_the_loc_measured_apps() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            lint("crates/bench/src/main.rs", src),
            vec!["no-panic-paths"]
        );
        assert!(lint("crates/bench/src/apps/udp_app.rs", src).is_empty());
    }

    #[test]
    fn undocumented_unsafe_in_whitelisted_crate() {
        let rules = lint(
            "crates/queues/src/ring.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        );
        assert_eq!(rules, vec!["safety-comment"]);
    }

    #[test]
    fn documented_unsafe_is_clean() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: caller guarantees exclusivity.\n    unsafe { *p = 0 };\n}\n";
        assert!(lint("crates/memory/src/pool.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_whitelist_is_flagged() {
        let rules = lint(
            "crates/core/src/api.rs",
            "// SAFETY: documented but still not allowed here.\nfn f() { unsafe {} }\n",
        );
        assert_eq!(rules, vec!["unsafe-whitelist"]);
    }

    #[test]
    fn unwrap_in_core_is_flagged_outside_tests_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let rules = lint("crates/core/src/api.rs", src);
        assert_eq!(rules, vec!["no-panic-paths"]);
    }

    #[test]
    fn cfg_all_test_modules_are_test_spans() {
        let src = "#[cfg(all(test, not(loom)))]\nmod tests {\n    fn g() { panic!(\"x\") }\n}\n";
        assert!(lint("crates/fabric/src/wire.rs", src).is_empty());
    }

    #[test]
    fn panic_macro_in_fabric_is_flagged() {
        let rules = lint("crates/fabric/src/link.rs", "fn f() { panic!(\"boom\") }\n");
        assert_eq!(rules, vec!["no-panic-paths"]);
    }

    #[test]
    fn telemetry_and_insanectl_are_panic_free_zones() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            lint("crates/telemetry/src/hist.rs", src),
            vec!["no-panic-paths"]
        );
        assert_eq!(
            lint("tools/insanectl/src/main.rs", src),
            vec!["no-panic-paths"]
        );
    }

    #[test]
    fn ipc_daemon_is_a_panic_free_zone_with_unsafe_allowed() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            lint("crates/ipc/src/server.rs", src),
            vec!["no-panic-paths"]
        );
        assert_eq!(
            lint("crates/bench/src/bin/ipc_bench.rs", src),
            vec!["no-panic-paths"]
        );
        // The shared-memory mapping code needs (documented) unsafe.
        let unsafe_src = "// SAFETY: fd from the kernel.\nfn f() { unsafe {} }\n";
        assert!(lint("crates/ipc/src/sys.rs", unsafe_src).is_empty());
    }

    #[test]
    fn documented_unsafe_in_telemetry_tests_is_allowed() {
        let src = "// SAFETY: counting allocator defers to System.\nfn f() { unsafe {} }\n";
        assert!(lint("crates/telemetry/tests/overhead.rs", src).is_empty());
        // ... but stays forbidden in the telemetry library itself.
        assert_eq!(
            lint("crates/telemetry/src/hist.rs", src),
            vec!["unsafe-whitelist"]
        );
    }

    #[test]
    fn unwrap_or_and_expect_like_idents_are_not_flagged() {
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g(expected: u8) -> u8 { expected }\n";
        assert!(lint("crates/core/src/api.rs", src).is_empty());
    }

    #[test]
    fn slot_token_literal_outside_memory() {
        let rules = lint(
            "crates/core/src/api.rs",
            "fn forge() { let t = SlotToken { pool: 0 }; }\n",
        );
        assert!(rules.contains(&"raw-slot-arithmetic"));
    }

    #[test]
    fn slot_token_is_nameable_only_at_the_process_boundary() {
        let src = "fn ship(token: SlotToken) {}\n";
        for home in ["crates/memory/src/pool.rs", "crates/ipc/src/client.rs"] {
            assert!(lint(home, src).is_empty(), "{home}");
        }
        for elsewhere in ["crates/core/src/api.rs", "crates/fabric/src/wire.rs"] {
            assert_eq!(lint(elsewhere, src), vec!["raw-slot-arithmetic"]);
        }
        // Tests anywhere may name it; nobody outside the pool may forge it.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(token: SlotToken) {}\n}\n";
        assert!(lint("crates/core/src/api.rs", in_test).is_empty());
        let forged = "fn f() { let t = SlotToken { pool: 0 }; }\n";
        assert_eq!(
            lint("crates/ipc/src/client.rs", forged),
            vec!["raw-slot-arithmetic"]
        );
    }

    #[test]
    fn host_index_arithmetic_is_fine_but_token_index_is_not() {
        let ok = "let seed = host.index() + 1;\n";
        assert!(lint("crates/fabric/src/fault.rs", ok).is_empty());
        let bad = "let addr = token.index() * slot_size;\n";
        assert_eq!(
            lint("crates/core/src/runtime/dispatch.rs", bad),
            vec!["raw-slot-arithmetic"]
        );
    }

    #[test]
    fn raw_socket_outside_plugin() {
        let rules = lint("crates/lunar/src/mom.rs", "use std::net::UdpSocket;\n");
        assert_eq!(rules, vec!["raw-socket"]);
        assert!(lint(
            "crates/fabric/src/devices/udp.rs",
            "use std::net::UdpSocket;\n"
        )
        .is_empty());
    }

    #[test]
    fn waiver_with_reason_suppresses() {
        let src = "// insane-lint: allow(no-panic-paths) -- startup config, cannot be absent\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint("crates/core/src/api.rs", src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_its_own_violation() {
        let src =
            "// insane-lint: allow(no-panic-paths)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let rules = lint("crates/core/src/api.rs", src);
        assert!(rules.contains(&"bad-waiver"));
        assert!(rules.contains(&"no-panic-paths"));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"unsafe panic!() .unwrap()\"; } // unsafe unwrap()\n";
        assert!(lint("crates/core/src/api.rs", src).is_empty());
    }

    // -- waiver-position regressions (the v1 substring hole) ---------------

    #[test]
    fn block_comment_interior_cannot_waive() {
        // v1 concatenated block-comment interiors into the line's comment
        // channel, so a stale directive inside commented-out code waived
        // live findings two lines below. The lexer's discrete comment
        // tokens reject BlockInterior directives.
        let src = "/*\ninsane-lint: allow(no-panic-paths) -- stale, commented out\n*/\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let rules = lint("crates/core/src/api.rs", src);
        assert_eq!(rules, vec!["no-panic-paths"]);
    }

    #[test]
    fn trailing_directive_after_block_comment_still_waives() {
        // v1 concatenated all of a line's comments into one string, so a
        // genuine trailing directive after `/* ... */` was corrupted and
        // silently dropped; each comment token is now parsed on its own.
        let src = "fn f(x: Option<u8>) -> u8 { /* total */ x.unwrap() } // insane-lint: allow(no-panic-paths) -- startup-only lookup\n";
        assert!(lint("crates/core/src/api.rs", src).is_empty());
    }

    #[test]
    fn string_literals_cannot_waive() {
        // The directive lives in a *string*; the `'\''` literal earlier
        // on the line is exactly the kind of token that derailed naive
        // scanners into treating string contents as code/comments.
        let src = "fn f(x: Option<u8>) -> u8 {\n    let _q = '\\''; let _s = \"// insane-lint: allow(no-panic-paths) -- nope\";\n    x.unwrap()\n}\n";
        let rules = lint("crates/core/src/api.rs", src);
        assert_eq!(rules, vec!["no-panic-paths"]);
    }

    #[test]
    fn single_line_block_comment_can_waive() {
        let src = "/* insane-lint: allow(no-panic-paths) -- bootstrap value is static */\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint("crates/core/src/api.rs", src).is_empty());
    }
}
