//! Hot-path discipline: functions reachable from `hot-path-root`
//! markers must not allocate, block, or carry implicit panic sites.
//!
//! Four rules, individually waivable:
//!
//! * `hot-path-alloc` — heap allocation: `Box::new`/`Arc::new`/...,
//!   growing-collection methods (`push`, `extend`, `collect`,
//!   `to_string`, ...) on receivers that are not per-shard scratch, and
//!   the `format!`/`vec!` macros. Receivers whose path mentions
//!   `scratch` (or the `out` out-parameter idiom) are exempt: reusing
//!   pre-sized scratch capacity is the sanctioned pattern (amortized
//!   allocation-free, see DESIGN.md §9).
//! * `hot-path-block` — blocking: `.lock()`, condvar/thread waits,
//!   `thread::sleep`, channel `recv`; and condvar notifies, which never
//!   block but are a futex syscall whether or not anyone waits.
//!   `try_lock`/`try_read`/`try_write` are non-blocking and exempt.
//! * `hot-path-rwlock` — reader-writer locks: zero-arg `.read()`/
//!   `.write()` (so `io::Read::read(&mut buf)` is not confused with
//!   `RwLock::read()`). Split out from `hot-path-block` because the fix
//!   differs: even the *uncontended* read side is an atomic RMW on a
//!   shared cache line, so read-mostly state belongs in a
//!   `SnapshotCell` (publish-on-write, one plain atomic load per poll
//!   iteration to read — DESIGN.md §12), not behind a cheaper lock.
//! * `hot-path-panic` — implicit panics: `.unwrap()`/`.expect()`,
//!   panic-family and assert macros (`debug_assert*` excluded — it
//!   compiles out of the release hot path), indexing/slicing, and `/`
//!   or `%` with a non-literal divisor.

use std::collections::HashSet;
use std::path::PathBuf;

use super::{method_call, receiver_path, RuleCtx};
use crate::lex::TokKind;
use crate::parse::is_keyword;
use crate::Violation;

const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "reserve",
    "reserve_exact",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "into_boxed_slice",
    "split_off",
];

/// `Qualifier::name` pairs that always allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Box", "pin"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("VecDeque", "with_capacity"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "with_capacity"),
    ("HashSet", "with_capacity"),
];

const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Blocking zero-arg methods (lock acquisition, channel receives, and
/// waits). `recv` is the channel receive: the datapath's non-blocking
/// socket receive is spelled `try_recv()` so the two cannot be confused.
const BLOCK_METHODS_NOARG: &[&str] = &["lock", "park", "join", "recv", "recv_timeout"];

/// Reader-writer-lock acquisition, zero-arg only (`io::Read::read(&mut
/// buf)` and `io::Write::write(&buf)` take arguments and are exempt).
/// Reported as `hot-path-rwlock`, separate from `hot-path-block`: the
/// remedy is a snapshot cell, not a try_ variant.
const RWLOCK_METHODS_NOARG: &[&str] = &["read", "write"];

/// Blocking methods regardless of arity: condvar waits, and condvar
/// notifies — a `futex_wake` syscall even with nobody waiting, so a wake
/// belongs in a `cold-path` fn entered only when a waiter armed a bell
/// (DESIGN.md §6.10).
const BLOCK_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_until",
    "park_timeout",
    "notify_one",
    "notify_all",
];

/// `qualifier::name` blocking calls.
const BLOCK_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("thread", "park"),
    ("thread", "park_timeout"),
    ("thread", "yield_now"),
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn run(ctx: &RuleCtx<'_>, out: &mut Vec<Violation>) {
    for (id, prov) in ctx.hot.iter().enumerate() {
        let Some(root) = prov else { continue };
        let key = ctx.graph.fns[id];
        let file = &ctx.files[key.file];
        let f = &file.fns[key.idx];
        if !f.has_body() {
            continue;
        }
        let root_name = ctx.graph.info(ctx.files, *root).qname.clone();
        let via = if *root == id {
            format!("hot-path root `{}`", f.qname)
        } else {
            format!(
                "`{}`, reachable from hot-path root `{}`",
                f.qname, root_name
            )
        };
        check_body(file, f.body.0, f.body.1, &via, out);
    }
}

fn check_body(
    file: &crate::parse::ParsedFile,
    start: usize,
    end: usize,
    via: &str,
    out: &mut Vec<Violation>,
) {
    let tokens = &file.tokens;
    // One finding per (rule, line, detail) keeps repeated sites on a
    // line (e.g. `a[i] + b[j]`) from flooding the report.
    let mut seen: HashSet<(&'static str, u32, String)> = HashSet::new();
    let mut push = |seen: &mut HashSet<(&'static str, u32, String)>,
                    rule: &'static str,
                    line: u32,
                    what: &str,
                    hint: &str| {
        if seen.insert((rule, line, what.to_string())) {
            out.push(Violation {
                file: PathBuf::from(&file.file),
                line: line as usize,
                rule,
                message: format!("{what} in {via}; {hint}"),
            });
        }
    };

    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];

        // Macros.
        if t.kind == TokKind::Ident && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            let name = t.text.as_str();
            if ALLOC_MACROS.contains(&name) {
                push(
                    &mut seen,
                    "hot-path-alloc",
                    t.line,
                    &format!("`{name}!` allocates"),
                    "build into per-shard scratch instead",
                );
            }
            if PANIC_MACROS.contains(&name) {
                push(
                    &mut seen,
                    "hot-path-panic",
                    t.line,
                    &format!("`{name}!` can panic"),
                    "return a typed error or restructure the invariant",
                );
            }
            i += 2;
            continue;
        }

        // Method calls.
        if let Some(open) = method_call(tokens, i) {
            let name = t.text.as_str();
            let zero_arg = tokens.get(open + 1).is_some_and(|n| n.is_punct(')'));
            if ALLOC_METHODS.contains(&name) {
                let (segs, _) = receiver_path(tokens, i - 1);
                let scratchy = segs.iter().any(|s| s.contains("scratch") || s == "out");
                if !scratchy {
                    push(
                        &mut seen,
                        "hot-path-alloc",
                        t.line,
                        &format!("`.{name}(...)` may (re)allocate on `{}`", segs.join(".")),
                        "route through per-shard scratch or pre-size the buffer",
                    );
                }
            }
            if (BLOCK_METHODS_NOARG.contains(&name) && zero_arg) || BLOCK_METHODS.contains(&name) {
                push(
                    &mut seen,
                    "hot-path-block",
                    t.line,
                    &format!("`.{name}(...)` can block or enter the kernel"),
                    "use a try_ variant or move the wait (or wake) off the hot path",
                );
            }
            if RWLOCK_METHODS_NOARG.contains(&name) && zero_arg {
                push(
                    &mut seen,
                    "hot-path-rwlock",
                    t.line,
                    &format!("`.{name}()` acquires a reader-writer lock"),
                    "publish the state through a SnapshotCell and read the snapshot instead",
                );
            }
            if PANIC_METHODS.contains(&name) {
                push(
                    &mut seen,
                    "hot-path-panic",
                    t.line,
                    &format!("`.{name}(...)` panics on the error path"),
                    "return a typed error",
                );
            }
            i += 1;
            continue;
        }

        // Path calls `Qualifier::name(`.
        if t.kind == TokKind::Ident
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let q = tokens[i - 3].text.as_str();
            let name = t.text.as_str();
            if ALLOC_PATHS.contains(&(q, name)) {
                push(
                    &mut seen,
                    "hot-path-alloc",
                    t.line,
                    &format!("`{q}::{name}(...)` allocates"),
                    "hoist the allocation out of the hot path (scratch or setup time)",
                );
            }
            if BLOCK_PATHS.contains(&(q, name)) {
                push(
                    &mut seen,
                    "hot-path-block",
                    t.line,
                    &format!("`{q}::{name}(...)` blocks or yields to the OS"),
                    "hot shards must stay on-CPU; move the wait to the idle loop",
                );
            }
        }

        // Indexing / slicing: `expr[...]`.
        if t.is_punct('[') && i > start {
            let prev = &tokens[i - 1];
            let indexable = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexable {
                push(
                    &mut seen,
                    "hot-path-panic",
                    t.line,
                    "indexing/slicing can panic out of bounds",
                    "use get()/get_mut() or prove the bound with a guard",
                );
            }
        }

        // Division / modulo with a non-literal divisor.
        if (t.is_punct('/') || t.is_punct('%')) && i > start {
            let prev = &tokens[i - 1];
            let binary = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.kind == TokKind::Num;
            if binary {
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|n| n.is_punct('=')) {
                    j += 1; // `/=` / `%=` compound assignment
                }
                let literal_divisor = tokens.get(j).is_some_and(|n| n.kind == TokKind::Num);
                if !literal_divisor {
                    push(
                        &mut seen,
                        "hot-path-panic",
                        t.line,
                        &format!("`{}` with a non-literal divisor can panic", t.text),
                        "guard the zero case or use checked_div/checked_rem",
                    );
                }
            }
        }

        i += 1;
    }
}
