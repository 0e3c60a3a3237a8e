//! Lightweight item parser over the [`crate::lex`] token stream.
//!
//! Recovers the structure the analyzer needs — functions with their
//! signature/body token ranges, enclosing `impl` type and module path,
//! `#[cfg(test)]`/`#[test]` spans — plus the `insane-lint:` marker
//! directives attached to each function from the contiguous comment
//! block directly above it:
//!
//! * `// insane-lint: hot-path-root` — the function is a hot-path
//!   reachability root (shard poll loop, lend/emit/consume, scheduler
//!   next/tx drain, queue push/pop).
//! * `// insane-lint: cold-path -- <reason>` — reachability stops here:
//!   the function is control-plane/failover code that hot callers only
//!   enter on rare transitions.
//! * `// insane-lint: allow-fn(<rule>) -- <reason>` — waives `<rule>`
//!   for the whole function body (line waivers stay available for
//!   single sites).

use crate::lex::{Comment, CommentKind, Lexed, TokKind, Token};

/// A directive parsed from a single comment token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    HotRoot,
    ColdPath { reason_ok: bool },
    AllowFn { rule: String, reason_ok: bool },
    Allow { rule: String, reason_ok: bool },
}

/// A function-scoped waiver (from `allow-fn`).
#[derive(Debug, Clone)]
pub struct FnWaiver {
    pub rule: String,
    /// Line the directive sits on (for bad-waiver reporting).
    pub line: u32,
    pub reason_ok: bool,
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Display path: `module::Type::name` (best effort).
    pub qname: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Last line covered by the body (== `line` for bodyless decls).
    pub end_line: u32,
    /// Token range of the signature: `[fn kw, body `{`)`.
    pub sig: (usize, usize),
    /// Token range of the body, exclusive of its braces. `(0, 0)` when
    /// the function has no body (trait method declaration).
    pub body: (usize, usize),
    /// Inside `#[cfg(test)]` / `#[test]` / an integration-test file.
    pub is_test: bool,
    pub hot_root: bool,
    pub cold: bool,
    pub waivers: Vec<FnWaiver>,
    /// `Some(TypeName)` when declared inside an `impl` block.
    pub impl_type: Option<String>,
    /// Enclosing in-file module names, outermost first.
    pub module: Vec<String>,
}

impl FnInfo {
    pub fn has_body(&self) -> bool {
        self.body.1 > self.body.0
    }

    pub fn covers_line(&self, line: usize) -> bool {
        line >= self.line as usize && line <= self.end_line as usize
    }
}

/// One parsed file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Repo-relative `/`-separated path.
    pub file: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnInfo>,
}

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses a directive out of one comment token. Doc-comment markers
/// (`///`, `//!`) leave a leading `/` or `!` in the text; strip them.
/// `BlockInterior` comments never yield directives — that is the
/// waiver-position fix: commented-out code inside `/* ... */` (which may
/// itself contain old directives) must not waive anything.
pub fn directive_of(comment: &Comment) -> Option<Directive> {
    if comment.kind == CommentKind::BlockInterior {
        return None;
    }
    let text = comment
        .text
        .trim()
        .trim_start_matches(['/', '!'])
        .trim_start();
    let rest = text.strip_prefix("insane-lint:")?.trim_start();
    if rest == "hot-path-root" || rest.starts_with("hot-path-root ") {
        return Some(Directive::HotRoot);
    }
    if let Some(after) = rest.strip_prefix("cold-path") {
        return Some(Directive::ColdPath {
            reason_ok: reason_ok(after),
        });
    }
    if let Some(inner) = rest.strip_prefix("allow-fn(") {
        let close = inner.find(')')?;
        return Some(Directive::AllowFn {
            rule: inner[..close].trim().to_string(),
            reason_ok: reason_ok(&inner[close + 1..]),
        });
    }
    if let Some(inner) = rest.strip_prefix("allow(") {
        let close = inner.find(')')?;
        return Some(Directive::Allow {
            rule: inner[..close].trim().to_string(),
            reason_ok: reason_ok(&inner[close + 1..]),
        });
    }
    None
}

fn reason_ok(after: &str) -> bool {
    let after = after.trim();
    let reason = after
        .strip_prefix("--")
        .or_else(|| after.strip_prefix(':'))
        .map(str::trim)
        .unwrap_or("");
    reason.len() >= 3
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *inside* the scope's body.
    body_depth: i32,
    test: bool,
}

enum ScopeKind {
    Mod(String),
    Impl(String),
    Fn(usize),
}

/// Parses one lexed file. `test_file` marks integration-test/bench/
/// example files whose every function counts as test code.
pub fn parse_file(rel: &str, lexed: Lexed, test_file: bool) -> ParsedFile {
    let Lexed { tokens, comments } = lexed;
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_test = false;
    let mut pending_attr_line: Option<u32> = None;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];

        // Attributes: `#[...]` / `#![...]`.
        if t.is_punct('#') {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                if pending_attr_line.is_none() {
                    pending_attr_line = Some(t.line);
                }
                let mut bdepth = 0i32;
                while j < tokens.len() {
                    if tokens[j].is_punct('[') {
                        bdepth += 1;
                    } else if tokens[j].is_punct(']') {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                if attr_is_test(&tokens[i..=j.min(tokens.len() - 1)]) {
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
        }

        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while scopes.last().is_some_and(|s| s.body_depth > depth) {
                if let Some(Scope {
                    kind: ScopeKind::Fn(fx),
                    ..
                }) = scopes.pop()
                {
                    fns[fx].body.1 = i;
                    fns[fx].end_line = t.line;
                }
            }
            i += 1;
            continue;
        }

        let in_fn = matches!(
            scopes.last(),
            Some(Scope {
                kind: ScopeKind::Fn(_),
                ..
            })
        );

        if !in_fn && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "mod" => {
                    if let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        if tokens.get(i + 2).is_some_and(|b| b.is_punct('{')) {
                            let inherited = scopes.iter().any(|s| s.test);
                            scopes.push(Scope {
                                kind: ScopeKind::Mod(name_tok.text.clone()),
                                body_depth: depth + 1,
                                test: pending_test || inherited,
                            });
                            pending_test = false;
                            pending_attr_line = None;
                            depth += 1;
                            i += 3;
                            continue;
                        }
                    }
                    pending_test = false;
                    pending_attr_line = None;
                    i += 1;
                    continue;
                }
                "impl" => {
                    // Scan to the body `{` (or `;` for bodyless impls),
                    // extracting the implemented-on type: the last path
                    // segment at angle depth 0, after `for` if present.
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    let mut ty = String::new();
                    while j < tokens.len() {
                        let tj = &tokens[j];
                        if tj.is_punct('{') || tj.is_punct(';') {
                            break;
                        }
                        if tj.is_punct('<') {
                            angle += 1;
                        } else if tj.is_punct('>') {
                            angle -= 1;
                        } else if angle <= 0 && tj.kind == TokKind::Ident {
                            if tj.text == "for" {
                                ty.clear();
                            } else if tj.text != "where" && !is_keyword(&tj.text) {
                                ty = tj.text.clone();
                            }
                        }
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|b| b.is_punct('{')) {
                        let inherited = scopes.iter().any(|s| s.test);
                        scopes.push(Scope {
                            kind: ScopeKind::Impl(ty),
                            body_depth: depth + 1,
                            test: pending_test || inherited,
                        });
                        depth += 1;
                        j += 1;
                    }
                    pending_test = false;
                    pending_attr_line = None;
                    i = j;
                    continue;
                }
                "fn" => {
                    if let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let name = name_tok.text.clone();
                        let fn_line = t.line;
                        // Signature runs to the body `{` or a `;`.
                        let mut j = i + 2;
                        let mut paren = 0i32;
                        while j < tokens.len() {
                            let tj = &tokens[j];
                            if tj.is_punct('(') {
                                paren += 1;
                            } else if tj.is_punct(')') {
                                paren -= 1;
                            } else if paren == 0 && (tj.is_punct('{') || tj.is_punct(';')) {
                                break;
                            }
                            j += 1;
                        }
                        let sig = (i, j);
                        let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                            ScopeKind::Impl(t) if !t.is_empty() => Some(t.clone()),
                            _ => None,
                        });
                        let module: Vec<String> = scopes
                            .iter()
                            .filter_map(|s| match &s.kind {
                                ScopeKind::Mod(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        let is_test = test_file || pending_test || scopes.iter().any(|s| s.test);
                        let block_first_line = pending_attr_line.unwrap_or(fn_line);
                        let (hot_root, cold, waivers) = fn_markers(&comments, block_first_line);
                        let mut qname = String::new();
                        for m in &module {
                            qname.push_str(m);
                            qname.push_str("::");
                        }
                        if let Some(ty) = &impl_type {
                            qname.push_str(ty);
                            qname.push_str("::");
                        }
                        qname.push_str(&name);

                        let fx = fns.len();
                        let has_body = tokens.get(j).is_some_and(|b| b.is_punct('{'));
                        fns.push(FnInfo {
                            name,
                            qname,
                            line: fn_line,
                            end_line: tokens.get(j).map(|b| b.line).unwrap_or(fn_line),
                            sig,
                            body: if has_body { (j + 1, j + 1) } else { (0, 0) },
                            is_test,
                            hot_root,
                            cold,
                            waivers,
                            impl_type,
                            module,
                        });
                        pending_test = false;
                        pending_attr_line = None;
                        if has_body {
                            scopes.push(Scope {
                                kind: ScopeKind::Fn(fx),
                                body_depth: depth + 1,
                                test: is_test,
                            });
                            depth += 1;
                            i = j + 1;
                        } else {
                            i = j;
                        }
                        continue;
                    }
                }
                // Other item keywords consume any pending test attribute
                // (e.g. `#[cfg(test)] use ...;` / `struct ...`).
                "struct" | "enum" | "trait" | "union" | "use" | "static" | "const" | "type"
                | "macro_rules" => {
                    pending_test = false;
                    pending_attr_line = None;
                }
                _ => {}
            }
        }
        i += 1;
    }

    // Close any still-open fn bodies (unbalanced braces at EOF).
    while let Some(s) = scopes.pop() {
        if let ScopeKind::Fn(fx) = s.kind {
            fns[fx].body.1 = tokens.len();
            fns[fx].end_line = tokens.last().map(|t| t.line).unwrap_or(fns[fx].line);
        }
    }

    ParsedFile {
        file: rel.to_string(),
        tokens,
        comments,
        fns,
    }
}

/// Does the attribute token slice (`#` .. `]`) mark test-only code?
/// Matches `#[test]`, `#[should_panic...]`, and any `#[cfg(...)]` whose
/// arguments contain the bare ident `test` (so `cfg(all(test, ...))`
/// counts but `cfg(feature = "test-util")` does not — feature names are
/// string literals, not idents).  `#[cfg(loom)]` counts too: code built
/// only for the model checker never ships, so it is no more on a hot
/// path than a unit test is (`cfg(not(loom))` is the shipped side and
/// does not count).
fn attr_is_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") | Some(&"should_panic") => true,
        Some(&"cfg") => {
            idents[1..].contains(&"test")
                || (idents[1..].contains(&"loom") && !idents[1..].contains(&"not"))
        }
        _ => false,
    }
}

/// Collects `hot-path-root` / `cold-path` / `allow-fn` markers from the
/// contiguous own-line comment block ending on `first_line - 1` (where
/// `first_line` is the fn's first attribute line, or the `fn` keyword
/// line when there are no attributes).
fn fn_markers(comments: &[Comment], first_line: u32) -> (bool, bool, Vec<FnWaiver>) {
    let mut hot_root = false;
    let mut cold = false;
    let mut waivers = Vec::new();
    let mut expect = first_line.saturating_sub(1);
    // Walk the comment list backwards, consuming the contiguous block.
    for c in comments.iter().rev() {
        if c.line > expect || expect == 0 {
            continue;
        }
        if c.line < expect {
            break;
        }
        if c.own_line {
            match directive_of(c) {
                Some(Directive::HotRoot) => hot_root = true,
                Some(Directive::ColdPath { reason_ok }) => {
                    cold = true;
                    // A cold-path marker without a reason is still
                    // honoured for reachability but surfaces as a
                    // bad-waiver via the rules layer; record it.
                    waivers.push(FnWaiver {
                        rule: "cold-path".to_string(),
                        line: c.line,
                        reason_ok,
                    });
                }
                Some(Directive::AllowFn { rule, reason_ok }) => {
                    waivers.push(FnWaiver {
                        rule,
                        line: c.line,
                        reason_ok,
                    });
                }
                _ => {}
            }
            expect = c.line.saturating_sub(1);
        } else {
            break;
        }
    }
    (hot_root, cold, waivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", lex(src), false)
    }

    #[test]
    fn finds_fns_with_impl_and_module_context() {
        let src = "mod inner {\n  struct S;\n  impl S {\n    fn m(&self) -> u8 { 1 }\n  }\n  fn free() {}\n}\nfn top() {}\n";
        let p = parse(src);
        let names: Vec<_> = p.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, vec!["inner::S::m", "inner::free", "top"]);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("S"));
        assert!(p.fns[0].has_body());
    }

    #[test]
    fn impl_trait_for_type_records_the_type() {
        let p = parse("impl Scheduler for FifoScheduler {\n  fn next(&mut self) {}\n}\n");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("FifoScheduler"));
    }

    #[test]
    fn cfg_test_mod_and_test_attr_mark_fns() {
        let src =
            "#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n#[test]\nfn unit() {}\nfn real() {}\n";
        let p = parse(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("helper").is_test);
        assert!(by_name("unit").is_test);
        assert!(!by_name("real").is_test);
    }

    #[test]
    fn cfg_loom_code_never_ships_but_cfg_not_loom_does() {
        let src = "#[cfg(loom)]\nmod backing {\n  fn model() {}\n}\n#[cfg(not(loom))]\nmod backing {\n  fn shipped() {}\n}\n";
        let p = parse(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("model").is_test);
        assert!(!by_name("shipped").is_test);
    }

    #[test]
    fn markers_attach_through_attributes() {
        let src = "// insane-lint: hot-path-root\n#[inline]\nfn poll() {}\n\n// insane-lint: cold-path -- failover only\nfn divert() {}\n// insane-lint: allow-fn(hot-path-panic) -- indices proven in bounds\nfn drain() {}\n";
        let p = parse(src);
        assert!(p.fns[0].hot_root);
        assert!(p.fns[1].cold);
        assert_eq!(p.fns[2].waivers[0].rule, "hot-path-panic");
        assert!(p.fns[2].waivers[0].reason_ok);
    }

    #[test]
    fn marker_block_must_be_contiguous() {
        let src = "// insane-lint: hot-path-root\n\nfn not_rooted() {}\n";
        let p = parse(src);
        assert!(!p.fns[0].hot_root);
    }

    #[test]
    fn block_interior_comments_never_carry_directives() {
        let c = Comment {
            line: 3,
            text: " insane-lint: allow(no-panic-paths) -- stale".to_string(),
            kind: CommentKind::BlockInterior,
            own_line: true,
        };
        assert_eq!(directive_of(&c), None);
    }

    #[test]
    fn bodyless_trait_methods_are_recorded() {
        let p = parse("trait T {\n  fn decl(&self);\n  fn dflt(&self) -> u8 { 2 }\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert!(!p.fns[0].has_body());
        assert!(p.fns[1].has_body());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("type Cb = fn(u8) -> u8;\nfn real(cb: Cb) {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }
}
