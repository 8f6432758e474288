//! The rule engine: determinism (D) and robustness (R) token-pattern
//! rules, plus structural (S) checks over the workspace layout.
//!
//! Rule names double as waiver keys: a violation of rule `map-iter` is
//! suppressed by `// tidy: allow(map-iter) — <reason>` on the same line or
//! the line(s) directly above. A waiver without a reason is itself a
//! violation — the contract is "explain the exception", not "silence it".

use std::collections::BTreeSet;

use crate::context::FileContext;
use crate::lexer::{lex, Lexed, TokenKind};

/// D1: no wall-clock time sources in simulation crates.
pub const WALL_CLOCK: &str = "wall-clock";
/// D1: no OS threads in simulation crates.
pub const REAL_THREAD: &str = "real-thread";
/// D1: no blocking sync primitives in simulation crates.
pub const REAL_SYNC: &str = "real-sync";
/// D2: no iteration over hash-ordered collections in simulation crates.
pub const MAP_ITER: &str = "map-iter";
/// D3: no ambient (unseeded) randomness outside `swf-simcore::rng`.
pub const AMBIENT_RNG: &str = "ambient-rng";
/// R1: `unwrap()/expect()/panic!` sites are counted against a baseline.
pub const UNWRAP: &str = "unwrap";
/// S1: every crate gates `missing_docs` and has crate-level docs.
pub const CRATE_DOCS: &str = "crate-docs";
/// A1: no `.await` while a `RefCell` borrow / lock guard is live.
pub const AWAIT_BORROW: &str = "await-borrow";
/// D4: no float accumulation over hash-ordered iterators.
pub const FLOAT_ACCUM: &str = "float-accum";
/// D4: no `partial_cmp` comparators in sorts — use `total_cmp`.
pub const PARTIAL_CMP_SORT: &str = "partial-cmp-sort";
/// C1: no truncating `as` casts on length/size expressions.
pub const TRUNC_CAST: &str = "trunc-cast";
/// C2: no unchecked `*`/`+` on length/size expressions.
pub const UNCHECKED_ARITH: &str = "unchecked-arith";
/// M1: every emitted metric name must appear in `metrics.registry`.
pub const METRIC_UNKNOWN: &str = "metric-unknown";
/// M2: every `metrics.registry` entry must be emitted somewhere.
pub const METRIC_DEAD: &str = "metric-dead";
/// M3: metric names carry a dot-separated subsystem prefix.
pub const METRIC_PREFIX: &str = "metric-prefix";
/// L1: cross-crate dependencies must respect the declared layer order.
pub const LAYERING: &str = "layering";
/// Meta-rule: a waiver comment must carry a reason.
pub const WAIVER_REASON: &str = "waiver-reason";

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (doubles as the waiver key).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

impl Violation {
    /// Render as `file:line: [rule] message` (the non-JSON output format).
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Methods whose receiver order leaks into program behaviour when called
/// on a hash-ordered collection.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Chain links that preserve "this is still the same collection": a hash
/// map reached through these still iterates in hash order.
const PASSTHROUGH_METHODS: &[&str] = &["borrow", "borrow_mut", "clone", "as_ref", "as_mut", "lock"];

/// Scan one simulation-crate source file (already lexed) and return every
/// D-rule finding plus the R1 unwrap count. `rel_path` is workspace
/// relative and used verbatim in diagnostics.
pub struct FileScan {
    /// Non-waived D-rule violations (plus waiver-reason findings).
    pub violations: Vec<Violation>,
    /// Number of non-test `unwrap()/expect()/panic!`-family sites that are
    /// not individually waived (compared against the baseline by the
    /// caller).
    pub unwrap_count: usize,
    /// Lines of the counted R1 sites (for `--list-unwraps` style output
    /// and pointed diagnostics when a file exceeds its baseline).
    pub unwrap_lines: Vec<u32>,
    /// Literal metric names emitted by this file (input to the M-rule
    /// registry cross-check, which needs the whole-tree view).
    pub metric_uses: Vec<crate::rules_metrics::MetricUse>,
}

/// Options controlling which rule families apply to a file.
#[derive(Clone, Copy, Debug)]
pub struct ScanOptions {
    /// Apply D3 (the one file implementing the seeded RNG is exempt).
    pub check_ambient_rng: bool,
    /// Apply the C-rules (checked arithmetic) — gated to codec/records/
    /// registry-style paths where size arithmetic feeds wire formats.
    pub check_arith: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            check_ambient_rng: true,
            check_arith: false,
        }
    }
}

/// Run the token-pattern rules over one file.
pub fn scan_file(rel_path: &str, source: &str, opts: ScanOptions) -> FileScan {
    let lexed = lex(source);
    let ctx = FileContext::build(&lexed);
    let mut violations = Vec::new();

    let push = |rule: &'static str, line: u32, message: String, out: &mut Vec<Violation>| {
        if ctx.is_test_line(line) {
            return;
        }
        match ctx.is_waived(rule, line) {
            Some(w) if w.has_reason => {}
            Some(w) => out.push(Violation {
                rule: WAIVER_REASON,
                file: rel_path.to_string(),
                line: w.line,
                message: format!(
                    "waiver `tidy: allow({rule})` needs a reason: \
                     `// tidy: allow({rule}) — <why this is sound>`"
                ),
            }),
            None => out.push(Violation {
                rule,
                file: rel_path.to_string(),
                line,
                message,
            }),
        }
    };

    scan_d1(&lexed, &mut |rule, line, msg| {
        push(rule, line, msg, &mut violations)
    });
    scan_map_iter(&lexed, &mut |rule, line, msg| {
        push(rule, line, msg, &mut violations)
    });
    if opts.check_ambient_rng {
        scan_ambient_rng(&lexed, &mut |rule, line, msg| {
            push(rule, line, msg, &mut violations)
        });
    }
    crate::rules_async::scan_await_borrow(&lexed, &mut |line, msg| {
        push(AWAIT_BORROW, line, msg, &mut violations)
    });
    crate::rules_float::scan_float(&lexed, &mut |rule, line, msg| {
        push(rule, line, msg, &mut violations)
    });
    if opts.check_arith {
        crate::rules_arith::scan_arith(&lexed, &mut |rule, line, msg| {
            push(rule, line, msg, &mut violations)
        });
    }
    let metric_uses = crate::rules_metrics::scan_metrics(&lexed, &ctx, &mut |rule, line, msg| {
        push(rule, line, msg, &mut violations)
    });

    let mut unwrap_lines = Vec::new();
    scan_unwraps(&lexed, &mut |line| {
        if !ctx.is_test_line(line) && ctx.is_waived(UNWRAP, line).is_none() {
            unwrap_lines.push(line);
        }
    });

    // A single construct can trip two passes of the same rule (e.g. a
    // `for` loop whose header also contains `.keys()`); report it once.
    let mut seen = BTreeSet::new();
    violations.retain(|v| seen.insert((v.rule, v.line)));

    FileScan {
        violations,
        unwrap_count: unwrap_lines.len(),
        unwrap_lines,
        metric_uses,
    }
}

/// D1: wall clocks, OS threads, blocking locks.
fn scan_d1(lexed: &Lexed, emit: &mut dyn FnMut(&'static str, u32, String)) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.matches(i, &["std", ":", ":", "time", ":", ":", "Instant"])
            || lexed.matches(i, &["Instant", ":", ":", "now"])
        {
            emit(
                WALL_CLOCK,
                toks[i].line,
                "wall-clock `Instant` in a simulation crate — use `swf_simcore::now()` \
                 (virtual time) instead"
                    .into(),
            );
        }
        if lexed.matches(i, &["std", ":", ":", "time", ":", ":", "SystemTime"])
            || lexed.matches(i, &["SystemTime", ":", ":", "now"])
        {
            emit(
                WALL_CLOCK,
                toks[i].line,
                "wall-clock `SystemTime` in a simulation crate — use `swf_simcore::now()` \
                 (virtual time) instead"
                    .into(),
            );
        }
        if lexed.matches(i, &["std", ":", ":", "thread"]) {
            emit(
                REAL_THREAD,
                toks[i].line,
                "`std::thread` in a simulation crate — the executor is single-threaded; \
                 use `swf_simcore::spawn` for concurrency"
                    .into(),
            );
        }
        for prim in ["Mutex", "RwLock"] {
            if lexed.matches(i, &["std", ":", ":", "sync", ":", ":", prim]) {
                emit(
                    REAL_SYNC,
                    toks[i].line,
                    format!(
                        "`std::sync::{prim}` in a simulation crate — single-threaded \
                         simulation state belongs in `RefCell`/`Cell`"
                    ),
                );
            }
        }
        // `use std::sync::{..., Mutex, ...}` — flag the braced import form
        // the path patterns above cannot see.
        if lexed.matches(i, &["use", "std", ":", ":", "sync", ":", ":", "{"]) {
            let mut depth = 1;
            let mut j = i + 8;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    "Mutex" | "RwLock" if toks[j].kind == TokenKind::Ident => {
                        emit(
                            REAL_SYNC,
                            toks[j].line,
                            format!(
                                "`std::sync::{}` imported in a simulation crate — \
                                 single-threaded simulation state belongs in `RefCell`/`Cell`",
                                toks[j].text
                            ),
                        );
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if lexed.matches(i, &["use", "std", ":", ":", "time", ":", ":", "{"]) {
            let mut depth = 1;
            let mut j = i + 8;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    "Instant" | "SystemTime" if toks[j].kind == TokenKind::Ident => {
                        emit(
                            WALL_CLOCK,
                            toks[j].line,
                            format!(
                                "wall-clock `{}` imported in a simulation crate — use \
                                 `swf_simcore::now()` (virtual time) instead",
                                toks[j].text
                            ),
                        );
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// D3: ambient randomness.
fn scan_ambient_rng(lexed: &Lexed, emit: &mut dyn FnMut(&'static str, u32, String)) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" => true,
            "RandomState" | "DefaultHasher" => true,
            "random" => lexed.matches(i.saturating_sub(3), &["rand", ":", ":", "random"]),
            _ => false,
        };
        if hit {
            emit(
                AMBIENT_RNG,
                t.line,
                format!(
                    "ambient randomness `{}` — all randomness must flow from a seeded \
                     `swf_simcore::DetRng`",
                    t.text
                ),
            );
        }
    }
}

/// D2: iteration over hash-ordered collections.
///
/// Two passes: (1) collect the names of bindings, fields and type aliases
/// whose declared type mentions `HashMap`/`HashSet`; (2) flag `for`-loops
/// over those names and method chains from them that reach an
/// order-observing method (`iter`, `keys`, `values`, `drain`, ...).
fn scan_map_iter(lexed: &Lexed, emit: &mut dyn FnMut(&'static str, u32, String)) {
    let toks = &lexed.tokens;
    let hash_names = collect_hash_names(lexed);
    if hash_names.is_empty() {
        return;
    }

    // Pass 2a: `for <pat> in <expr> {` where expr mentions a hash name.
    for i in 0..toks.len() {
        if !lexed.is_ident(i, "for") || lexed.is_punct(i + 1, "<") {
            continue;
        }
        if let Some((name, line)) = for_loop_hash_source(lexed, i, &hash_names) {
            emit(
                MAP_ITER,
                line,
                format!(
                    "`for` loop over hash-ordered `{name}` — iteration order \
                     depends on the hasher; use BTreeMap/BTreeSet or collect \
                     & sort first"
                ),
            );
        }
    }

    // Pass 2b: method chains `name.<passthrough>*.<iter-method>(`.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !hash_names.contains(&t.text) {
            continue;
        }
        // Don't re-fire on the declaration site `name: HashMap<...>`.
        if lexed.is_punct(i + 1, ":") {
            continue;
        }
        let mut j = i + 1;
        loop {
            if !lexed.is_punct(j, ".") {
                break;
            }
            let Some(m) = toks.get(j + 1) else { break };
            if m.kind != TokenKind::Ident {
                break;
            }
            if ITER_METHODS.contains(&m.text.as_str()) {
                emit(
                    MAP_ITER,
                    m.line,
                    format!(
                        "`.{}()` on hash-ordered `{}` — iteration order depends on the \
                         hasher; use BTreeMap/BTreeSet or collect & sort first",
                        m.text, t.text
                    ),
                );
                break;
            }
            if !PASSTHROUGH_METHODS.contains(&m.text.as_str()) {
                break;
            }
            // Skip the call parens of the passthrough method.
            let mut k = j + 2;
            if lexed.is_punct(k, "(") {
                let mut depth = 1;
                k += 1;
                while k < toks.len() && depth > 0 {
                    match toks[k].text.as_str() {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
            j = k;
        }
    }
}

/// If the `for` loop headed at token `i` iterates an expression mentioning
/// one of `hash_names`, return that name and its line.
pub(crate) fn for_loop_hash_source(
    lexed: &Lexed,
    i: usize,
    hash_names: &BTreeSet<String>,
) -> Option<(String, u32)> {
    let toks = &lexed.tokens;
    // Find `in` at depth 0, then scan the iterated expression up to the
    // loop body `{` at depth 0.
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut in_pos = None;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "in" if depth == 0 && toks[j].kind == TokenKind::Ident => {
                in_pos = Some(j);
                break;
            }
            ";" => return None,
            _ => {}
        }
        j += 1;
    }
    let in_pos = in_pos?;
    let mut depth = 0i32;
    let mut j = in_pos + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "{" if depth == 0 => return None,
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {
                if t.kind == TokenKind::Ident && hash_names.contains(&t.text) {
                    return Some((t.text.clone(), t.line));
                }
            }
        }
        j += 1;
    }
    None
}

/// Collect the names of bindings, fields and type aliases whose declared
/// or constructed type mentions `HashMap`/`HashSet`. Shared by D2
/// (map-iter) and D4 (float-accum).
pub(crate) fn collect_hash_names(lexed: &Lexed) -> BTreeSet<String> {
    let toks = &lexed.tokens;
    let mut hash_types: BTreeSet<String> = ["HashMap", "HashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    // Type aliases: `type X = ... HashMap ... ;`
    for i in 0..toks.len() {
        if lexed.is_ident(i, "type")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && lexed.is_punct(i + 2, "=")
        {
            let alias = toks[i + 1].text.clone();
            let mut j = i + 3;
            while j < toks.len() && !lexed.is_punct(j, ";") {
                if toks[j].kind == TokenKind::Ident && hash_types.contains(&toks[j].text) {
                    hash_types.insert(alias.clone());
                    break;
                }
                j += 1;
            }
        }
    }

    let mut hash_names: BTreeSet<String> = BTreeSet::new();

    // `name: <type containing a hash type>` — struct fields, fn params,
    // and `let` ascriptions alike.
    for i in 0..toks.len() {
        let is_name = toks[i].kind == TokenKind::Ident
            && lexed.is_punct(i + 1, ":")
            && !lexed.is_punct(i + 2, ":"); // skip paths `a::b`
                                            // Also skip when preceded by ':' (i.e. this is the 2nd ':' of '::').
        let prev_colon = i > 0 && lexed.is_punct(i - 1, ":");
        if !is_name || prev_colon {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" | "=" => {
                    if depth == 0 {
                        break;
                    }
                }
                "," => {
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if t.kind == TokenKind::Ident && hash_types.contains(&t.text) {
                        hash_names.insert(toks[i].text.clone());
                        break;
                    }
                }
            }
            j += 1;
        }
    }

    // `let [mut] name = ... HashType::... ;`
    for i in 0..toks.len() {
        if !lexed.is_ident(i, "let") {
            continue;
        }
        let mut k = i + 1;
        if lexed.is_ident(k, "mut") {
            k += 1;
        }
        if toks.get(k).map(|t| t.kind) != Some(TokenKind::Ident) {
            continue;
        }
        let name = toks[k].text.clone();
        // Find `=` then scan rhs until `;` for `HashType ::`.
        let mut j = k + 1;
        let mut depth = 0i32;
        while j < toks.len() && !(depth == 0 && lexed.is_punct(j, ";")) {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {
                    if toks[j].kind == TokenKind::Ident
                        && hash_types.contains(&toks[j].text)
                        && lexed.is_punct(j + 1, ":")
                        && lexed.is_punct(j + 2, ":")
                    {
                        hash_names.insert(name.clone());
                        break;
                    }
                }
            }
            j += 1;
        }
    }

    hash_names
}

/// R1: panic-family sites.
fn scan_unwraps(lexed: &Lexed, emit: &mut dyn FnMut(u32)) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            // `.unwrap()` / `.expect(` — require the receiver dot so
            // `unwrap_or` and attribute `#[expect]` never match. A
            // `self.expect(...)` call is a domain method (parsers name
            // their token-consumption helper `expect`), not
            // `Result::expect`, so it is excluded.
            "unwrap" => i > 0 && lexed.is_punct(i - 1, ".") && lexed.is_punct(i + 1, "("),
            "expect" => {
                i > 0
                    && lexed.is_punct(i - 1, ".")
                    && lexed.is_punct(i + 1, "(")
                    && !(i > 1 && lexed.is_ident(i - 2, "self"))
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => lexed.is_punct(i + 1, "!"),
            _ => false,
        };
        if hit {
            emit(t.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        scan_file("test.rs", src, ScanOptions::default())
    }

    fn rules(scan: &FileScan) -> Vec<&'static str> {
        scan.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d1_instant_flagged() {
        let s = scan("fn f() { let t = std::time::Instant::now(); }");
        assert!(rules(&s).contains(&WALL_CLOCK));
    }

    #[test]
    fn d1_braced_sync_import_flagged() {
        let s = scan("use std::sync::{Arc, Mutex};");
        assert_eq!(rules(&s), vec![REAL_SYNC]);
        // Arc alone is fine.
        let s = scan("use std::sync::{Arc, atomic::AtomicBool};");
        assert!(s.violations.is_empty());
    }

    #[test]
    fn d2_for_loop_over_hashmap_flagged() {
        let s = scan(
            "use std::collections::HashMap;\n\
             fn f(m: HashMap<u32, u32>) { for (k, v) in &m { body(k, v); } }",
        );
        assert_eq!(rules(&s), vec![MAP_ITER]);
        assert_eq!(s.violations[0].line, 2);
    }

    #[test]
    fn d2_values_chain_through_refcell_flagged() {
        let s = scan(
            "struct S { m: Rc<RefCell<HashMap<String, u32>>> }\n\
             impl S { fn f(&self) -> Vec<u32> { self.m.borrow().values().cloned().collect() } }",
        );
        assert_eq!(rules(&s), vec![MAP_ITER]);
    }

    #[test]
    fn d2_keyed_access_is_fine() {
        let s = scan("fn f(m: &HashMap<u32, u32>, k: u32) -> Option<u32> { m.get(&k).copied() }");
        assert!(s.violations.is_empty());
    }

    #[test]
    fn d2_btreemap_is_fine() {
        let s = scan("fn f(m: &BTreeMap<u32, u32>) { for v in m.values() { use_it(v); } }");
        assert!(s.violations.is_empty());
    }

    #[test]
    fn d2_type_alias_tracked() {
        let s = scan(
            "type Index = HashMap<String, u32>;\n\
             fn f(idx: &Index) { for k in idx.keys() { go(k); } }",
        );
        assert_eq!(rules(&s), vec![MAP_ITER]);
    }

    #[test]
    fn d2_waiver_with_reason_suppresses() {
        let s = scan(
            "fn f(m: HashMap<u32, u32>) {\n\
             // tidy: allow(map-iter) — results are collected and sorted below\n\
             let mut v: Vec<_> = m.keys().collect();\n\
             v.sort(); }",
        );
        assert!(s.violations.is_empty());
    }

    #[test]
    fn d2_waiver_without_reason_is_flagged() {
        let s = scan(
            "fn f(m: HashMap<u32, u32>) {\n\
             // tidy: allow(map-iter)\n\
             for k in m.keys() { go(k); } }",
        );
        assert_eq!(rules(&s), vec![WAIVER_REASON]);
    }

    #[test]
    fn d3_thread_rng_flagged() {
        let s = scan("fn f() { let x = thread_rng().gen::<u32>(); }");
        assert_eq!(rules(&s), vec![AMBIENT_RNG]);
    }

    #[test]
    fn r1_unwrap_counted_outside_tests_only() {
        let s = scan(
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
             #[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }",
        );
        assert_eq!(s.unwrap_count, 1);
        assert_eq!(s.unwrap_lines, vec![1]);
    }

    #[test]
    fn r1_panic_family_counted() {
        let s = scan("fn f() { panic!(\"boom\"); unreachable!(); todo!(); }");
        assert_eq!(s.unwrap_count, 3);
    }

    #[test]
    fn r1_self_expect_is_a_domain_method_not_result_expect() {
        let s = scan(
            "impl P { fn go(&mut self) -> Result<(), E> { self.expect(&Tok::Close)?; Ok(()) } }",
        );
        assert_eq!(s.unwrap_count, 0);
        let s = scan("fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }");
        assert_eq!(s.unwrap_count, 1);
    }

    #[test]
    fn test_code_is_exempt_from_d_rules() {
        let s = scan(
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n \
             fn t(m: HashMap<u32,u32>) { for k in m.keys() { go(k); } }\n}",
        );
        assert!(s.violations.is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let s = scan(
            "// std::time::Instant::now() in a comment\n\
             fn f() -> &'static str { \"thread_rng() HashMap.iter()\" }",
        );
        assert!(s.violations.is_empty());
        assert_eq!(s.unwrap_count, 0);
    }
}
