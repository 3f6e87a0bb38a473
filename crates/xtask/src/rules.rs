//! The determinism + shard-safety lint rules (R1-R11) and the per-file
//! checking engine.
//!
//! Every rule reports [`Violation`]s carrying the rule id, a waiver slug
//! (where waiving is permitted), and the offending location. A waiver is
//! a comment `// lint: allow(<slug>) <reason>` on the violating line or
//! the line directly above it. The engine tracks which waivers actually
//! suppressed something: a waiver that no longer matches a live finding
//! is itself a violation (R11), so the waiver inventory can never rot.

use crate::scan::{find_keyword, find_word, has_word, scan_lines, waivers_with_reasons};
use crate::FileClass;
use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no wall-clock (`std::time::Instant` / `SystemTime`) in
    /// sim-facing crates.
    WallClock,
    /// R2: no ambient randomness (`thread_rng`, `rand::random`, `OsRng`).
    NondeterministicRng,
    /// R3: no default-hasher `HashMap`/`HashSet` in sim-facing production
    /// code.
    HashCollections,
    /// R4: no `.unwrap()`/`.expect()`/`panic!`-family in AQM/marker/port
    /// hot paths without a waiver.
    HotPathPanic,
    /// R5: no `==`/`!=` on floating-point expressions.
    FloatCmp,
    /// R6: every crate's `lib.rs` forbids unsafe code and warns on
    /// missing docs.
    LintHeaders,
    /// R7: no mutable `static`s and no `static` items with interior
    /// mutability (`Mutex`/`RwLock`/`Atomic*`/`OnceLock`/…, directly or
    /// through a struct of the same file holding such a field) in
    /// sim-facing or harness code — hidden cross-shard coupling.
    SharedState,
    /// R8: no `Rc`/`RefCell`/`Cell` in the public types of the shard
    /// boundary crates (`core`/`sim`/`net`/`aqm`/`sched`/`transport`) —
    /// these types must stay `Send` for the sharded engine.
    NonSendType,
    /// R9: no unordered-collection iteration (`drain`/`retain`/
    /// `into_iter`/…) feeding results, and no `partial_cmp(..).unwrap()`
    /// float sort comparators.
    UnorderedIteration,
    /// R10: every `std::env::var` read lives in the crate's blessed
    /// `env.rs` module (the strict-knob policy, enforced).
    EnvOutsideEnvModule,
    /// R11: a declared waiver must suppress a live violation; stale or
    /// unknown waivers fail the lint.
    StaleWaiver,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::WallClock,
    Rule::NondeterministicRng,
    Rule::HashCollections,
    Rule::HotPathPanic,
    Rule::FloatCmp,
    Rule::LintHeaders,
    Rule::SharedState,
    Rule::NonSendType,
    Rule::UnorderedIteration,
    Rule::EnvOutsideEnvModule,
    Rule::StaleWaiver,
];

impl Rule {
    /// Short rule id used in reports ("R1".."R11").
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "R1",
            Rule::NondeterministicRng => "R2",
            Rule::HashCollections => "R3",
            Rule::HotPathPanic => "R4",
            Rule::FloatCmp => "R5",
            Rule::LintHeaders => "R6",
            Rule::SharedState => "R7",
            Rule::NonSendType => "R8",
            Rule::UnorderedIteration => "R9",
            Rule::EnvOutsideEnvModule => "R10",
            Rule::StaleWaiver => "R11",
        }
    }

    /// Waiver slug accepted in `lint: allow(<slug>)` comments; `None`
    /// when the rule cannot be waived.
    pub fn waiver_slug(self) -> Option<&'static str> {
        match self {
            Rule::WallClock => Some("wall-clock"),
            Rule::NondeterministicRng => None,
            Rule::HashCollections => Some("hash-collections"),
            Rule::HotPathPanic => Some("hot-path-panic"),
            Rule::FloatCmp => Some("float-cmp"),
            Rule::LintHeaders => None,
            Rule::SharedState => Some("shared-state"),
            Rule::NonSendType => Some("non-send-type"),
            Rule::UnorderedIteration => Some("unordered-iteration"),
            Rule::EnvOutsideEnvModule => Some("env-read"),
            Rule::StaleWaiver => None,
        }
    }

    /// The rule a waiver slug belongs to, if any.
    pub fn for_slug(slug: &str) -> Option<Rule> {
        ALL_RULES
            .into_iter()
            .find(|r| r.waiver_slug() == Some(slug))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}\n    | {}",
            self.rule, self.path, self.line, self.message, self.excerpt
        )
    }
}

/// One waiver declaration found in a file, with its usage status.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number of the declaring comment.
    pub line: usize,
    /// The `lint: allow(<slug>)` slug.
    pub slug: String,
    /// Free-text justification following the slug.
    pub reason: String,
    /// Whether the waiver suppressed at least one live violation.
    pub used: bool,
}

/// Everything the engine learned about one file: surviving violations
/// (including R11 stale-waiver findings) plus the full waiver inventory.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Violations that survived waiver resolution.
    pub violations: Vec<Violation>,
    /// Every waiver declared in the file, used or not.
    pub waivers: Vec<Waiver>,
}

/// Check one file's source against every applicable rule, resolving
/// waivers and flagging stale ones (R11).
pub fn analyze_file(path: &str, source: &str, class: &FileClass) -> FileReport {
    let lines = scan_lines(source);
    let raw: Vec<&str> = source.lines().collect();

    // Waiver inventory, indexed per line for resolution.
    let mut waivers: Vec<Waiver> = Vec::new();
    let per_line: Vec<Vec<usize>> = lines
        .iter()
        .enumerate()
        .map(|(idx, l)| {
            waivers_with_reasons(&l.comment)
                .into_iter()
                .map(|(slug, reason)| {
                    waivers.push(Waiver {
                        path: path.to_string(),
                        line: idx + 1,
                        slug,
                        reason,
                        used: false,
                    });
                    waivers.len() - 1
                })
                .collect()
        })
        .collect();

    // Structs of this file that hide interior mutability in a field (R7).
    let cell_structs = interior_mutable_structs(&lines);

    // Candidate violations before waiver resolution.
    let mut candidates: Vec<Violation> = Vec::new();
    let mut push = |rule: Rule, idx: usize, message: String| {
        candidates.push(Violation {
            rule,
            path: path.to_string(),
            line: idx + 1,
            message,
            excerpt: raw.get(idx).map_or(String::new(), |s| s.trim().to_string()),
        });
    };

    for (idx, l) in lines.iter().enumerate() {
        let in_test = class.test_file || l.in_test;
        let code = l.code.as_str();

        // ── R1: wall clock ────────────────────────────────────────────
        if class.sim_facing {
            for word in ["Instant", "SystemTime"] {
                if has_word(code, word) {
                    push(
                        Rule::WallClock,
                        idx,
                        format!(
                            "`{word}` is wall-clock time; simulations must use \
                             `SimTime` from the event queue"
                        ),
                    );
                }
            }
        }

        // ── R2: ambient randomness (workspace-wide, unwaivable) ───────
        for word in ["thread_rng", "OsRng", "from_entropy"] {
            if has_word(code, word) {
                push(
                    Rule::NondeterministicRng,
                    idx,
                    format!("`{word}` draws OS entropy; all randomness must flow through the seeded `ecnsharp_sim::Rng`"),
                );
            }
        }
        if code.contains("rand::random") {
            push(
                Rule::NondeterministicRng,
                idx,
                "`rand::random` draws from an ambient generator; use the seeded `ecnsharp_sim::Rng`".to_string(),
            );
        }

        // ── R3: default-hasher collections ────────────────────────────
        if class.sim_facing && !in_test {
            for word in ["HashMap", "HashSet"] {
                if has_word(code, word) {
                    push(
                        Rule::HashCollections,
                        idx,
                        format!(
                            "`{word}` iterates in nondeterministic order; use \
                             BTreeMap/BTreeSet/Vec or waive with \
                             `// lint: allow(hash-collections) <reason>`"
                        ),
                    );
                }
            }
        }

        // ── R4: panics in hot paths ───────────────────────────────────
        if class.hot_path && !in_test {
            let panicky: [(&str, bool); 6] = [
                (".unwrap()", false),
                (".expect(", false),
                ("panic!", true),
                ("unreachable!", true),
                ("todo!", true),
                ("unimplemented!", true),
            ];
            for (tok, word_check) in panicky {
                let hit = if word_check {
                    let bare = tok.trim_end_matches('!');
                    find_word(code, bare)
                        .map(|p| code[p + bare.len()..].starts_with('!'))
                        .unwrap_or(false)
                } else {
                    code.contains(tok)
                };
                if hit {
                    push(
                        Rule::HotPathPanic,
                        idx,
                        format!(
                            "`{tok}` can abort the per-packet hot path; return a \
                             typed error, use an invariant!, or waive with \
                             `// lint: allow(hot-path-panic) <reason>`",
                            tok = tok.trim_start_matches('.')
                        ),
                    );
                }
            }
        }

        // ── R5: float equality ────────────────────────────────────────
        for op_pos in float_eq_positions(code) {
            push(
                Rule::FloatCmp,
                idx,
                format!(
                    "`{}` on a floating-point expression; compare with an \
                     epsilon or restructure",
                    &code[op_pos..op_pos + 2]
                ),
            );
        }

        // ── R7: shared mutable state (sim-facing + harness) ───────────
        if (class.sim_facing || class.harness) && !in_test {
            if let Some(pos) = find_keyword(code, "static") {
                // Only item declarations: `static X:` / `pub static X` /
                // `static mut` — not `impl Trait + 'static` (excluded by
                // the keyword scan) or `extern` blocks (none here).
                let decl = static_decl_snippet(&lines, idx, pos);
                if let Some(problem) = shared_state_problem(&decl, &cell_structs) {
                    push(
                        Rule::SharedState,
                        idx,
                        format!(
                            "{problem}; process-global mutable state couples \
                             shards — pass state explicitly, or waive with \
                             `// lint: allow(shared-state) <reason>`"
                        ),
                    );
                }
            }
        }

        // ── R8: non-Send types on the shard boundary ──────────────────
        if class.boundary && !in_test {
            for word in ["Rc", "RefCell", "Cell"] {
                if has_word(code, word) && (l.in_pub_type || has_word(code, "pub")) {
                    push(
                        Rule::NonSendType,
                        idx,
                        format!(
                            "`{word}` in a public type of a shard-boundary crate \
                             is not `Send`; a sharded `Network` cannot move it \
                             across threads — use owned state or atomics, or \
                             waive with `// lint: allow(non-send-type) <reason>`"
                        ),
                    );
                }
            }
        }

        // ── R9: unordered iteration / float sort comparators ──────────
        if (class.sim_facing || class.harness) && !in_test {
            let unordered = has_word(code, "HashMap") || has_word(code, "HashSet");
            if unordered {
                for method in [
                    ".drain(",
                    ".retain(",
                    ".into_iter()",
                    ".iter()",
                    ".keys()",
                    ".values()",
                ] {
                    if code.contains(method) {
                        push(
                            Rule::UnorderedIteration,
                            idx,
                            format!(
                                "`{method}` on a default-hasher collection feeds \
                                 results in nondeterministic order; collect \
                                 through a BTreeMap/Vec first",
                                method = method.trim_start_matches('.')
                            ),
                        );
                    }
                }
            }
            if code.contains(".partial_cmp(")
                && (code.contains(".unwrap()")
                    || code.contains(".expect(")
                    || code.contains("sort_by"))
            {
                push(
                    Rule::UnorderedIteration,
                    idx,
                    "`partial_cmp(..).unwrap()` comparators panic on NaN and \
                     under-order floats; use `f64::total_cmp` for a \
                     deterministic total order"
                        .to_string(),
                );
            }
        }

        // ── R10: env reads outside the blessed env module ─────────────
        if (class.sim_facing || class.harness) && !in_test && !is_env_module(path) {
            for pat in ["env::var", "env::vars", "env::var_os"] {
                if code.contains(pat) {
                    push(
                        Rule::EnvOutsideEnvModule,
                        idx,
                        format!(
                            "`{pat}` outside the crate's blessed `env.rs` module; \
                             all knob reads live in one strict module (exit-2 on \
                             bad values) so configuration cannot scatter"
                        ),
                    );
                    break;
                }
            }
        }
    }

    // ── waiver resolution ─────────────────────────────────────────────
    // A waiver on line L suppresses matching violations on L and L+1;
    // every matching waiver is marked used (duplicated adjacent waivers
    // both count as intentional).
    let mut violations: Vec<Violation> = Vec::new();
    for v in candidates {
        let Some(slug) = v.rule.waiver_slug() else {
            violations.push(v);
            continue;
        };
        let idx = v.line - 1;
        let mut suppressed = false;
        for cover in [Some(idx), idx.checked_sub(1)].into_iter().flatten() {
            for &w in &per_line[cover] {
                if waivers[w].slug == slug {
                    waivers[w].used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            violations.push(v);
        }
    }

    // ── R11: stale / unknown waivers ──────────────────────────────────
    for w in &waivers {
        if Rule::for_slug(&w.slug).is_none() {
            violations.push(Violation {
                rule: Rule::StaleWaiver,
                path: path.to_string(),
                line: w.line,
                message: format!(
                    "unknown waiver slug `{}`; valid slugs: {}",
                    w.slug,
                    known_slugs().join(", ")
                ),
                excerpt: raw
                    .get(w.line - 1)
                    .map_or(String::new(), |s| s.trim().to_string()),
            });
        } else if !w.used {
            violations.push(Violation {
                rule: Rule::StaleWaiver,
                path: path.to_string(),
                line: w.line,
                message: format!(
                    "stale waiver `lint: allow({})` suppresses nothing here; \
                     delete it (waivers must map 1:1 to live findings)",
                    w.slug
                ),
                excerpt: raw
                    .get(w.line - 1)
                    .map_or(String::new(), |s| s.trim().to_string()),
            });
        }
    }
    violations.sort_by_key(|v| (v.line, v.rule));

    FileReport {
        violations,
        waivers,
    }
}

/// Check one file's source, returning only the surviving violations.
pub fn check_file(path: &str, source: &str, class: &FileClass) -> Vec<Violation> {
    analyze_file(path, source, class).violations
}

/// Every waivable slug, in rule order.
pub fn known_slugs() -> Vec<&'static str> {
    ALL_RULES
        .into_iter()
        .filter_map(Rule::waiver_slug)
        .collect()
}

/// Is this file a crate's blessed environment-knob module (R10)?
fn is_env_module(path: &str) -> bool {
    path.ends_with("/env.rs") || path == "env.rs"
}

/// Join the code text of a `static` declaration from the keyword through
/// its initializer `=` (or terminating `;`), capped at a few lines — the
/// type portion is what R7 inspects.
fn static_decl_snippet(lines: &[crate::scan::ScannedLine], idx: usize, pos: usize) -> String {
    let mut snippet = String::new();
    for (k, l) in lines.iter().enumerate().skip(idx).take(8) {
        let code = if k == idx { &l.code[pos..] } else { &l.code };
        snippet.push_str(code);
        snippet.push(' ');
        if code.contains('=') || code.contains(';') {
            break;
        }
    }
    snippet
}

/// Why a `static` declaration is shared mutable state, if it is.
/// `cell_structs` names the file's structs with interior-mutable fields:
/// a `static` of such a type hides its atomics or locks one level down.
fn shared_state_problem(decl: &str, cell_structs: &[String]) -> Option<&'static str> {
    if find_word(decl, "mut").is_some() {
        return Some("`static mut` is shared mutable state");
    }
    if has_word(decl, "lazy_static") || has_interior_mutability(decl) {
        return Some("`static` with interior mutability is shared mutable state");
    }
    // The declared type sits between the item name's `:` and the `=`.
    let ty = decl
        .split_once(':')
        .map_or("", |(_, rest)| rest.split('=').next().unwrap_or(""));
    if cell_structs.iter().any(|name| has_word(ty, name)) {
        return Some("`static` of a struct with interior-mutable fields is shared mutable state");
    }
    None
}

/// Does `code` name an interior-mutability type: a lock, a cell, a lazy
/// or once initializer, or an `Atomic*`?
fn has_interior_mutability(code: &str) -> bool {
    let named = [
        "Mutex",
        "RwLock",
        "OnceLock",
        "OnceCell",
        "LazyLock",
        "RefCell",
        "Cell",
        "UnsafeCell",
    ];
    if named.iter().any(|ty| has_word(code, ty)) {
        return true;
    }
    // Atomic* family by prefix: AtomicU64, AtomicUsize, AtomicBool, …
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find("Atomic") {
        let start = from + p;
        if start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Names of the structs declared in `lines` with at least one
/// interior-mutable field. A struct's body is its declaration line after
/// the name plus every following line nested deeper than it.
fn interior_mutable_structs(lines: &[crate::scan::ScannedLine]) -> Vec<String> {
    let mut names = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let Some(pos) = find_keyword(&l.code, "struct") else {
            continue;
        };
        let rest = l.code[pos + "struct".len()..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let mut body = rest[name.len()..].to_string();
        for next in lines[idx + 1..].iter().take_while(|n| n.depth > l.depth) {
            body.push(' ');
            body.push_str(&next.code);
        }
        if has_interior_mutability(&body) {
            names.push(name);
        }
    }
    names
}

/// R6: check a crate's `lib.rs` for the mandatory inner attributes.
pub fn check_lib_headers(path: &str, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut missing = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        let present = lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains(&attr.replace(' ', "")));
        if !present {
            missing.push(attr);
        }
    }
    missing
        .into_iter()
        .map(|attr| Violation {
            rule: Rule::LintHeaders,
            path: path.to_string(),
            line: 1,
            message: format!("crate root is missing the mandatory `{attr}` attribute"),
            excerpt: source.lines().next().unwrap_or("").trim().to_string(),
        })
        .collect()
}

/// Byte positions of `==`/`!=` operators whose operands look
/// floating-point (float literal, `f32`/`f64` token, or `as f..` cast).
fn float_eq_positions(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < b.len() {
        // Compare raw bytes: slicing `code` here would panic when the
        // window straddles a multibyte character (e.g. 'µ' in a string).
        let two = &b[i..i + 2];
        if (two == b"==" || two == b"!=")
            && (i == 0 || !matches!(b[i - 1], b'=' | b'<' | b'>' | b'!'))
            && (i + 2 >= b.len() || b[i + 2] != b'=')
        {
            let left = operand_before(code, i);
            let right = operand_after(code, i + 2);
            if looks_float(&left) || looks_float(&right) {
                out.push(i);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Scan backwards from the operator to approximate the left operand.
fn operand_before(code: &str, op: usize) -> String {
    let b = code.as_bytes();
    let mut depth = 0i32;
    let mut start = op;
    while start > 0 {
        let c = b[start - 1];
        match c {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b',' | b';' | b'{' | b'}' | b'&' | b'|' | b'<' | b'>' | b'=' | b'!' if depth == 0 => {
                break
            }
            _ => {}
        }
        start -= 1;
    }
    code[start..op].to_string()
}

/// Scan forwards from the operator to approximate the right operand.
fn operand_after(code: &str, from: usize) -> String {
    let b = code.as_bytes();
    let mut depth = 0i32;
    let mut end = from;
    while end < b.len() {
        let c = b[end];
        match c {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b',' | b';' | b'{' | b'}' | b'&' | b'|' | b'<' | b'>' | b'=' | b'!' if depth == 0 => {
                break
            }
            _ => {}
        }
        end += 1;
    }
    code[from..end].to_string()
}

/// Does an operand snippet look like a floating-point expression?
fn looks_float(operand: &str) -> bool {
    // Substring on purpose: catches `as f64`, `f64::` paths and the
    // `_f64` naming convention alike.
    if operand.contains("f64") || operand.contains("f32") {
        return true;
    }
    // Float literal: digit '.' digit, not preceded by an identifier
    // character or another dot (which would be tuple/field access).
    let b = operand.as_bytes();
    for i in 0..b.len() {
        if b[i] == b'.'
            && i > 0
            && b[i - 1].is_ascii_digit()
            && i + 1 < b.len()
            && b[i + 1].is_ascii_digit()
        {
            // Walk back over the integer part to its first digit.
            let mut j = i - 1;
            while j > 0 && b[j - 1].is_ascii_digit() {
                j -= 1;
            }
            let prev = if j == 0 { None } else { Some(b[j - 1]) };
            let is_field_access =
                matches!(prev, Some(c) if c == b'.' || c.is_ascii_alphanumeric() || c == b'_');
            if !is_field_access {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_class() -> FileClass {
        FileClass {
            sim_facing: true,
            hot_path: false,
            test_file: false,
            harness: false,
            boundary: false,
        }
    }

    fn hot_class() -> FileClass {
        FileClass {
            hot_path: true,
            ..sim_class()
        }
    }

    fn boundary_class() -> FileClass {
        FileClass {
            boundary: true,
            ..sim_class()
        }
    }

    fn harness_class() -> FileClass {
        FileClass {
            sim_facing: false,
            hot_path: false,
            test_file: false,
            harness: true,
            boundary: false,
        }
    }

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn r1_fires_on_instant_but_not_instantaneous() {
        let v = check_file("x.rs", "let t = std::time::Instant::now();", &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::WallClock]);
        let ok = check_file("x.rs", "let r = MarkReason::Instantaneous;", &sim_class());
        assert!(ok.is_empty());
    }

    #[test]
    fn r1_waivable() {
        let src = "// lint: allow(wall-clock) host-side timing\nlet t = Instant::now();";
        assert!(check_file("x.rs", src, &sim_class()).is_empty());
    }

    #[test]
    fn r2_fires_everywhere_and_is_unwaivable() {
        let src = "let x = rand::thread_rng();";
        let class = FileClass {
            sim_facing: false,
            hot_path: false,
            test_file: false,
            harness: false,
            boundary: false,
        };
        let v = check_file("x.rs", src, &class);
        assert!(rules_of(&v).contains(&Rule::NondeterministicRng));
    }

    #[test]
    fn r3_respects_waiver_and_test_code() {
        let v = check_file("x.rs", "use std::collections::HashMap;", &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::HashCollections]);
        let waived =
            "use std::collections::HashMap; // lint: allow(hash-collections) membership only";
        assert!(check_file("x.rs", waived, &sim_class()).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::HashSet; }";
        assert!(check_file("x.rs", test_src, &sim_class()).is_empty());
    }

    #[test]
    fn mid_file_test_modules_no_longer_shadow_later_production_code() {
        // The old engine treated everything below the first `#[cfg(test)]`
        // as test code; the region tracker scopes it to the module body.
        let src = "#[cfg(test)]\nmod tests { }\nuse std::collections::HashMap;";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::HashCollections]);
    }

    #[test]
    fn r4_only_in_hot_paths() {
        let src = "let v = xs.last().unwrap();";
        assert!(check_file("x.rs", src, &sim_class()).is_empty());
        let v = check_file("x.rs", src, &hot_class());
        assert_eq!(rules_of(&v), vec![Rule::HotPathPanic]);
        let waived = "let v = xs.last().unwrap(); // lint: allow(hot-path-panic) len checked above";
        assert!(check_file("x.rs", waived, &hot_class()).is_empty());
    }

    #[test]
    fn r4_panic_word_boundary() {
        let src = "#[should_panic(expected = \"boom\")]";
        assert!(check_file("x.rs", src, &hot_class()).is_empty());
        let v = check_file("x.rs", "panic!(\"boom\");", &hot_class());
        assert_eq!(rules_of(&v), vec![Rule::HotPathPanic]);
    }

    #[test]
    fn r5_detects_float_eq_variants() {
        for src in [
            "if a == 1.0 { }",
            "if x as f64 == y { }",
            "let b = p != 0.25;",
            "if ratio_f64() == target_f64() { }",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert_eq!(rules_of(&v), vec![Rule::FloatCmp], "src: {src}");
        }
    }

    #[test]
    fn r5_ignores_int_eq_and_tuple_access() {
        for src in [
            "if a == 1 { }",
            "assert!(pair.0 == other.0);",
            "if v[0].1 == w.1 { }",
            "let ge = a >= 1; let arrow = match x { _ => 2 };",
        ] {
            assert!(
                check_file("x.rs", src, &sim_class()).is_empty(),
                "src: {src}"
            );
        }
    }

    #[test]
    fn r5_ignores_strings_and_comments() {
        let src = "// a == 1.0 in prose\nlet s = \"x == 1.0\";";
        assert!(check_file("x.rs", src, &sim_class()).is_empty());
    }

    #[test]
    fn r5_survives_multibyte_chars_near_operators() {
        // The `==` scan window must not slice mid-character: 'µ' is two
        // bytes and used freely in duration-flavoured code and strings.
        let src = "let µs = 1; if µs == 2.0_f64 as i64 as f64 { }";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::FloatCmp]);
        let benign = "let a = 1; // µ µ µ\nlet b = a == 1;";
        assert!(check_file("x.rs", benign, &sim_class()).is_empty());
    }

    #[test]
    fn r6_header_check() {
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(check_lib_headers("lib.rs", good).is_empty());
        let bad = "pub fn f() {}";
        let v = check_lib_headers("lib.rs", bad);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::LintHeaders));
    }

    #[test]
    fn r7_fires_on_interior_mutability_statics() {
        for src in [
            "static COUNT: AtomicU64 = AtomicU64::new(0);",
            "pub static CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new());",
            "static mut RAW: u64 = 0;",
            "static ONCE: OnceLock<Config> = OnceLock::new();",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert_eq!(rules_of(&v), vec![Rule::SharedState], "src: {src}");
            let h = check_file("x.rs", src, &harness_class());
            assert_eq!(rules_of(&h), vec![Rule::SharedState], "harness src: {src}");
        }
    }

    #[test]
    fn r7_fires_on_statics_of_structs_hiding_interior_mutability() {
        let accum = "struct Accum {\n    events: AtomicU64,\n    runs: AtomicU64,\n}\n\n\
             impl Accum {\n    const fn new() -> Accum { todo!() }\n}\n\n\
             static ACCUM: Accum = Accum::new();";
        for class in [sim_class(), harness_class()] {
            let v = check_file("x.rs", accum, &class);
            assert_eq!(rules_of(&v), vec![Rule::SharedState], "{v:?}");
            assert_eq!(v[0].line, 10, "flags the static, not the struct");
        }
        let locked = "pub struct Cache(Mutex<Vec<u64>>);\npub static CACHE: Cache = Cache::new();";
        let v = check_file("x.rs", locked, &harness_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
        let cell = "struct Slot {\n    hits: Cell<u32>,\n}\nstatic SLOTS: [Slot; 2] = [Slot::new(), Slot::new()];";
        let v = check_file("x.rs", cell, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
    }

    #[test]
    fn r7_ignores_statics_of_plain_structs() {
        for src in [
            "struct Table {\n    keys: [u64; 4],\n}\nstatic TABLE: Table = Table { keys: [0; 4] };",
            // A lock-holding struct used only as a local, never as a static.
            "struct Guarded {\n    inner: Mutex<u64>,\n}\nstatic NAMES: [&str; 1] = [\"Guarded\"];",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert!(rules_of(&v).is_empty(), "src: {src} -> {v:?}");
        }
    }

    #[test]
    fn r7_ignores_immutable_statics_and_lifetimes() {
        for src in [
            "static NAMES: [&str; 2] = [\"a\", \"b\"];",
            "pub const K: u64 = 65;",
            "fn f(s: &'static str) -> &'static Mutex<u8> { todo!() }",
            "let m: Mutex<u64> = Mutex::new(0);",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert!(
                !rules_of(&v).contains(&Rule::SharedState),
                "src: {src} -> {v:?}"
            );
        }
    }

    #[test]
    fn r7_spans_multiline_declarations_and_is_waivable() {
        let src = "static BIG:\n    RwLock<Vec<u64>> = RwLock::new(Vec::new());";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
        let waived = "// lint: allow(shared-state) host-side accumulator, order-insensitive\n\
             static COUNT: AtomicU64 = AtomicU64::new(0);";
        assert!(check_file("x.rs", waived, &sim_class()).is_empty());
    }

    #[test]
    fn r8_fires_on_rc_refcell_in_pub_types_of_boundary_crates() {
        let in_struct = "pub struct Shard {\n    cache: Rc<Config>,\n}";
        let v = check_file("x.rs", in_struct, &boundary_class());
        assert_eq!(rules_of(&v), vec![Rule::NonSendType]);
        let in_sig = "pub fn shared() -> RefCell<u64> { RefCell::new(0) }";
        let v = check_file("x.rs", in_sig, &boundary_class());
        assert_eq!(rules_of(&v), vec![Rule::NonSendType]);
    }

    #[test]
    fn r8_ignores_private_types_and_non_boundary_crates() {
        let private = "struct Internal {\n    cache: Rc<Config>,\n}";
        assert!(check_file("x.rs", private, &boundary_class()).is_empty());
        let in_struct = "pub struct Shard {\n    cache: Rc<Config>,\n}";
        assert!(check_file("x.rs", in_struct, &sim_class()).is_empty());
    }

    #[test]
    fn r9_fires_on_unordered_iteration_and_float_comparators() {
        let drain = "let out: Vec<_> = HashMap::from(pairs).into_iter().collect();";
        let v = check_file("x.rs", drain, &sim_class());
        assert!(rules_of(&v).contains(&Rule::UnorderedIteration), "{v:?}");
        let cmp = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());";
        let v = check_file("x.rs", cmp, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::UnorderedIteration]);
        let expect_cmp = "xs.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\"));";
        let v = check_file("x.rs", expect_cmp, &harness_class());
        assert_eq!(rules_of(&v), vec![Rule::UnorderedIteration]);
    }

    #[test]
    fn r9_ignores_ordered_collections_and_partial_cmp_impls() {
        for src in [
            "let out: Vec<_> = BTreeMap::from(pairs).into_iter().collect();",
            "xs.sort_by(f64::total_cmp);",
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }",
            "entries.retain(|e| e.live);",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert!(
                !rules_of(&v).contains(&Rule::UnorderedIteration),
                "src: {src} -> {v:?}"
            );
        }
    }

    #[test]
    fn r10_fires_outside_env_module_only() {
        let src = "let v = std::env::var(\"ECNSHARP_SCALE\");";
        let v = check_file("crates/experiments/src/runner.rs", src, &harness_class());
        assert_eq!(rules_of(&v), vec![Rule::EnvOutsideEnvModule]);
        let ok = check_file("crates/experiments/src/env.rs", src, &harness_class());
        assert!(ok.is_empty(), "env.rs is the blessed module");
        let non_sim = check_file(
            "crates/xtask/src/main.rs",
            src,
            &FileClass {
                sim_facing: false,
                hot_path: false,
                test_file: false,
                harness: false,
                boundary: false,
            },
        );
        assert!(non_sim.is_empty(), "host tooling is out of scope");
    }

    #[test]
    fn r11_flags_stale_and_unknown_waivers() {
        let stale = "// lint: allow(hash-collections) nothing here uses one\nlet x = 1;";
        let v = check_file("x.rs", stale, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::StaleWaiver]);
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
        let unknown = "let x = 1; // lint: allow(no-such-rule) oops";
        let v = check_file("x.rs", unknown, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::StaleWaiver]);
        assert!(v[0].message.contains("unknown"), "{}", v[0].message);
    }

    #[test]
    fn r11_used_waivers_are_inventoried_not_flagged() {
        let src = "use std::collections::HashMap; // lint: allow(hash-collections) membership";
        let report = analyze_file("x.rs", src, &sim_class());
        assert!(report.violations.is_empty());
        assert_eq!(report.waivers.len(), 1);
        assert!(report.waivers[0].used);
        assert_eq!(report.waivers[0].slug, "hash-collections");
        assert_eq!(report.waivers[0].reason, "membership");
    }

    #[test]
    fn r11_waiver_for_inapplicable_rule_is_stale() {
        // R1 does not apply outside sim-facing crates, so a wall-clock
        // waiver there suppresses nothing and must be deleted.
        let src = "// lint: allow(wall-clock) host-side timing\nlet t = Instant::now();";
        let v = check_file("x.rs", src, &harness_class());
        assert_eq!(rules_of(&v), vec![Rule::StaleWaiver]);
    }

    #[test]
    fn every_waivable_rule_has_a_distinct_slug() {
        let slugs = known_slugs();
        let mut dedup = slugs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(slugs.len(), dedup.len());
        for slug in slugs {
            assert!(Rule::for_slug(slug).is_some());
        }
    }
}
