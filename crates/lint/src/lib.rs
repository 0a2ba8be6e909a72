//! `qp-lint` — repo-specific concurrency/robustness lint rules for the qp
//! workspace, enforced over `crates/*/src` at line/token level (no rustc
//! internals).
//!
//! The rules encode the discipline the `qp-verify` model checker verifies,
//! so new code stays inside the checked protocol instead of drifting out:
//!
//! | rule | what it denies |
//! |---|---|
//! | `std-sync` | direct `std::sync` `Mutex`/`RwLock`/`Condvar`/`atomic` outside the `parking_lot` facade (use the facade so `cfg(qp_verify)` can interpose the checker) |
//! | `epoch-outside-lock` | epoch mutation (`.fetch_add`/`.store` on an `epoch` atomic) anywhere but the pricing write-lock region in `broker.rs` |
//! | `ordering-comment` | a non-`SeqCst` atomic `Ordering::*` without a `// ordering:` justification comment on the same or a directly preceding line |
//! | `unwrap-in-server` | `.unwrap()`/`.expect(` on `qp-server` request paths (`crates/server/src`, excluding the panic-by-design loadgen `transport.rs` and `bin/`) |
//! | `float-eq` | `==`/`!=` against a float literal without `to_bits` or a `// float-eq:` justification comment |
//! | `alloc-in-kernel` | `Vec::new()` / `.to_vec()` / `collect::<Vec<…>>` in a cache-hot kernel module (`ItemSet`, the incremental repricer, the simplex and its row passes, LPIP's threshold sweep and the claim loop it runs in) without an `// alloc:` justification comment (kernels reuse buffers; steady-state allocation is a regression) |
//! | `unsafe-safety` | an `unsafe` block, fn or impl without a `// SAFETY:` comment on the same or a directly preceding line saying why it is sound (library FFI lives in one place, the CPU placement in `qp-core`'s `parallel.rs`) |
//! | `wallclock` | `Instant::now()` / `SystemTime::now()` outside `qp-telemetry`, `qp-bench`, and `bin/` without a `// timing:` justification comment (ambient clock reads belong in the telemetry layer, where they are provably out-of-band) |
//!
//! All rules skip test code (`#[cfg(test)]`/`#[test]` items and everything
//! under `tests/`), and pattern matching runs on *sanitized* lines —
//! string-literal contents and comments are stripped first — so a rule
//! pattern appearing inside a string or a doc comment never fires.
//!
//! Run with `cargo run --release -p qp-lint` from the workspace root.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding: a rule fired at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `std-sync`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A source line split into its code and comment parts, with string/char
/// literal contents already blanked out of `code`.
struct SrcLine {
    code: String,
    comment: String,
}

/// Lexer state carried across lines (block comments and string literals
/// can span lines).
enum Carry {
    None,
    Block(usize),
    Str,
    RawStr(usize),
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits source into per-line (code, comment) pairs. String and char
/// literal *contents* are removed from code (delimiters kept), comments —
/// line and block, arbitrarily nested — are moved to the comment part.
fn sanitize(src: &str) -> Vec<SrcLine> {
    let mut out = Vec::new();
    let mut carry = Carry::None;
    for raw in src.lines() {
        let b: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match carry {
                Carry::Block(ref mut depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        i += 2;
                        if *depth == 0 {
                            carry = Carry::None;
                        }
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        i += 2;
                    } else {
                        comment.push(b[i]);
                        i += 1;
                    }
                }
                Carry::Str => {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        code.push('"');
                        carry = Carry::None;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Carry::RawStr(hashes) => {
                    if b[i] == '"' && b[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
                    {
                        code.push('"');
                        carry = Carry::None;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                Carry::None => {
                    let c = b[i];
                    let prev_ident = i > 0 && is_ident_char(b[i - 1]);
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        let rest: String = b[i..].iter().collect();
                        comment.push_str(&rest);
                        i = b.len();
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        carry = Carry::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        carry = Carry::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_ident {
                        // Possible raw/byte string: r", r#"…, br#"…, b", b'.
                        let mut j = i + 1;
                        let mut raw_str = c == 'r';
                        if c == 'b' && b.get(j) == Some(&'r') {
                            raw_str = true;
                            j += 1;
                        }
                        let hashes = b[j..].iter().take_while(|&&x| x == '#').count();
                        let j2 = j + hashes;
                        if raw_str && b.get(j2) == Some(&'"') {
                            code.push('"');
                            carry = Carry::RawStr(hashes);
                            i = j2 + 1;
                        } else if c == 'b' && b.get(i + 1) == Some(&'"') {
                            code.push('"');
                            carry = Carry::Str;
                            i += 2;
                        } else if c == 'b' && b.get(i + 1) == Some(&'\'') {
                            // Byte char literal: skip to the closing quote.
                            let mut k = i + 2;
                            if b.get(k) == Some(&'\\') {
                                k += 1;
                            }
                            while k < b.len() && b[k] != '\'' {
                                k += 1;
                            }
                            i = k + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal or lifetime.
                        if b.get(i + 1) == Some(&'\\') {
                            let mut k = i + 2;
                            while k < b.len() && b[k] != '\'' {
                                if b[k] == '\\' {
                                    k += 1;
                                }
                                k += 1;
                            }
                            i = k + 1;
                        } else if b.get(i + 2) == Some(&'\'') {
                            i += 3; // 'x'
                        } else {
                            code.push('\''); // lifetime / label
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(SrcLine { code, comment });
    }
    out
}

/// Marks each line that belongs to test code: anything under a
/// `#[cfg(test)]` or `#[test]` item (attribute line through closing
/// brace).
fn test_line_mask(lines: &[SrcLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut skip_above: Option<i64> = None;
    let mut pending = false;
    for (i, l) in lines.iter().enumerate() {
        let code = l.code.trim();
        let mut in_test = skip_above.is_some();
        if skip_above.is_none() && (code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            pending = true;
        }
        if pending {
            in_test = true;
        }
        for c in l.code.chars() {
            match c {
                '{' => {
                    if pending {
                        skip_above = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_above.is_some_and(|d| depth <= d) {
                        skip_above = None;
                    }
                }
                _ => {}
            }
        }
        // A brace-less gated item (e.g. `#[cfg(test)] use …;`) ends at the
        // semicolon.
        if pending && code.ends_with(';') {
            pending = false;
        }
        mask[i] = in_test || skip_above.is_some();
    }
    mask
}

/// True when line `i` carries `tag` in its own comment or in a directly
/// preceding run of comment-only lines.
fn justified(lines: &[SrcLine], i: usize, tag: &str) -> bool {
    if lines[i].comment.contains(tag) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if !l.code.trim().is_empty() || l.comment.is_empty() {
            return false;
        }
        if l.comment.contains(tag) {
            return true;
        }
    }
    false
}

/// The identifier (or `{…}` import list) immediately following byte
/// offset `at`.
fn token_after(code: &str, at: usize) -> Vec<String> {
    let rest = code[at..].trim_start();
    if let Some(inner) = rest.strip_prefix('{') {
        let inner = inner.split('}').next().unwrap_or("");
        inner.split(',').map(|s| s.trim().to_string()).collect()
    } else {
        let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        vec![ident]
    }
}

/// The dotted path ending right at byte offset `end` (e.g. for
/// `self.epoch.fetch_add`, with `end` at the `.fetch_add` dot, returns
/// `self.epoch`).
fn path_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if is_ident_char(c) || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok)
        .trim_end_matches('_');
    let Some(first) = t.chars().next() else {
        return false;
    };
    first.is_ascii_digit()
        && t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || "._eE+-".contains(c))
}

/// What the `unsafe` keyword at byte offset `at` opens, `block`, `fn` or
/// `impl`; `None` for anything else (an identifier such as `unsafe_op`, an
/// `unsafe extern` block, an `unsafe trait`).
fn unsafe_item(code: &str, at: usize) -> Option<&'static str> {
    let rest = &code[at + "unsafe".len()..];
    if (at > 0 && is_ident_char(code.as_bytes()[at - 1] as char)) || rest.starts_with(is_ident_char)
    {
        return None;
    }
    let rest = rest.trim_start();
    if rest.starts_with('{') {
        return Some("block");
    }
    let word: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    ["fn", "impl"].into_iter().find(|&kw| word == kw)
}

/// Scope of each rule given a workspace-relative path (`/`-separated).
struct Scope<'a> {
    rel: &'a str,
}

impl Scope<'_> {
    fn in_crates_src(&self) -> bool {
        self.rel.starts_with("crates/") && self.rel.contains("/src/") && self.rel.ends_with(".rs")
    }

    /// `std-sync` skips the checker itself: its shims are *built on*
    /// `std::sync` by design.
    fn std_sync(&self) -> bool {
        self.in_crates_src() && !self.rel.starts_with("crates/verify/")
    }

    /// `epoch-outside-lock` skips the checker: its models deliberately
    /// contain the buggy choreography as seeded-bug variants.
    fn epoch(&self) -> bool {
        self.in_crates_src() && !self.rel.starts_with("crates/verify/")
    }

    fn is_broker(&self) -> bool {
        self.rel == "crates/market/src/broker.rs"
    }

    fn ordering(&self) -> bool {
        self.in_crates_src()
    }

    /// `unwrap-in-server` covers request paths only: not the loadgen
    /// transport (panic-by-design, documented in its module docs) and not
    /// the CLI binaries.
    fn unwrap_server(&self) -> bool {
        self.rel.starts_with("crates/server/src/")
            && !self.rel.starts_with("crates/server/src/bin/")
            && self.rel != "crates/server/src/transport.rs"
    }

    fn float_eq(&self) -> bool {
        self.in_crates_src()
    }

    fn unsafe_safety(&self) -> bool {
        self.in_crates_src()
    }

    /// `alloc-in-kernel` covers only the cache-hot kernel modules, where
    /// the allocation discipline (arena + double-buffer reuse) is the
    /// optimization being protected.
    fn alloc_kernel(&self) -> bool {
        KERNEL_MODULES.contains(&self.rel)
    }

    /// `wallclock` exempts the telemetry crate (clock reads are its job),
    /// the benchmark harnesses, and CLI binaries (their wall clocks are
    /// the product); everywhere else an ambient `now()` needs a
    /// `// timing:` note saying why it cannot influence results.
    fn wallclock(&self) -> bool {
        self.in_crates_src()
            && !self.rel.starts_with("crates/telemetry/")
            && !self.rel.starts_with("crates/bench/")
            && !self.rel.contains("/bin/")
    }
}

/// The modules whose hot loops are allocation-free by design: the
/// `ItemSet` representation and kernels, the incremental repricer's
/// merge machinery, the simplex, whose tableau lives in a workspace
/// reused across an LP sweep, and its dense row passes, LPIP's
/// threshold sweep, whose workers reuse buffers sized before they start
/// (what keeps a second worker from raising peak RSS), and the claim
/// loop those workers run in.
const KERNEL_MODULES: [&str; 6] = [
    "crates/core/src/set.rs",
    "crates/pricing/src/algorithms/incremental.rs",
    "crates/lp/src/simplex.rs",
    "crates/lp/src/kernel.rs",
    "crates/pricing/src/algorithms/lpip.rs",
    "crates/core/src/parallel.rs",
];

const STD_SYNC_DENY: [&str; 4] = ["Mutex", "RwLock", "Condvar", "atomic"];
const NON_SEQCST: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Byte offsets of every occurrence of `pat` in `hay`.
fn find_all(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(pat) {
        out.push(from + p);
        from += p + pat.len();
    }
    out
}

/// Lints one file's source under its workspace-relative path. The path
/// drives rule scoping, so fixtures can exercise any scope by pretending
/// to live at the relevant location.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let scope = Scope { rel };
    if !scope.in_crates_src() {
        return Vec::new();
    }
    let lines = sanitize(src);
    let in_test = test_line_mask(&lines);
    let mut out = Vec::new();

    // epoch-outside-lock state: inside broker.rs an epoch mutation is
    // legal only after the pricing write lock was taken earlier in the
    // same function.
    let mut pricing_write_seen = false;

    for (i, l) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = &l.code;
        let v = |rule: &'static str, message: String| Violation {
            path: rel.to_string(),
            line: i + 1,
            rule,
            message,
        };

        if scope.std_sync() {
            for at in find_all(code, "std::sync::") {
                for name in token_after(code, at + "std::sync::".len()) {
                    if STD_SYNC_DENY.contains(&name.as_str()) {
                        out.push(v(
                            "std-sync",
                            format!(
                                "direct std::sync::{name} — use the parking_lot facade \
                                 (vendor/parking_lot) so cfg(qp_verify) builds can \
                                 interpose the model checker"
                            ),
                        ));
                    }
                }
            }
        }

        if scope.epoch() {
            if code.contains("fn ") {
                pricing_write_seen = false;
            }
            if code.contains("pricing.write()") {
                pricing_write_seen = true;
            }
            for pat in [".fetch_add(", ".store("] {
                for at in find_all(code, pat) {
                    let target = path_before(code, at);
                    let last = target.split('.').next_back().unwrap_or("");
                    if last.contains("epoch") && !(scope.is_broker() && pricing_write_seen) {
                        let place = if scope.is_broker() {
                            "outside the pricing write-lock region"
                        } else {
                            "outside broker.rs"
                        };
                        out.push(v(
                            "epoch-outside-lock",
                            format!(
                                "epoch mutation `{target}{}` {place} — the epoch may only \
                                 move inside Broker's pricing write-lock critical section \
                                 (the no-stale-quote protocol)",
                                pat.trim_end_matches('(')
                            ),
                        ));
                    }
                }
            }
        }

        if scope.ordering() {
            for at in find_all(code, "Ordering::") {
                for name in token_after(code, at + "Ordering::".len()) {
                    if NON_SEQCST.contains(&name.as_str()) && !justified(&lines, i, "ordering:") {
                        out.push(v(
                            "ordering-comment",
                            format!(
                                "Ordering::{name} without a `// ordering:` justification \
                                 comment (same line or directly above)"
                            ),
                        ));
                    }
                }
            }
        }

        if scope.unwrap_server() {
            for (pat, what) in [(".unwrap()", "unwrap"), (".expect(", "expect")] {
                if code.contains(pat) {
                    out.push(v(
                        "unwrap-in-server",
                        format!(
                            "`.{what}` on a qp-server request path — return an error \
                             instead (a panicking worker drops the connection)"
                        ),
                    ));
                }
            }
        }

        if scope.alloc_kernel() {
            for pat in ["Vec::new()", ".to_vec()", "collect::<Vec<"] {
                for at in find_all(code, pat) {
                    // `Vec::new()` must not fire on e.g. `MyVec::new()`
                    // (the dot-prefixed patterns legitimately follow an
                    // identifier).
                    if pat == "Vec::new()"
                        && at > 0
                        && is_ident_char(code.as_bytes()[at - 1] as char)
                    {
                        continue;
                    }
                    if !justified(&lines, i, "alloc:") {
                        out.push(v(
                            "alloc-in-kernel",
                            format!(
                                "`{}` in a kernel module — reuse a buffer \
                                 (arena/double-buffer) or justify with an \
                                 `// alloc:` comment",
                                pat.trim_end_matches('<')
                            ),
                        ));
                    }
                }
            }
        }

        if scope.unsafe_safety() {
            for at in find_all(code, "unsafe") {
                if let Some(what) = unsafe_item(code, at) {
                    if !justified(&lines, i, "SAFETY:") {
                        out.push(v(
                            "unsafe-safety",
                            format!(
                                "`unsafe` {what} without a `// SAFETY:` comment (same line \
                                 or directly above) saying why it is sound"
                            ),
                        ));
                    }
                }
            }
        }

        if scope.wallclock() {
            for pat in ["Instant::now()", "SystemTime::now()"] {
                if code.contains(pat) && !justified(&lines, i, "timing:") {
                    out.push(v(
                        "wallclock",
                        format!(
                            "`{pat}` outside the telemetry/bench layers — route the \
                             measurement through qp-telemetry or justify with a \
                             `// timing:` comment explaining why the reading cannot \
                             influence results"
                        ),
                    ));
                }
            }
        }

        if scope.float_eq() && !code.contains("to_bits") {
            for pat in ["==", "!="] {
                for at in find_all(code, pat) {
                    // Skip `<=`, `>=`, `=>`-adjacent and `===`-like hits.
                    if at > 0 && "<>=!".contains(code.as_bytes()[at - 1] as char) {
                        continue;
                    }
                    if code.as_bytes().get(at + 2) == Some(&b'=') {
                        continue;
                    }
                    let right: String = code[at + pat.len()..]
                        .trim_start()
                        .chars()
                        .take_while(|&c| is_ident_char(c) || c == '.')
                        .collect();
                    let left = path_before(code, code[..at].trim_end().len());
                    if (is_float_literal(&right) || is_float_literal(left))
                        && !justified(&lines, i, "float-eq:")
                    {
                        out.push(v(
                            "float-eq",
                            format!(
                                "`{pat}` against a float literal — compare via to_bits \
                                 or justify with a `// float-eq:` comment"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` file under the workspace root.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let crates = root.join("crates");
    let mut dirs: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
    dirs.sort_by_key(|e| e.path());
    let mut out = Vec::new();
    for d in dirs {
        let src = d.path().join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content = fs::read_to_string(&f)?;
            out.extend(lint_source(&rel, &content));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_strips_strings_and_comments() {
        let lines = sanitize("let x = \".unwrap()\"; // tail\nlet y = 'a';");
        assert_eq!(lines[0].code.trim(), "let x = \"\";");
        assert!(lines[0].comment.contains("tail"));
        assert_eq!(lines[1].code.trim(), "let y = ;");
    }

    #[test]
    fn sanitize_handles_lifetimes_and_raw_strings() {
        let lines =
            sanitize("fn f<'a>(x: &'a str) -> &'a str { x }\nlet r = r#\"std::sync::Mutex\"#;");
        assert!(lines[0].code.contains("<'a>"));
        assert!(!lines[1].code.contains("Mutex"));
    }

    #[test]
    fn sanitize_tracks_multiline_block_comments() {
        let lines = sanitize("a /* one\n .unwrap() two\n*/ b");
        assert_eq!(lines[0].code.trim(), "a");
        assert_eq!(lines[1].code.trim(), "");
        assert!(lines[1].comment.contains(".unwrap()"));
        assert_eq!(lines[2].code.trim(), "b");
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines = sanitize(src);
        let mask = test_line_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn float_literal_detection() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("1.5f64"));
        assert!(is_float_literal("2.0_f32"));
        assert!(!is_float_literal("0"));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal("f64"));
        assert!(!is_float_literal(""));
    }
}
