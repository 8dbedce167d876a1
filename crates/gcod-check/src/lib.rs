//! Repo-specific static analysis for the GCoD workspace.
//!
//! `gcod-check` is a hand-rolled lint pass — a character-level token scanner,
//! no `syn` (the same vendored-offline constraint the rest of the workspace
//! lives under) — that walks every library source file and enforces
//! invariants `clippy` cannot express because they are *policy*, not syntax:
//!
//! | lint                 | invariant                                                          |
//! |----------------------|--------------------------------------------------------------------|
//! | `safety-comment`     | every `unsafe` block carries a `// SAFETY:` rationale nearby       |
//! | `no-unwrap`          | no `.unwrap()` / `panic!` in non-test library code of the          |
//! |                      | concurrency crates (`gcod-runtime`, `gcod-serve`, `gcod-shard`);   |
//! |                      | lock poisoning                                                     |
//! |                      | goes through the named `lock_unpoisoned` helper and invariants are |
//! |                      | spelled `.expect("why this cannot fail")`                          |
//! | `hash-container`     | no `HashMap`/`HashSet` in deterministic-output crates              |
//! |                      | (`gcod-nn`, `gcod-graph`, `gcod-bench`, `gcod-shard`) — iteration  |
//! |                      | order leaks into golden files; use the `BTree` forms. Covers the   |
//! |                      | f32 *and* quantized compute paths (`gcod_nn::qkernels`,            |
//! |                      | `gcod_graph::quant`), whose bit-exactness contract the             |
//! |                      | differential suites pin                                            |
//! | `wall-clock`         | no `Instant::now` / `SystemTime` in kernel crates — wall-clock     |
//! |                      | reads belong to the timing layer (`gcod-bench`) and the runtime's  |
//! |                      | deadline plumbing, nowhere else. The integer kernels of the        |
//! |                      | quantized path sit in `gcod-nn`/`gcod-graph` and are covered like  |
//! |                      | their f32 counterparts                                             |
//! | `thread-sleep`       | no `thread::sleep` in library code — sleeping is either a test     |
//! |                      | convenience or a bug                                               |
//! | `condvar-wait-while` | every `Condvar::wait`/`wait_timeout` sits inside a `while`/`loop`  |
//! |                      | that re-checks its predicate — never an `if`                       |
//! | `reactor-notify-one` | no `notify_one` in reactor modules (file stem containing           |
//! |                      | `reactor`) — reactor waiters are heterogeneous (dispatcher,        |
//! |                      | pausers, event polls) and multiplex distinct event masks on one    |
//! |                      | condvar, so `notify_one` can wake the wrong class and lose the     |
//! |                      | wakeup the model checker proves impossible with `notify_all`       |
//!
//! Each lint has an annotation escape hatch, placed on the offending line or
//! the line directly above, with a mandatory non-empty reason:
//!
//! ```text
//! // gcod-check: allow(hash-container) — membership-only set; iteration order never observed.
//! ```
//!
//! The scanner strips comments, strings, and char literals first (preserving
//! line structure), so lints never fire on prose; the raw lines are kept
//! alongside for the `SAFETY:` and `allow(...)` checks, which live *in*
//! comments. Test code — `#[cfg(test)]` modules and `#[test]` functions — is
//! exempt from every lint except `safety-comment`.
//!
//! Run it as `cargo run -p gcod-check -- lint` (whole tree, crate-scoped
//! lint applicability) or `cargo run -p gcod-check -- lint <files...>`
//! (explicit files, every lint enabled — the mode the fixture tests use).
//!
//! `cargo run -p gcod-check -- surface` prints the design-size ledger (see
//! [`surface`]): per crate, the non-test code lines and public items of its
//! library sources. CI diffs it against the committed `SURFACE.txt`, so a
//! PR that grows either column has to say so in its own diff.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint names, as they appear in findings and `allow(...)` annotations.
pub const LINT_SAFETY: &str = "safety-comment";
pub const LINT_UNWRAP: &str = "no-unwrap";
pub const LINT_HASH: &str = "hash-container";
pub const LINT_WALL_CLOCK: &str = "wall-clock";
pub const LINT_SLEEP: &str = "thread-sleep";
pub const LINT_CONDVAR: &str = "condvar-wait-while";
pub const LINT_NOTIFY: &str = "reactor-notify-one";

/// One lint violation: `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Which crate-scoped lints apply to a file. `safety-comment`,
/// `thread-sleep`, and `condvar-wait-while` are unconditional; the other
/// three are policy decisions scoped to the crates where the invariant is
/// load-bearing. `reactor_discipline` is *module*-scoped rather than
/// crate-scoped: it follows the file stem (see `is_reactor_module`), so
/// [`LintScope::STRICT`] leaves it off and [`lint_file`]/[`lint_tree`]
/// derive it from the path.
#[derive(Debug, Clone, Copy)]
pub struct LintScope {
    pub no_unwrap: bool,
    pub hash_container: bool,
    pub wall_clock: bool,
    pub reactor_discipline: bool,
}

impl LintScope {
    /// Every crate-scoped lint enabled — used for explicitly-passed files
    /// and fixtures (the module-scoped `reactor-notify-one` still follows
    /// the file stem).
    pub const STRICT: LintScope = LintScope {
        no_unwrap: true,
        hash_container: true,
        wall_clock: true,
        reactor_discipline: false,
    };

    /// Crate-scoped applicability, derived from the path's
    /// `crates/<name>/` component (the workspace-root package is `gcod`).
    pub(crate) fn for_path(path: &Path) -> LintScope {
        let crate_name = crate_of(path);
        let name = crate_name.as_deref().unwrap_or("");
        LintScope {
            no_unwrap: matches!(name, "gcod-runtime" | "gcod-serve" | "gcod-shard"),
            hash_container: matches!(name, "gcod-nn" | "gcod-graph" | "gcod-bench" | "gcod-shard"),
            wall_clock: matches!(
                name,
                "gcod-nn"
                    | "gcod-graph"
                    | "gcod-core"
                    | "gcod-accel"
                    | "gcod-platform"
                    | "gcod-baselines"
                    | "gcod-shard"
                    | "gcod-serve"
            ),
            reactor_discipline: is_reactor_module(path),
        }
    }
}

/// Is this a reactor module — a file whose stem contains `reactor`
/// (`reactor.rs`, `model_reactor.rs`, ...)? Scopes the condvar-discipline
/// extension `reactor-notify-one`: inside a reactor, waiters of different
/// classes multiplex one condvar, so only `notify_all` is sound.
pub(crate) fn is_reactor_module(path: &Path) -> bool {
    path.file_stem()
        .is_some_and(|stem| stem.to_string_lossy().contains("reactor"))
}

fn crate_of(path: &Path) -> Option<String> {
    let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(component) = components.next() {
        if component == "crates" {
            return components.next().map(|name| name.into_owned());
        }
    }
    None
}

/// Replaces comments, string/char literals, and raw strings with spaces,
/// preserving newlines so every byte of the result sits on its original
/// line. Lints scan this; the raw text is only consulted for comments.
pub(crate) fn strip_comments_and_strings(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(source.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < n {
        let c = chars[i];
        // Line comment: blank to end of line.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) strings: r"..."  r#"..."#  br##"..."##.
        let prev_is_ident = i > 0 && is_ident_char(chars[i - 1]);
        if (c == 'r' || c == 'b') && !prev_is_ident {
            let mut j = i;
            if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if chars[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    for &ch in &chars[i..=k] {
                        blank(&mut out, ch);
                    }
                    i = k + 1;
                    'raw: while i < n {
                        if chars[i] == '"'
                            && chars[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes
                        {
                            for &ch in &chars[i..(i + 1 + hashes).min(n)] {
                                blank(&mut out, ch);
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                        blank(&mut out, chars[i]);
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Ordinary (or byte) string literal.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                    continue;
                }
                if chars[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                blank(&mut out, chars[i]);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: `'\n'` and `'a'` are literals; `'a` in
        // `<'a>` is a lifetime and passes through untouched.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                out.push(' ');
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        blank(&mut out, chars[i]);
                        blank(&mut out, chars[i + 1]);
                        i += 2;
                        continue;
                    }
                    if chars[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    blank(&mut out, chars[i]);
                    i += 1;
                }
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                out.push(' ');
                blank(&mut out, chars[i + 1]);
                out.push(' ');
                i += 3;
                continue;
            }
            out.push(c);
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items and
/// `#[test]` functions: from the attribute to the closing brace of the next
/// block. An item that ends in `;` before any `{` (e.g. a `#[cfg(test)]`
/// import) covers only its own lines.
pub(crate) fn test_regions(stripped: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = stripped.chars().collect();
    let n = chars.len();
    let mut regions = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        if chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        let attr_len = ["#[cfg(test)]", "#[test]"]
            .iter()
            .find(|attr| chars[i..].starts_with(&attr.chars().collect::<Vec<_>>()[..]))
            .map(|attr| attr.len());
        let Some(attr_len) = attr_len else {
            i += 1;
            continue;
        };
        let start_line = line;
        i += attr_len;
        // Find the block the attribute decorates (or bail at `;`).
        while i < n && chars[i] != '{' && chars[i] != ';' {
            if chars[i] == '\n' {
                line += 1;
            }
            i += 1;
        }
        if i >= n || chars[i] == ';' {
            regions.push((start_line, line));
            continue;
        }
        let mut depth = 0usize;
        while i < n {
            match chars[i] {
                '\n' => line += 1,
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        regions.push((start_line, line));
    }
    regions
}

fn in_test(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Does `raw` carry a well-formed `gcod-check: allow(<lint>)` annotation for
/// `lint`, inside a `//` comment, with a non-empty reason after the `)`?
fn has_allow(raw: &str, lint: &str) -> bool {
    let Some(comment_start) = raw.find("//") else {
        return false;
    };
    let comment = &raw[comment_start..];
    let marker = "gcod-check: allow(";
    let Some(pos) = comment.find(marker) else {
        return false;
    };
    let rest = &comment[pos + marker.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    if rest[..close].trim() != lint {
        return false;
    }
    let reason = rest[close + 1..]
        .trim_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
    !reason.is_empty()
}

/// A finding at `line` is suppressed by an annotation on that line or the
/// line directly above it.
fn allowed(raw_lines: &[&str], line: usize, lint: &str) -> bool {
    let same = raw_lines.get(line - 1).is_some_and(|l| has_allow(l, lint));
    let above = line >= 2 && raw_lines.get(line - 2).is_some_and(|l| has_allow(l, lint));
    same || above
}

/// Lints a single file's source. `file_label` is used verbatim in findings.
pub(crate) fn lint_source(file_label: &str, source: &str, scope: LintScope) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let regions = test_regions(&stripped);
    let mut findings = Vec::new();
    let mut push = |line: usize, lint: &'static str, message: String| {
        if !allowed(&raw_lines, line, lint) {
            findings.push(Finding {
                file: file_label.to_string(),
                line,
                lint,
                message,
            });
        }
    };

    // Line-scoped lints on the stripped text.
    for (idx, line_text) in stripped.lines().enumerate() {
        let line = idx + 1;
        if in_test(&regions, line) {
            continue;
        }
        if scope.no_unwrap {
            if line_text.contains(".unwrap()") {
                push(
                    line,
                    LINT_UNWRAP,
                    "bare `.unwrap()` in library code — spell the invariant with \
                     `.expect(\"...\")`, or `lock_unpoisoned()` for locks"
                        .to_string(),
                );
            }
            if contains_word_bang(line_text, "panic") {
                push(
                    line,
                    LINT_UNWRAP,
                    "`panic!` in library code — return an error or document the \
                     invariant with `.expect(\"...\")`"
                        .to_string(),
                );
            }
        }
        if scope.hash_container {
            for container in ["HashMap", "HashSet"] {
                if contains_word(line_text, container) {
                    push(
                        line,
                        LINT_HASH,
                        format!(
                            "`{container}` in a deterministic-output crate — iteration \
                             order leaks into golden files; use `BTree{}`",
                            &container[4..]
                        ),
                    );
                }
            }
        }
        if scope.wall_clock {
            if line_text.contains("Instant::now") {
                push(
                    line,
                    LINT_WALL_CLOCK,
                    "`Instant::now` outside the timing layer — kernels must be \
                     replayable without a clock"
                        .to_string(),
                );
            }
            if contains_word(line_text, "SystemTime") {
                push(
                    line,
                    LINT_WALL_CLOCK,
                    "`SystemTime` outside the timing layer — kernels must be \
                     replayable without a clock"
                        .to_string(),
                );
            }
        }
        if line_text.contains("thread::sleep") {
            push(
                line,
                LINT_SLEEP,
                "`thread::sleep` in library code — wait on a condition, not the clock".to_string(),
            );
        }
        if scope.reactor_discipline && line_text.contains(".notify_one(") {
            push(
                line,
                LINT_NOTIFY,
                "`notify_one` in a reactor module — heterogeneous waiter classes \
                 share the condvar, so a single wakeup can land on the wrong \
                 class and be lost; use `notify_all`"
                    .to_string(),
            );
        }
    }

    // Structure-scoped lints: a single pass tracking brace frames.
    let structure = structural_lints(&stripped, &regions);
    for line in structure.unsafe_blocks {
        if !safety_comment_nearby(&raw_lines, line) {
            push(
                line,
                LINT_SAFETY,
                "`unsafe` block without a nearby `// SAFETY:` rationale".to_string(),
            );
        }
    }
    for (line, message) in structure.naked_waits {
        push(line, LINT_CONDVAR, message);
    }

    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// What the brace-structure pass surfaces for `lint_source` to judge.
struct Structure {
    /// Lines opening an `unsafe { ... }` block.
    unsafe_blocks: Vec<usize>,
    /// `Condvar` waits with no enclosing loop inside their function.
    naked_waits: Vec<(usize, String)>,
}

/// Whole-word occurrence (no identifier char on either side).
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0
            || !haystack[..start]
                .chars()
                .next_back()
                .is_some_and(is_ident_char);
        let right_ok = !haystack[end..].chars().next().is_some_and(is_ident_char);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// `word!` with no identifier char before it (matches `panic!`, not
/// `some_panic!`).
fn contains_word_bang(haystack: &str, word: &str) -> bool {
    let with_bang = format!("{word}!");
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(&with_bang) {
        let start = from + pos;
        let left_ok = start == 0
            || !haystack[..start]
                .chars()
                .next_back()
                .is_some_and(is_ident_char);
        if left_ok {
            return true;
        }
        from = start + with_bang.len();
    }
    false
}

/// Brace-frame label for the condvar-discipline walk: what kind of scope a
/// `{` opened. `if`/`match`/plain blocks are transparent — a wait inside
/// them still "sees" an enclosing loop; `fn` bodies and closures are
/// boundaries — a loop outside the function does not count.
#[derive(Clone, Copy)]
enum Frame {
    Boundary,
    Loop,
    Transparent,
}

/// One pass over the stripped text for the lints that need brace structure:
/// `safety-comment` (an `unsafe` token directly opening a block) and
/// `condvar-wait-while` (a `.wait(..)`/`.wait_timeout(..)` receiver call
/// whose nearest loop-or-boundary frame is not a loop).
fn structural_lints(stripped: &str, regions: &[(usize, usize)]) -> Structure {
    let chars: Vec<char> = stripped.chars().collect();
    let n = chars.len();
    let mut structure = Structure {
        unsafe_blocks: Vec::new(),
        naked_waits: Vec::new(),
    };
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Frame> = None;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        match c {
            '{' => {
                stack.push(pending.take().unwrap_or(Frame::Transparent));
            }
            '}' => {
                stack.pop();
                pending = None;
            }
            ';' => pending = None,
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && is_ident_char(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                match word.as_str() {
                    "while" | "loop" | "for" => pending = Some(Frame::Loop),
                    // `move` approximates a closure boundary; item keywords
                    // end any function scope.
                    "fn" | "move" | "mod" | "impl" | "trait" | "struct" | "enum" | "union" => {
                        pending = Some(Frame::Boundary)
                    }
                    "unsafe" => {
                        let mut j = i;
                        while j < n && chars[j].is_whitespace() {
                            j += 1;
                        }
                        if chars.get(j) == Some(&'{') {
                            structure.unsafe_blocks.push(line);
                        }
                    }
                    "wait" | "wait_timeout" => {
                        let preceded_by_dot = chars[..start]
                            .iter()
                            .rev()
                            .find(|ch| !ch.is_whitespace())
                            .is_some_and(|&ch| ch == '.');
                        if preceded_by_dot && chars.get(i) == Some(&'(') {
                            let needed = if word == "wait" { 1 } else { 2 };
                            if count_args(&chars, i) >= needed && !in_test(regions, line) {
                                let satisfied = stack.iter().rev().find_map(|f| match f {
                                    Frame::Loop => Some(true),
                                    Frame::Boundary => Some(false),
                                    Frame::Transparent => None,
                                });
                                if !satisfied.unwrap_or(false) {
                                    structure.naked_waits.push((
                                        line,
                                        format!(
                                            "`Condvar::{word}` outside a `while`/`loop` — \
                                             wakeups are advisory; re-check the predicate \
                                             in a loop"
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    _ => {}
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    structure
}

/// Argument count of the call whose `(` sits at `open`: top-level commas
/// plus one, or zero for an empty list. Brackets and braces nest; angle
/// brackets are ignored (turbofish inside an argument list is rare enough
/// not to matter for a ≥-threshold check).
fn count_args(chars: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut saw_content = false;
    let mut i = open;
    while i < chars.len() {
        match chars[i] {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ',' if depth == 1 => commas += 1,
            c if depth >= 1 && !c.is_whitespace() => saw_content = true,
            _ => {}
        }
        i += 1;
    }
    if saw_content {
        commas + 1
    } else {
        0
    }
}

/// The `SAFETY:` check is a second, line-scoped pass over the *raw* text:
/// structural detection finds the block, this decides whether a rationale
/// is attached — on the `unsafe` line itself or anywhere in the contiguous
/// run of `//` comment lines directly above it (multi-line rationales are
/// idiomatic).
fn safety_comment_nearby(raw_lines: &[&str], line: usize) -> bool {
    if raw_lines
        .get(line - 1)
        .is_some_and(|l| l.contains("SAFETY:"))
    {
        return true;
    }
    let mut above = line - 1; // 1-based line of the row above `line`
    while above >= 1 {
        let text = raw_lines[above - 1].trim_start();
        if !text.starts_with("//") {
            return false;
        }
        if text.contains("SAFETY:") {
            return true;
        }
        above -= 1;
    }
    false
}

/// Lints one on-disk file. The module-scoped `reactor-notify-one` lint is
/// derived from the file name on top of the passed crate scope.
pub fn lint_file(path: &Path, scope: LintScope) -> io::Result<Vec<Finding>> {
    let source = fs::read_to_string(path)?;
    let scope = LintScope {
        reactor_discipline: scope.reactor_discipline || is_reactor_module(path),
        ..scope
    };
    Ok(lint_source(&path.display().to_string(), &source, scope))
}

/// The workspace's library sources (`src/` at the root and under each
/// `crates/*`), skipping `vendor/`, `target/`, and test fixtures, sorted by
/// path.
fn library_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every library source of the workspace under its crate-scoped
/// [`LintScope`]. Findings come back sorted by path and line.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in &library_sources(root)? {
        let scope = LintScope::for_path(file);
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        let source = fs::read_to_string(file)?;
        findings.extend(lint_source(&label, &source, scope));
    }
    Ok(findings)
}

/// Item keywords that make a `pub` line a public item of the ledger.
const PUB_ITEM_KINDS: [&str; 9] = [
    "fn", "const", "struct", "enum", "trait", "type", "mod", "use", "static",
];

/// `(code lines, public items)` of one source file, test code excluded:
/// a code line is non-blank once comments and literals are stripped; a
/// public item is a line opening with `pub <kind> ` for a kind in
/// [`PUB_ITEM_KINDS`] (`pub(crate)` and friends are not public).
fn surface_of(source: &str) -> (usize, usize) {
    let stripped = strip_comments_and_strings(source);
    let regions = test_regions(&stripped);
    let (mut lines, mut items) = (0, 0);
    for (idx, line) in stripped.lines().enumerate() {
        let code = line.trim();
        if code.is_empty() || in_test(&regions, idx + 1) {
            continue;
        }
        lines += 1;
        let is_item = code.strip_prefix("pub ").is_some_and(|rest| {
            PUB_ITEM_KINDS
                .iter()
                .any(|kind| rest.strip_prefix(kind).is_some_and(|r| r.starts_with(' ')))
        });
        items += usize::from(is_item);
    }
    (lines, items)
}

/// The design-size ledger: one row per crate (the root `src/` counts as
/// `gcod`) with the non-test code lines and public items of its library
/// sources, plus a total. Deterministic, so the committed `SURFACE.txt` can
/// be compared byte for byte.
pub fn surface(root: &Path) -> io::Result<String> {
    let mut crates = std::collections::BTreeMap::<String, (usize, usize)>::new();
    for file in &library_sources(root)? {
        let relative = file.strip_prefix(root).unwrap_or(file);
        let name = crate_of(relative).unwrap_or_else(|| "gcod".to_string());
        let (lines, items) = surface_of(&fs::read_to_string(file)?);
        let row = crates.entry(name).or_default();
        row.0 += lines;
        row.1 += items;
    }
    let total = crates
        .values()
        .fold((0, 0), |sum, row| (sum.0 + row.0, sum.1 + row.1));
    let mut report = format!("{:<16}{:>12}{:>12}\n", "crate", "code_lines", "pub_items");
    for (name, (lines, items)) in crates
        .iter()
        .map(|(n, row)| (n.as_str(), row))
        .chain([("total", &total)])
    {
        report.push_str(&format!("{name:<16}{lines:>12}{items:>12}\n"));
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_and_strings_but_keeps_lines() {
        let src = "let a = \"unwrap()\"; // .unwrap()\nlet b = 'x';\n/* panic! */ let c = 1;\n";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(!stripped.contains("unwrap"));
        assert!(!stripped.contains("panic"));
        assert!(stripped.contains("let a ="));
        assert!(stripped.contains("let c = 1;"));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) -> &'a str { let _ = r#\"panic!\"#; s }";
        let stripped = strip_comments_and_strings(src);
        assert!(!stripped.contains("panic"));
        assert!(stripped.contains("fn f<'a>"));
    }

    #[test]
    fn allow_annotation_requires_matching_lint_and_reason() {
        assert!(has_allow(
            "x(); // gcod-check: allow(no-unwrap) — invariant documented above.",
            LINT_UNWRAP
        ));
        assert!(!has_allow(
            "x(); // gcod-check: allow(no-unwrap)",
            LINT_UNWRAP
        ));
        assert!(!has_allow(
            "x(); // gcod-check: allow(thread-sleep) — wrong lint.",
            LINT_UNWRAP
        ));
        assert!(!has_allow(
            "x(); // allow(no-unwrap) — not ours.",
            LINT_UNWRAP
        ));
    }

    #[test]
    fn test_region_detection_spans_the_module() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let stripped = strip_comments_and_strings(src);
        let regions = test_regions(&stripped);
        assert!(in_test(&regions, 3));
        assert!(in_test(&regions, 5));
        assert!(!in_test(&regions, 1));
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint_source("x.rs", src, LintScope::STRICT).is_empty());
    }

    #[test]
    fn wait_inside_while_is_clean_inside_if_fires() {
        let in_while = "fn f() { while !*g { g = cv.wait(g); } }";
        assert!(lint_source("x.rs", in_while, LintScope::STRICT).is_empty());
        let in_if = "fn f() { if !*g { g = cv.wait(g); } }";
        let findings = lint_source("x.rs", in_if, LintScope::STRICT);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, LINT_CONDVAR);
    }

    #[test]
    fn zero_arg_wait_is_not_a_condvar_wait() {
        // `Latch::wait()` / `Ticket::wait()` take no guard — never flagged.
        let src = "fn f(t: &Ticket) { t.wait(); }";
        assert!(lint_source("x.rs", src, LintScope::STRICT).is_empty());
    }

    #[test]
    fn notify_one_fires_only_under_reactor_discipline() {
        let src = "fn raise(cv: &Condvar) { cv.notify_one(); }";
        let reactor_scope = LintScope {
            reactor_discipline: true,
            ..LintScope::STRICT
        };
        let findings = lint_source("reactor.rs", src, reactor_scope);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, LINT_NOTIFY);
        assert!(
            lint_source("server.rs", src, LintScope::STRICT).is_empty(),
            "outside reactor modules notify_one is a legitimate single-waiter handoff"
        );
        let all = "fn raise(cv: &Condvar) { cv.notify_all(); }";
        assert!(lint_source("reactor.rs", all, reactor_scope).is_empty());
    }

    #[test]
    fn reactor_module_detection_follows_the_file_stem() {
        assert!(is_reactor_module(Path::new("crates/x/src/reactor.rs")));
        assert!(is_reactor_module(Path::new("tests/model_reactor.rs")));
        assert!(!is_reactor_module(Path::new("crates/x/src/server.rs")));
    }

    #[test]
    fn safety_rationale_distance() {
        assert!(safety_comment_nearby(
            &["// SAFETY: bounds checked above.", "unsafe { x() }"],
            2
        ));
        assert!(!safety_comment_nearby(&["let a = 1;", "unsafe { x() }"], 2));
    }

    #[test]
    fn surface_counts_code_lines_and_public_items_outside_tests() {
        let src = [
            "//! docs\n\npub fn a() {}\npub(crate) fn b() {}\npub const fn c() {}\n",
            "    pub struct S;\n// pub fn commented() {}\nlet s = \"pub fn quoted\";\n",
            "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        ]
        .concat();
        // a, b, c, S and the `let` are code; a, c and S are public items.
        assert_eq!(surface_of(&src), (5, 3));
    }
}
