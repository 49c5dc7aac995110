//! The scanner's file model: masked lines, skip regions, and markers.
//!
//! A [`SourceFile`] is built once per file and shared by every check:
//! it holds the per-line code/comment channels from
//! [`mask`](crate::mask), a `cfg(test)`/`#[test]` region mask, the
//! `// tidy:alloc-free` region mask, and the parsed
//! `// tidy:allow(check: reason)` markers with the lines they cover.

use crate::mask::{mask_source, MaskedLine};
use std::fmt;
use std::path::PathBuf;

/// The named checks (each individually silenceable with
/// `// tidy:allow(<name>: <reason>)` or the CLI `--skip <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckId {
    /// No allocating calls inside `tidy:alloc-free` regions.
    AllocFree,
    /// No `Instant::now`/`SystemTime` outside the bench harness.
    WallClock,
    /// No unjustified `HashMap`/`HashSet` in result-affecting crates.
    HashIter,
    /// No `unwrap`/`expect`/`panic!`/… in non-test library code.
    Panic,
    /// Every crate root keeps `#![forbid(unsafe_code)]`.
    UnsafeForbid,
    /// No `dbg!` or stray `eprintln!`/`println!` in library code.
    DebugPrint,
    /// No `TODO`/`FIXME` comment without an issue reference (`#123`).
    TodoIssue,
    /// Marker hygiene: every `tidy:` marker parses with a reason.
    Marker,
}

/// All checks, in reporting order.
pub const ALL_CHECKS: [CheckId; 8] = [
    CheckId::AllocFree,
    CheckId::WallClock,
    CheckId::HashIter,
    CheckId::Panic,
    CheckId::UnsafeForbid,
    CheckId::DebugPrint,
    CheckId::TodoIssue,
    CheckId::Marker,
];

impl CheckId {
    /// The marker/CLI name of the check.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckId::AllocFree => "alloc-free",
            CheckId::WallClock => "wall-clock",
            CheckId::HashIter => "hash-iter",
            CheckId::Panic => "panic",
            CheckId::UnsafeForbid => "unsafe-forbid",
            CheckId::DebugPrint => "debug-print",
            CheckId::TodoIssue => "todo-issue",
            CheckId::Marker => "marker",
        }
    }

    /// Parses a marker/CLI name (`"alloc"` is accepted as shorthand
    /// for `"alloc-free"`, matching the inline-annotation idiom).
    #[must_use]
    pub fn from_name(name: &str) -> Option<CheckId> {
        match name {
            "alloc-free" | "alloc" => Some(CheckId::AllocFree),
            "wall-clock" => Some(CheckId::WallClock),
            "hash-iter" => Some(CheckId::HashIter),
            "panic" => Some(CheckId::Panic),
            "unsafe-forbid" => Some(CheckId::UnsafeForbid),
            "debug-print" => Some(CheckId::DebugPrint),
            "todo-issue" => Some(CheckId::TodoIssue),
            "marker" => Some(CheckId::Marker),
            _ => None,
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a crate is treated by the crate-scoped checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Result-affecting code: every check applies.
    Product,
    /// Experiment/reporting harness (`tepics-bench`): reading the
    /// clock and failing loudly are the point, so only the meta
    /// checks (`unsafe-forbid`, `todo-issue`, `marker`, and any
    /// explicit `alloc-free` regions) apply.
    Harness,
}

/// One finding: a check tripped at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The check that tripped.
    pub check: CheckId,
    /// Human-readable detail (the offending pattern, the missing
    /// attribute, …).
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.check,
            self.message
        )
    }
}

/// A parsed `tidy:allow` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allow {
    check: CheckId,
    /// Lines the marker covers (0-based, inclusive).
    lines: (usize, usize),
}

/// One source file, masked and region-annotated, ready for checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (for reporting).
    pub rel: PathBuf,
    /// Name of the owning crate.
    pub crate_name: String,
    /// Crate classification (product vs harness).
    pub class: CrateClass,
    /// Whether this file is a binary target (`src/bin/**` or
    /// `src/main.rs`): entry points may print and exit.
    pub is_bin: bool,
    /// Whether this file is the crate root (`src/lib.rs`).
    pub is_crate_root: bool,
    /// Per-line code/comment channels.
    pub lines: Vec<MaskedLine>,
    /// `true` for lines inside `#[cfg(test)]` / `#[test]` items.
    pub test_mask: Vec<bool>,
    /// `true` for lines inside `// tidy:alloc-free` regions.
    pub alloc_mask: Vec<bool>,
    allows: Vec<Allow>,
    /// Marker-syntax violations found while parsing (reported by the
    /// `marker` check).
    pub marker_violations: Vec<(usize, String)>,
}

impl SourceFile {
    /// Masks `src` and computes regions and markers.
    #[must_use]
    pub fn parse(
        rel: PathBuf,
        crate_name: &str,
        class: CrateClass,
        is_bin: bool,
        is_crate_root: bool,
        src: &str,
    ) -> SourceFile {
        let lines = mask_source(src);
        let test_mask = test_regions(&lines);
        let (alloc_mask, mut marker_violations) = alloc_regions(&lines);
        let (allows, allow_violations) = parse_allows(&lines);
        marker_violations.extend(allow_violations);
        SourceFile {
            rel,
            crate_name: crate_name.to_string(),
            class,
            is_bin,
            is_crate_root,
            lines,
            test_mask,
            alloc_mask,
            allows,
            marker_violations,
        }
    }

    /// Is `check` silenced on 0-based line `i` by an allow marker?
    #[must_use]
    pub fn allowed(&self, check: CheckId, i: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.check == check && a.lines.0 <= i && i <= a.lines.1)
    }

    /// Is 0-based line `i` ordinary library code for this check pass
    /// (i.e. not inside a test item)?
    #[must_use]
    pub fn is_code_line(&self, i: usize) -> bool {
        !self.test_mask[i]
    }
}

/// Computes the `cfg(test)` / `#[test]` line mask.
fn test_regions(lines: &[MaskedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        if mask[i] {
            continue; // already inside an outer test region
        }
        let code = &line.code;
        let is_test_attr =
            code.contains("#[test]") || code.contains("#[should_panic") || cfg_attr_is_test(code);
        if !is_test_attr {
            continue;
        }
        if let Some(end) = item_end(lines, i) {
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
        }
    }
    mask
}

/// Does `code` carry a `#[cfg(…)]` attribute that enables the line
/// only under `test`? (`not(test)` groups are stripped first, so
/// `#[cfg(not(test))]` is production code.)
fn cfg_attr_is_test(code: &str) -> bool {
    let Some(start) = code.find("#[cfg(") else {
        return false;
    };
    let inner = &code[start + "#[cfg(".len()..];
    let inner = strip_not_groups(inner);
    inner
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|tok| tok == "test")
}

/// Removes `not(…)` groups (balanced parens) from a cfg argument list.
fn strip_not_groups(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(&['n', 'o', 't', '(']) {
            let mut depth = 1;
            i += 4;
            while i < bytes.len() && depth > 0 {
                match bytes[i] {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    out
}

/// Finds the 0-based line on which the item starting at line `start`
/// ends: the matching `}` of its first body brace, or a `;` outside
/// every bracket (attribute-only lines and signatures flow through).
fn item_end(lines: &[MaskedLine], start: usize) -> Option<usize> {
    let mut depth = 0i64; // () and []
    let mut braces = 0i64;
    for (li, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' => braces += 1,
                '}' => {
                    braces -= 1;
                    if braces == 0 {
                        return Some(li);
                    }
                }
                ';' if braces == 0 && depth == 0 => return Some(li),
                _ => {}
            }
        }
    }
    None
}

/// Finds the 0-based line closing the first braced block at or after
/// line `start` (for `tidy:alloc-free` regions: the next function
/// body).
fn block_end(lines: &[MaskedLine], start: usize) -> Option<usize> {
    let mut braces = 0i64;
    let mut opened = false;
    for (li, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    braces += 1;
                    opened = true;
                }
                '}' => {
                    braces -= 1;
                    if opened && braces == 0 {
                        return Some(li);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Is this comment text documentation (`///`, `//!`, `/**`, `/*!`)?
///
/// The masker strips the `//` opener, so doc comments are the ones
/// whose text begins with `/`, `!`, or `*`. Markers must live in
/// plain `//` comments — doc comments are prose *about* the markers
/// (this crate's own docs would otherwise lint themselves).
fn is_doc_comment(comment: &str) -> bool {
    matches!(comment.chars().next(), Some('/' | '!' | '*'))
}

/// Computes the `tidy:alloc-free` region mask; a marker with no
/// following block is a marker violation.
fn alloc_regions(lines: &[MaskedLine]) -> (Vec<bool>, Vec<(usize, String)>) {
    let mut mask = vec![false; lines.len()];
    let mut violations = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.comment.contains("tidy:alloc-free") || is_doc_comment(&line.comment) {
            continue;
        }
        match block_end(lines, i) {
            Some(end) => {
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
            }
            None => violations.push((
                i,
                "tidy:alloc-free marker with no following block".to_string(),
            )),
        }
    }
    (mask, violations)
}

/// Parses every `tidy:allow(check: reason)` marker. A marker covers
/// its own line and the next line that carries code (so it can sit on
/// its own comment line above the site it justifies).
fn parse_allows(lines: &[MaskedLine]) -> (Vec<Allow>, Vec<(usize, String)>) {
    let mut allows = Vec::new();
    let mut violations = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if is_doc_comment(&line.comment) {
            continue;
        }
        let mut rest = line.comment.as_str();
        while let Some(pos) = rest.find("tidy:allow") {
            rest = &rest[pos + "tidy:allow".len()..];
            let Some(stripped) = rest.strip_prefix('(') else {
                violations.push((i, "tidy:allow must be followed by (check: reason)".into()));
                continue;
            };
            let Some(close) = stripped.find(')') else {
                violations.push((i, "unterminated tidy:allow marker".into()));
                break;
            };
            let body = &stripped[..close];
            rest = &stripped[close + 1..];
            let Some((name, reason)) = body.split_once(':') else {
                violations.push((
                    i,
                    format!("tidy:allow({body}) is missing its `: <reason>` justification"),
                ));
                continue;
            };
            let Some(check) = CheckId::from_name(name.trim()) else {
                violations.push((i, format!("unknown check `{}` in tidy:allow", name.trim())));
                continue;
            };
            if reason.trim().is_empty() {
                violations.push((
                    i,
                    format!("tidy:allow({}) has an empty justification", name.trim()),
                ));
                continue;
            }
            // Cover this line plus the next line carrying code.
            let mut end = i;
            for (j, later) in lines.iter().enumerate().skip(i + 1) {
                if !later.code.trim().is_empty() {
                    end = j;
                    break;
                }
            }
            allows.push(Allow {
                check,
                lines: (i, end),
            });
        }
    }
    (allows, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("x.rs"),
            "demo",
            CrateClass::Product,
            false,
            false,
            src,
        )
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let f = file(src);
        assert_eq!(
            f.test_mask,
            vec![false, true, true, true, true, false],
            "{:?}",
            f.test_mask
        );
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let f = file("#[cfg(not(test))]\nfn prod() {}\n");
        assert!(!f.test_mask[0]);
        assert!(!f.test_mask[1]);
    }

    #[test]
    fn test_attribute_masks_one_item() {
        let src = "#[test]\nfn t() {\n    y.unwrap();\n}\nfn lib() {}\n";
        let f = file(src);
        assert_eq!(f.test_mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let f = file(src);
        assert_eq!(f.test_mask, vec![true, true, false]);
    }

    #[test]
    fn semicolons_inside_brackets_do_not_end_items() {
        let src = "#[cfg(test)]\nfn t(x: [u8; 3]) {\n    body();\n}\nfn lib() {}\n";
        let f = file(src);
        assert_eq!(f.test_mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn alloc_free_region_covers_the_next_block() {
        let src =
            "// tidy:alloc-free\nfn hot(&self) {\n    work();\n}\nfn cold() { Vec::new(); }\n";
        let f = file(src);
        assert_eq!(f.alloc_mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn dangling_alloc_free_marker_is_a_violation() {
        let f = file("fn f() {}\n// tidy:alloc-free\n");
        assert_eq!(f.marker_violations.len(), 1);
    }

    #[test]
    fn allow_markers_cover_their_line_and_the_next_code_line() {
        let src = "// tidy:allow(panic: cannot happen, checked above)\n// explanatory prose\nx.unwrap();\ny.unwrap();\n";
        let f = file(src);
        assert!(f.allowed(CheckId::Panic, 0));
        assert!(f.allowed(CheckId::Panic, 2), "skips comment-only lines");
        assert!(!f.allowed(CheckId::Panic, 3));
        assert!(!f.allowed(CheckId::WallClock, 2), "only the named check");
    }

    #[test]
    fn trailing_allow_marker_covers_its_own_line() {
        let f = file("x.unwrap(); // tidy:allow(panic: invariant)\n");
        assert!(f.allowed(CheckId::Panic, 0));
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let f =
            file("// tidy:allow(panic)\n// tidy:allow(panic:   )\n// tidy:allow(nonsense: why)\n");
        assert_eq!(f.marker_violations.len(), 3, "{:?}", f.marker_violations);
    }

    #[test]
    fn doc_comments_never_act_as_markers() {
        let src = "/// Use `// tidy:alloc-free` above hot fns and silence\n/// sites with `// tidy:allow(panic: why)`.\nfn f() {\n    let v = Vec::new();\n}\n";
        let f = file(src);
        assert!(f.alloc_mask.iter().all(|&m| !m), "{:?}", f.alloc_mask);
        assert!(!f.allowed(CheckId::Panic, 2));
        assert!(f.marker_violations.is_empty(), "{:?}", f.marker_violations);
    }

    #[test]
    fn check_names_roundtrip() {
        for c in ALL_CHECKS {
            assert_eq!(CheckId::from_name(c.name()), Some(c));
        }
        assert_eq!(CheckId::from_name("alloc"), Some(CheckId::AllocFree));
        assert_eq!(CheckId::from_name("bogus"), None);
    }
}
