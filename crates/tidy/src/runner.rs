//! Workspace discovery and check orchestration.
//!
//! The runner reads the workspace `Cargo.toml` members list (plus the
//! root facade package), classifies each crate as product or harness,
//! walks every `src/` tree in sorted order, and runs the enabled
//! checks over each parsed [`SourceFile`]. Everything is std-only and
//! deterministic: same tree in, same report out.

use crate::checks::run_checks;
use crate::model::{CheckId, CrateClass, SourceFile, Violation, ALL_CHECKS};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose job is measurement and reporting: reading the clock
/// and failing loudly are the point there, so only the meta checks
/// apply (see [`CrateClass::Harness`]).
const HARNESS_CRATES: [&str; 1] = ["tepics-bench"];

/// A failure of the runner itself (not a lint finding).
#[derive(Debug)]
pub enum TidyError {
    /// Reading a file or directory failed.
    Io {
        /// The path being read.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// The workspace layout was not understood.
    Workspace(String),
}

impl fmt::Display for TidyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TidyError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            TidyError::Workspace(msg) => write!(f, "workspace error: {msg}"),
        }
    }
}

impl std::error::Error for TidyError {}

/// The outcome of a workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Every finding, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Names of the crates scanned, in scan order.
    pub crates_scanned: Vec<String>,
}

impl Report {
    /// Did the scan find nothing?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Scans the workspace rooted at `root`, running every check except
/// those in `skip`.
pub fn run_workspace(root: &Path, skip: &[CheckId]) -> Result<Report, TidyError> {
    let checks: Vec<CheckId> = ALL_CHECKS
        .into_iter()
        .filter(|c| !skip.contains(c))
        .collect();
    let manifest = read_to_string(&root.join("Cargo.toml"))?;
    let mut crate_dirs = parse_members(&manifest)
        .into_iter()
        .map(|m| root.join(m))
        .collect::<Vec<_>>();
    if crate_dirs.is_empty() {
        return Err(TidyError::Workspace(format!(
            "no workspace members found in {}",
            root.join("Cargo.toml").display()
        )));
    }
    // The root facade package ("tepics") lives beside the workspace
    // table and has its own src/ tree.
    if root.join("src").is_dir() {
        crate_dirs.insert(0, root.to_path_buf());
    }

    let mut violations = Vec::new();
    let mut files_scanned = 0;
    let mut crates_scanned = Vec::new();
    for dir in crate_dirs {
        let crate_manifest = read_to_string(&dir.join("Cargo.toml"))?;
        let Some(name) = parse_crate_name(&crate_manifest) else {
            return Err(TidyError::Workspace(format!(
                "no [package] name in {}",
                dir.join("Cargo.toml").display()
            )));
        };
        let class = classify(&name);
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk_sorted(&src, &mut files)?;
        for path in files {
            let text = read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .map(Path::to_path_buf)
                .unwrap_or_else(|_| path.clone());
            let in_src = path
                .strip_prefix(&src)
                .map(Path::to_path_buf)
                .unwrap_or_else(|_| path.clone());
            let is_bin = in_src == Path::new("main.rs") || in_src.starts_with("bin");
            let is_crate_root = in_src == Path::new("lib.rs");
            let file = SourceFile::parse(rel, &name, class, is_bin, is_crate_root, &text);
            violations.extend(run_checks(&file, &checks));
            files_scanned += 1;
        }
        crates_scanned.push(name);
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        violations,
        files_scanned,
        crates_scanned,
    })
}

/// Walks upward from `start` to the first directory whose
/// `Cargo.toml` declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn classify(name: &str) -> CrateClass {
    if HARNESS_CRATES.contains(&name) {
        CrateClass::Harness
    } else {
        CrateClass::Product
    }
}

fn read_to_string(path: &Path) -> Result<String, TidyError> {
    fs::read_to_string(path).map_err(|e| TidyError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// Collects every `.rs` file under `dir`, depth-first in sorted order
/// so reports are stable across filesystems.
fn walk_sorted(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), TidyError> {
    let entries = fs::read_dir(dir).map_err(|e| TidyError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_sorted(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the `members = […]` entries of the workspace table with a
/// line scan (enough for this repo's hand-written manifest; a TOML
/// parser would be an external dependency).
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let t = line.trim();
        if !in_members {
            if t.starts_with("members") && t.contains('[') {
                in_members = true;
                // Fall through to pick up same-line entries.
            } else {
                continue;
            }
        }
        members.extend(quoted_strings(t));
        if t.contains(']') {
            break;
        }
    }
    members
}

/// Extracts the `[package] name = "…"` value.
fn parse_crate_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package && (t.starts_with("name =") || t.starts_with("name=")) {
            return quoted_strings(t).into_iter().next();
        }
    }
    None
}

/// All `"…"` substrings of `line` (comments stripped first).
fn quoted_strings(line: &str) -> Vec<String> {
    let line = line.split('#').next().unwrap_or(line);
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + close].to_string());
        rest = &rest[open + close + 2..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_from_a_block_list() {
        let manifest =
            "[workspace]\nmembers = [\n    \"crates/util\", # comment\n    \"crates/core\",\n]\n";
        assert_eq!(parse_members(manifest), vec!["crates/util", "crates/core"]);
    }

    #[test]
    fn members_parse_from_a_single_line() {
        let manifest = "[workspace]\nmembers = [\"a\", \"b\"]\n";
        assert_eq!(parse_members(manifest), vec!["a", "b"]);
    }

    #[test]
    fn crate_name_comes_from_the_package_section() {
        let manifest =
            "[package]\nname = \"tepics-core\"\n[dependencies]\nname-like = { path = \"x\" }\n";
        assert_eq!(parse_crate_name(manifest).as_deref(), Some("tepics-core"));
    }

    #[test]
    fn crate_name_ignores_dependency_tables() {
        let manifest = "[dependencies]\nname = \"not-it\"\n";
        assert_eq!(parse_crate_name(manifest), None);
    }

    #[test]
    fn harness_classification_matches_the_bench_crates() {
        assert_eq!(classify("tepics-bench"), CrateClass::Harness);
        assert_eq!(classify("tepics-core"), CrateClass::Product);
        assert_eq!(classify("tepics-tidy"), CrateClass::Product);
    }
}
