//! The engine: walk the workspace, lex every file, run the rules, and
//! apply the `lint:allow` escape hatch.
//!
//! Allow semantics: a comment `lint:allow(<rule>): <reason>` suppresses
//! violations of `<rule>` on its *target line* — the line it trails, or
//! the next line with code when it stands alone. The engine itself
//! enforces the meta-rules: the reason must be non-empty, the rule name
//! must exist, and an allow that suppresses nothing is dead weight and
//! reported as such (so the allow-list can only grow deliberately).

use crate::config::{path_matches, Config};
use crate::diag::Violation;
use crate::lexer::{split_lines, Line};
use crate::rules::{self, SourceFile, RULE_NAMES};
use crate::{dataflow, graph};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One *used* `lint:allow` comment — the allow inventory in the
/// fix-report makes every suppression and its stated reason auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// Rule being suppressed.
    pub rule: String,
    /// Path relative to the lint root, `/`-separated.
    pub path: String,
    /// 1-based line of the allow comment.
    pub line: usize,
    /// The stated reason (engine-enforced non-empty).
    pub reason: String,
}

/// Full lint result: surviving violations plus the allow inventory.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Used allows sorted by (path, line).
    pub allows: Vec<AllowRecord>,
}

/// Lint everything under `root` with `config`; returns violations
/// sorted by (path, line, rule).
pub fn run(root: &Path, config: &Config) -> io::Result<Vec<Violation>> {
    Ok(run_report(root, config)?.violations)
}

/// Like [`run`], but also returns the allow inventory.
pub fn run_report(root: &Path, config: &Config) -> io::Result<Report> {
    check_configured_paths(root, config)?;
    let mut paths = Vec::new();
    collect_rs_files(root, root, &config.exclude, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = fs::read_to_string(path)?;
        files.push(load_source(root, path, &text));
    }
    Ok(lint_files(&files, config))
}

/// Every path `config` names must be a file or directory under `root`.
/// Scoping matches by prefix, so a stale or misspelt entry would
/// silently scope nothing and turn its rule off for the file it meant.
fn check_configured_paths(root: &Path, config: &Config) -> io::Result<()> {
    let sections: [(&str, &[String]); 11] = [
        ("determinism", &config.determinism_paths),
        ("panic-safety", &config.panic_safety_paths),
        ("tsc-arithmetic", &config.tsc_arithmetic_paths),
        ("unsafe-hygiene", &config.unsafe_hygiene_paths),
        ("clock-hygiene", &config.clock_hygiene_paths),
        ("entry-points", &config.entry_points),
        ("panic-safety-transitive", &config.panic_transitive_paths),
        ("hot-path-alloc", &config.hot_path_alloc_paths),
        ("atomic-ordering", &config.atomic_ordering_paths),
        ("shim-drift", config.shim_dir.as_slice()),
        ("engine", &config.exclude),
    ];
    for (section, paths) in sections {
        for rel in paths {
            let path = root.join(rel);
            if !path.is_file() && !path.is_dir() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "lint.toml [{section}]: `{rel}` is neither a file nor a directory under {}",
                        root.display()
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Lint in-memory sources — `(rel_path, text)` pairs — with the same
/// two-pass engine the filesystem walk uses. This is how the tests
/// mutate a fixture (e.g. delete one call edge) without touching disk.
pub fn run_sources(sources: &[(&str, &str)], config: &Config) -> Report {
    let mut files: Vec<SourceFile> = sources
        .iter()
        .filter(|(rel, _)| !path_matches(rel, &config.exclude))
        .map(|(rel, text)| load_source_rel(rel, text))
        .collect();
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    lint_files(&files, config)
}

/// Both passes over an already-loaded file set.
fn lint_files(files: &[SourceFile], config: &Config) -> Report {
    // Pass 1 rules: per-line, per-file.
    let mut violations = Vec::new();
    for file in files {
        if path_applies(&file.rel, &config.determinism_paths, false) {
            violations.extend(rules::determinism(file));
        }
        if path_applies(&file.rel, &config.panic_safety_paths, false) {
            violations.extend(rules::panic_safety(file));
        }
        if path_applies(&file.rel, &config.tsc_arithmetic_paths, true) {
            violations.extend(rules::tsc_arithmetic(file));
        }
        if path_applies(&file.rel, &config.unsafe_hygiene_paths, true) {
            violations.extend(rules::unsafe_hygiene(file));
        }
        if path_applies(&file.rel, &config.clock_hygiene_paths, false) {
            violations.extend(rules::clock_hygiene(file));
        }
    }
    if let Some(shim_dir) = &config.shim_dir {
        violations.extend(rules::shim_drift(files, shim_dir));
    }

    // Pass 2 rules: symbol table + call graph + atomic inventory.
    let symbols = graph::Symbols::build(files);
    let mut graph_violations = dataflow::run(files, &symbols, config);
    dataflow::dedup_by_site(&mut graph_violations);
    violations.extend(graph_violations);

    let (mut violations, mut allows) = apply_allows(files, violations);
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    allows.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Report { violations, allows }
}

/// Empty path list means "everywhere" for the workspace-wide rules.
fn path_applies(rel: &str, paths: &[String], default_everywhere: bool) -> bool {
    if paths.is_empty() {
        default_everywhere
    } else {
        path_matches(rel, paths)
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = relative(root, &path);
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == ".git" || name == "target" || path_matches(&rel, exclude) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn load_source(root: &Path, path: &Path, text: &str) -> SourceFile {
    load_source_rel(&relative(root, path), text)
}

fn load_source_rel(rel: &str, text: &str) -> SourceFile {
    let lines = split_lines(text);
    let in_test = test_mask(&lines);
    let is_test_code = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    SourceFile {
        rel: rel.to_string(),
        lines,
        in_test,
        is_test_code,
    }
}

/// Per-line flag: inside a `#[cfg(test)]` item (the attribute line, the
/// item header, and everything up to its closing brace).
pub fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut pending = false; // saw #[cfg(test)], waiting for the body brace
    let mut close_at: Option<usize> = None; // depth at which the region ends

    for (i, line) in lines.iter().enumerate() {
        if line.code.contains("#[cfg(test)]") {
            pending = true;
        }
        if pending || close_at.is_some() {
            mask[i] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending && close_at.is_none() {
                        close_at = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if close_at == Some(depth) {
                        close_at = None;
                    }
                }
                _ => {}
            }
        }
    }
    mask
}

/// One parsed `lint:allow` comment.
struct Allow {
    line_idx: usize,
    target_line: Option<usize>, // 1-based; None when no code line follows
    rule: String,
    reason: String,
    used: bool,
}

fn apply_allows(
    files: &[SourceFile],
    violations: Vec<Violation>,
) -> (Vec<Violation>, Vec<AllowRecord>) {
    let mut out = Vec::new();
    let mut allows_by_file: Vec<(usize, Vec<Allow>)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let (allows, mut syntax_violations) = parse_allows(file);
        out.append(&mut syntax_violations);
        if !allows.is_empty() {
            allows_by_file.push((fi, allows));
        }
    }

    for v in violations {
        let suppressed = allows_by_file.iter_mut().any(|(fi, allows)| {
            files[*fi].rel == v.path
                && allows.iter_mut().any(|a| {
                    let hit = a.rule == v.rule && a.target_line == Some(v.line);
                    if hit {
                        a.used = true;
                    }
                    hit
                })
        });
        if !suppressed {
            out.push(v);
        }
    }

    let mut records = Vec::new();
    for (fi, allows) in &allows_by_file {
        for a in allows {
            if a.used {
                records.push(AllowRecord {
                    rule: a.rule.clone(),
                    path: files[*fi].rel.clone(),
                    line: a.line_idx + 1,
                    reason: a.reason.clone(),
                });
            } else {
                out.push(Violation {
                    rule: "allow-syntax",
                    path: files[*fi].rel.clone(),
                    line: a.line_idx + 1,
                    message: format!(
                        "`lint:allow({})` suppresses nothing on its target line; \
                         remove it (the allow-list must not grow stale)",
                        a.rule
                    ),
                });
            }
        }
    }
    (out, records)
}

fn parse_allows(file: &SourceFile) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut violations = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        // Doc comments (`///` → "/ …", `//!` → "! …" after the lexer
        // strips `//`) are documentation and may *mention* the allow
        // syntax; only plain comments carry directives.
        if line.comment.starts_with('/') || line.comment.starts_with('!') {
            continue;
        }
        let Some(pos) = line.comment.find("lint:allow") else {
            continue;
        };
        let mut bad = |message: String| {
            violations.push(Violation {
                rule: "allow-syntax",
                path: file.rel.clone(),
                line: i + 1,
                message,
            });
        };
        let rest = &line.comment[pos + "lint:allow".len()..];
        let Some(rest) = rest.strip_prefix('(') else {
            bad("malformed allow: expected `lint:allow(<rule>): <reason>`".into());
            continue;
        };
        let Some((rule, after)) = rest.split_once(')') else {
            bad("malformed allow: missing `)` after the rule name".into());
            continue;
        };
        let rule = rule.trim().to_string();
        if !RULE_NAMES.contains(&rule.as_str()) {
            bad(format!(
                "unknown rule `{rule}` in allow; known rules: {}",
                RULE_NAMES.join(", ")
            ));
            continue;
        }
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(format!(
                "`lint:allow({rule})` carries no reason; write \
                 `lint:allow({rule}): <why the invariant holds>`"
            ));
            continue;
        }
        allows.push(Allow {
            line_idx: i,
            target_line: allow_target(file, i),
            rule,
            reason: reason.to_string(),
            used: false,
        });
    }
    (allows, violations)
}

/// The 1-based line an allow at `idx` applies to: its own line when it
/// trails code, otherwise the next line with code.
fn allow_target(file: &SourceFile, idx: usize) -> Option<usize> {
    if !file.lines[idx].code.trim().is_empty() {
        return Some(idx + 1);
    }
    file.lines
        .iter()
        .enumerate()
        .skip(idx + 1)
        .find(|(_, l)| !l.code.trim().is_empty())
        .map(|(i, _)| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let lines = split_lines(
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn prod2() {}\n",
        );
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn doc_comments_may_mention_allow_syntax() {
        let file = SourceFile {
            rel: "x.rs".into(),
            lines: split_lines(
                "//! Escape hatch: `lint:allow(<rule>): <reason>`.\n/// One parsed `lint:allow` comment.\nfn f() {}\n",
            ),
            in_test: vec![false; 3],
            is_test_code: false,
        };
        let (allows, violations) = parse_allows(&file);
        assert!(allows.is_empty());
        assert!(violations.is_empty());
    }

    #[test]
    fn allow_targets() {
        let file = SourceFile {
            rel: "x.rs".into(),
            lines: split_lines(
                "// lint:allow(determinism): keyed lookups only\n\nuse std::collections::HashMap;\nlet x = 1; // lint:allow(panic-safety): trailing\n",
            ),
            in_test: vec![false; 4],
            is_test_code: false,
        };
        assert_eq!(allow_target(&file, 0), Some(3));
        assert_eq!(allow_target(&file, 3), Some(4));
    }
}
