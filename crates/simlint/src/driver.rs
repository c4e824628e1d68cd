//! The lint driver: file walking, allow-directive handling, and
//! diagnostic rendering.
//!
//! The driver scans the `src/` and `tests/` trees of the deterministic
//! crates ([`DETERMINISTIC_CRATES`]); `crates/bench` is deliberately
//! absent — its Criterion-style benches measure the simulator with real
//! wall clocks, which is exactly what the rules forbid inside it.
//!
//! Since v2 the whole file set is checked as *one program*: per-file
//! token rules run first, then the item parser and the program-wide
//! passes in [`crate::analysis`] (call-graph taint crosses file and
//! crate boundaries). Suppression marks each allow directive as used;
//! an allow that suppressed nothing becomes a [`STALE_ALLOW`]
//! diagnostic, so the escape-hatch inventory can only shrink.

use std::fs;
use std::path::{Path, PathBuf};

use crate::analysis::{check_program, ProgramFile};
use crate::items::parse_file;
use crate::lexer::{lex, Comment};
use crate::rules::{check_tokens, is_known_rule, Diag, ALLOW_SYNTAX, STALE_ALLOW};

/// Crates whose sources must be deterministic. `crates/bench` is the
/// allowlisted exception (wall-clock measurement is its job).
pub const DETERMINISTIC_CRATES: &[&str] = &["simcore", "simnet", "cluster", "mapreduce", "core"];

/// A parsed `// simlint: allow(<rule>, <reason>)` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Line the directive appears on. It suppresses diagnostics on this
    /// line and the immediately following one (so it can sit above the
    /// offending statement).
    pub line: u32,
    /// Rule being allowed.
    pub rule: String,
    /// Mandatory justification.
    pub reason: String,
}

/// One allow directive in the report's escape-hatch inventory.
#[derive(Clone, Debug)]
pub struct AllowRecord {
    /// Workspace-relative path of the file carrying the directive.
    pub file: String,
    /// Line of the directive.
    pub line: u32,
    /// Rule being allowed.
    pub rule: String,
    /// The audited justification.
    pub reason: String,
}

/// The full result of a lint run: surviving diagnostics plus the
/// inventory of every allow directive in force.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Diagnostics after suppression, globally sorted by
    /// `(file, line, rule, message)`.
    pub diags: Vec<Diag>,
    /// Every well-formed allow directive, sorted by `(file, line, rule)`.
    pub allows: Vec<AllowRecord>,
}

/// Parse allow directives out of a file's comments. Malformed
/// directives (unknown rule, missing reason) become [`ALLOW_SYNTAX`]
/// diagnostics — the escape hatch itself is linted and cannot be
/// suppressed.
pub fn parse_allows(file: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Diag>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("simlint:") {
            rest = &rest[pos + "simlint:".len()..];
            let body = rest.trim_start();
            let Some(args) = body.strip_prefix("allow") else {
                diags.push(Diag {
                    file: file.to_string(),
                    line: c.line,
                    rule: ALLOW_SYNTAX,
                    message: "simlint directive must be `allow(<rule>, <reason>)`".into(),
                });
                continue;
            };
            let args = args.trim_start();
            let Some(open) = args.strip_prefix('(') else {
                diags.push(Diag {
                    file: file.to_string(),
                    line: c.line,
                    rule: ALLOW_SYNTAX,
                    message: "simlint: allow needs parentheses: allow(<rule>, <reason>)".into(),
                });
                continue;
            };
            let Some(close) = open.find(')') else {
                diags.push(Diag {
                    file: file.to_string(),
                    line: c.line,
                    rule: ALLOW_SYNTAX,
                    message: "unclosed simlint: allow(...) directive".into(),
                });
                continue;
            };
            let inner = &open[..close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (inner.trim(), ""),
            };
            if !is_known_rule(rule) {
                diags.push(Diag {
                    file: file.to_string(),
                    line: c.line,
                    rule: ALLOW_SYNTAX,
                    message: format!("unknown rule `{rule}` in simlint: allow directive"),
                });
            } else if reason.is_empty() {
                diags.push(Diag {
                    file: file.to_string(),
                    line: c.line,
                    rule: ALLOW_SYNTAX,
                    message: format!(
                        "simlint: allow({rule}) must give a reason: allow({rule}, <why this \
                         is safe>)"
                    ),
                });
            } else {
                allows.push(Allow {
                    line: c.line,
                    rule: rule.to_string(),
                    reason: reason.to_string(),
                });
            }
        }
    }
    (allows, diags)
}

/// Lint a set of sources as one program. `sources` pairs each
/// diagnostic path with the file's contents; paths should already be
/// sorted for deterministic output (the final diagnostic sort is global
/// anyway).
pub fn lint_sources(sources: &[(String, String)]) -> LintReport {
    struct FileState {
        name: String,
        toks: Vec<crate::lexer::Tok>,
        allows: Vec<(Allow, bool)>, // (directive, used)
    }

    let mut diags: Vec<Diag> = Vec::new();
    let mut states: Vec<FileState> = Vec::new();
    for (name, src) in sources {
        let (toks, comments) = lex(src);
        let (allows, syntax_diags) = parse_allows(name, &comments);
        diags.extend(syntax_diags);
        diags.extend(check_tokens(name, &toks));
        states.push(FileState {
            name: name.clone(),
            toks,
            allows: allows.into_iter().map(|a| (a, false)).collect(),
        });
    }

    // Program-wide passes over the parsed items of every file at once.
    let program: Vec<ProgramFile<'_>> = states
        .iter()
        .map(|s| ProgramFile {
            name: &s.name,
            toks: &s.toks,
            items: parse_file(&s.toks),
        })
        .collect();
    check_program(&program, &mut diags);
    drop(program);

    // Suppression: an allow covers its own line and the next, for its
    // rule, in its file — and is marked used when it fires. Meta rules
    // (allow-syntax, stale-allow) bypass suppression entirely.
    let mut kept: Vec<Diag> = Vec::new();
    for d in diags {
        if d.rule == ALLOW_SYNTAX || d.rule == STALE_ALLOW {
            kept.push(d);
            continue;
        }
        let suppressed = states
            .iter_mut()
            .filter(|s| s.name == d.file)
            .flat_map(|s| s.allows.iter_mut())
            .filter(|(a, _)| a.rule == d.rule && (d.line == a.line || d.line == a.line + 1))
            .map(|(_, used)| *used = true)
            .count()
            > 0;
        if !suppressed {
            kept.push(d);
        }
    }

    // stale-allow: any directive that suppressed nothing is itself an
    // error — the escape-hatch inventory can only shrink.
    for s in &states {
        for (a, used) in &s.allows {
            if !*used {
                kept.push(Diag {
                    file: s.name.clone(),
                    line: a.line,
                    rule: STALE_ALLOW,
                    message: format!(
                        "allow({}) suppresses nothing here — `{}` no longer fires on this line \
                         or the next; delete the stale directive (its reason was: {})",
                        a.rule, a.rule, a.reason
                    ),
                });
            }
        }
    }

    kept.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });

    let mut allows: Vec<AllowRecord> = states
        .iter()
        .flat_map(|s| {
            s.allows.iter().map(|(a, _)| AllowRecord {
                file: s.name.clone(),
                line: a.line,
                rule: a.rule.clone(),
                reason: a.reason.clone(),
            })
        })
        .collect();
    allows.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    LintReport {
        diags: kept,
        allows,
    }
}

/// Lint one source string. `file` is the path used in diagnostics. The
/// source is checked as a self-contained one-file program, so the
/// program-wide passes see only this file.
pub fn check_source(file: &str, src: &str) -> Vec<Diag> {
    lint_sources(&[(file.to_string(), src.to_string())]).diags
}

/// Lint one file on disk. The diagnostic path is `file` made relative
/// to `root` when possible.
pub fn check_file(root: &Path, file: &Path) -> std::io::Result<Vec<Diag>> {
    let src = fs::read_to_string(file)?;
    let rel = file.strip_prefix(root).unwrap_or(file);
    Ok(check_source(&rel.display().to_string(), &src))
}

/// Collect every `*.rs` under the deterministic crates' `src/` and
/// `tests/` trees, sorted for deterministic diagnostic order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for krate in DETERMINISTIC_CRATES {
        for sub in ["src", "tests"] {
            let dir = root.join("crates").join(krate).join(sub);
            if dir.is_dir() {
                walk(&dir, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root` as one program, returning
/// the full report (diagnostics + allow inventory). File order is the
/// sorted relative path order, independent of directory-walk order.
pub fn workspace_report(root: &Path) -> std::io::Result<LintReport> {
    let mut sources = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        sources.push((rel, fs::read_to_string(&file)?));
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(lint_sources(&sources))
}

/// Render a full lint report as JSON: schema marker, rule inventory,
/// diagnostics, and the allow inventory. Every array is pre-sorted, so
/// two runs over the same tree are bit-identical.
pub fn report_to_json(report: &LintReport) -> String {
    use simcore::json::Json;
    let diag_items: Vec<Json> = report
        .diags
        .iter()
        .map(|d| {
            simcore::jobj! {
                "file": d.file.clone(),
                "line": u64::from(d.line),
                "rule": d.rule,
                "message": d.message.clone(),
            }
        })
        .collect();
    let allow_items: Vec<Json> = report
        .allows
        .iter()
        .map(|a| {
            simcore::jobj! {
                "file": a.file.clone(),
                "line": u64::from(a.line),
                "rule": a.rule.clone(),
                "reason": a.reason.clone(),
            }
        })
        .collect();
    let rules: Vec<Json> = crate::rules::RULES
        .iter()
        .map(|(name, _)| Json::Str((*name).to_string()))
        .collect();
    let doc = simcore::jobj! {
        "schema": "simlint-report-v2",
        "rules": rules,
        "count": report.diags.len(),
        "diagnostics": diag_items,
        "allow_count": report.allows.len(),
        "allows": allow_items,
    };
    doc.to_pretty()
}

/// Render diagnostics as JSON (an object with a `diagnostics` array and
/// a `count`), via the workspace's own zero-dependency JSON layer.
pub fn diags_to_json(diags: &[Diag]) -> String {
    use simcore::json::Json;
    let items: Vec<Json> = diags
        .iter()
        .map(|d| {
            simcore::jobj! {
                "file": d.file.clone(),
                "line": u64::from(d.line),
                "rule": d.rule,
                "message": d.message.clone(),
            }
        })
        .collect();
    let doc = simcore::jobj! {
        "count": diags.len(),
        "diagnostics": items,
    };
    doc.to_pretty()
}

/// Render diagnostics in human `file:line: [rule] message` form.
pub fn diags_to_text(diags: &[Diag]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "\
// simlint: allow(no-unordered-iter, keyed access only, never iterated)
use std::collections::HashMap;
";
        assert!(check_source("t.rs", src).is_empty());
        let src =
            "use std::collections::HashMap; // simlint: allow(no-unordered-iter, keyed only)\n";
        assert!(check_source("t.rs", src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_other_rules_or_lines() {
        let src = "\
// simlint: allow(no-unordered-iter, justified)
let t = Instant::now();
";
        let d = check_source("t.rs", src);
        assert!(d.iter().any(|d| d.rule == "no-wall-clock"), "{d:?}");
        assert!(d.iter().all(|d| d.rule != "no-unordered-iter"), "{d:?}");
        // The misdirected allow suppressed nothing, so it is stale.
        assert!(d.iter().any(|d| d.rule == STALE_ALLOW), "{d:?}");

        let src = "\
// simlint: allow(no-unordered-iter, justified)
let a = 1;
use std::collections::HashMap;
";
        let d = check_source("t.rs", src);
        assert!(
            d.iter()
                .any(|d| d.rule == "no-unordered-iter" && d.line == 3),
            "allow must only reach the next line: {d:?}"
        );
        assert!(d.iter().any(|d| d.rule == STALE_ALLOW), "{d:?}");
    }

    #[test]
    fn stale_allow_fires_only_when_unused() {
        let live = "\
// simlint: allow(no-wall-clock, fixture exercises the clock)
let t = Instant::now();
";
        let d = check_source("t.rs", live);
        assert!(d.is_empty(), "a used allow is not stale: {d:?}");

        let stale = "// simlint: allow(no-wall-clock, nothing here anymore)\nlet x = 1;\n";
        let d = check_source("t.rs", stale);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, STALE_ALLOW);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("nothing here anymore"));
    }

    #[test]
    fn stale_allow_cannot_be_allowed_away() {
        // allow(stale-allow, ...) never suppresses anything (meta rules
        // bypass suppression), so it is itself reported stale.
        let src = "\
// simlint: allow(stale-allow, please)
// simlint: allow(no-wall-clock, also stale)
let x = 1;
";
        let d = check_source("t.rs", src);
        assert_eq!(
            d.iter().filter(|d| d.rule == STALE_ALLOW).count(),
            2,
            "{d:?}"
        );
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let d = check_source("t.rs", "// simlint: allow(no-unordered-iter)\nlet x = 1;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, ALLOW_SYNTAX);
        assert!(d[0].message.contains("reason"));
    }

    #[test]
    fn allow_unknown_rule_is_a_diagnostic() {
        let d = check_source("t.rs", "// simlint: allow(no-such-rule, because)\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, ALLOW_SYNTAX);
        assert!(d[0].message.contains("no-such-rule"));
    }

    #[test]
    fn allow_syntax_cannot_self_suppress() {
        // A malformed allow cannot be excused by another allow on the
        // same line — allow-syntax diagnostics bypass suppression.
        let d = check_source(
            "t.rs",
            "// simlint: allow(bogus-rule, x) simlint: allow(allow-syntax, hush)\n",
        );
        assert!(d.iter().any(|d| d.rule == ALLOW_SYNTAX), "{d:?}");
    }

    #[test]
    fn taint_crosses_file_boundaries_in_one_program() {
        let eng = "\
struct Engine;
impl Engine { pub fn step(&mut self) { helpers::tick(); } }
";
        let helpers = "pub fn tick() { let t = Instant::now(); }";
        let report = lint_sources(&[
            ("crates/x/src/engine.rs".into(), eng.into()),
            ("crates/x/src/helpers.rs".into(), helpers.into()),
        ]);
        assert!(
            report.diags.iter().any(|d| d.rule == "determinism-taint"
                && d.file == "crates/x/src/helpers.rs"
                && d.message.contains("Engine::step")),
            "{:?}",
            report.diags
        );
    }

    #[test]
    fn diagnostics_are_globally_sorted() {
        let a = "let t = Instant::now();\nlet u = Instant::now();\n";
        let b = "use std::collections::HashMap;\n";
        // Present files out of order: output must still be path-sorted.
        let report = lint_sources(&[("z.rs".into(), a.into()), ("a.rs".into(), b.into())]);
        let keys: Vec<(String, u32)> = report
            .diags
            .iter()
            .map(|d| (d.file.clone(), d.line))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(report.diags.first().map(|d| d.file.as_str()), Some("a.rs"));
    }

    #[test]
    fn json_output_shape() {
        let diags = vec![Diag {
            file: "a.rs".into(),
            line: 3,
            rule: "no-wall-clock",
            message: "msg".into(),
        }];
        let json = diags_to_json(&diags);
        let doc = simcore::json::Json::parse(&json).expect("valid json");
        assert_eq!(doc.field_u64("count"), Ok(1));
        let arr = doc.field_arr("diagnostics").expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].field_str("rule"), Ok("no-wall-clock"));
        assert_eq!(arr[0].field_u64("line"), Ok(3));
    }

    #[test]
    fn report_json_carries_schema_and_allow_inventory() {
        let src = "\
// simlint: allow(no-unordered-iter, keyed access only)
use std::collections::HashMap;
";
        let report = lint_sources(&[("t.rs".into(), src.into())]);
        let json = report_to_json(&report);
        let doc = simcore::json::Json::parse(&json).expect("valid json");
        assert_eq!(doc.field_str("schema"), Ok("simlint-report-v2"));
        assert_eq!(doc.field_u64("count"), Ok(0));
        assert_eq!(doc.field_u64("allow_count"), Ok(1));
        let allows = doc.field_arr("allows").expect("array");
        assert_eq!(allows[0].field_str("rule"), Ok("no-unordered-iter"));
        assert_eq!(allows[0].field_str("reason"), Ok("keyed access only"));
    }
}
