//! DESIGN.md names real code. Every backticked module path in §2–§7
//! (`core::problem`, `crates/sched::backfill`, `core::{ga, pareto}`)
//! must resolve to a file or directory under `crates/<crate>/src`, and
//! every `*.rs` file named in §7's architecture diagram must exist under
//! `crates/*/src` or `crates/*/tests`. A module that is renamed, merged
//! or deleted without its design entry fails here.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The text from the `## {from}.` heading up to the `## {to}.` heading.
fn sections(doc: &str, from: u32, to: u32) -> &str {
    let start = doc.find(&format!("\n## {from}. ")).expect("start heading present");
    let end = doc.find(&format!("\n## {to}. ")).expect("end heading present");
    &doc[start..end]
}

/// Splits markdown into the prose outside fenced code blocks and the
/// fenced blocks themselves.
fn split_fences(text: &str) -> (String, Vec<String>) {
    let mut prose = String::new();
    let mut blocks = Vec::new();
    let mut block: Option<String> = None;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            match block.take() {
                Some(b) => blocks.push(b),
                None => block = Some(String::new()),
            }
        } else if let Some(b) = block.as_mut() {
            b.push_str(line);
            b.push('\n');
        } else {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    assert!(block.is_none(), "unterminated code fence");
    (prose, blocks)
}

/// The crate directories under `crates/`.
fn crate_names() -> Vec<String> {
    fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Checks one `crate::module[::item]` path (no braces), returning why
/// it does not resolve. The first segment must be a module file or
/// directory; deeper lowercase segments descend while modules exist and
/// may otherwise name items (functions, constants). Capitalised segments
/// name types and end the walk; a path whose first segment is a type is
/// a crate-root item, not a module path.
fn check_path(krate: &str, rest: &str) -> Result<(), String> {
    let mut dir = root().join("crates").join(krate).join("src");
    for (i, seg) in rest.split("::").map(str::trim).enumerate() {
        let is_module_name = seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !is_module_name {
            break;
        }
        // A module is `seg.rs` or `seg/`; its submodules live in `seg/`.
        if dir.join(seg).is_dir() || dir.join(format!("{seg}.rs")).is_file() {
            dir = dir.join(seg);
        } else if i == 0 {
            return Err(format!("no crates/{krate}/src/{seg}.rs or directory"));
        } else {
            break;
        }
    }
    Ok(())
}

/// Every `crate::…` path in the inline code spans of `prose`, with the
/// reason each one that fails to resolve fails.
fn unresolved_module_paths(prose: &str) -> Vec<String> {
    let crates = crate_names();
    let mut bad = Vec::new();
    for span in prose.split('`').skip(1).step_by(2) {
        let span = span.trim();
        let path = span.strip_prefix("crates/").unwrap_or(span);
        let path = path.strip_prefix("bbsched_").unwrap_or(path);
        let Some((krate, rest)) = path.split_once("::") else { continue };
        if !crates.iter().any(|c| c == krate) {
            continue;
        }
        let alternatives: Vec<&str> = match rest.strip_prefix('{') {
            Some(list) => list.trim_end_matches('}').split(',').collect(),
            None => vec![rest],
        };
        for alt in alternatives {
            if let Err(why) = check_path(krate, alt.trim()) {
                bad.push(format!("`{span}`: {why}"));
            }
        }
    }
    bad
}

/// Whether a file called `name` exists anywhere below `dir`.
fn exists_below(dir: &Path, name: &str) -> bool {
    let Ok(entries) = fs::read_dir(dir) else { return false };
    entries.filter_map(|e| e.ok()).any(|e| {
        let path = e.path();
        if path.is_dir() {
            exists_below(&path, name)
        } else {
            e.file_name() == name
        }
    })
}

/// The `*.rs` names in `block` that exist under no crate's `src` or
/// `tests`.
fn missing_rs_files(block: &str) -> Vec<String> {
    let crates = crate_names();
    block
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .filter(|w| w.len() > 3 && w.ends_with(".rs"))
        .filter(|name| {
            !crates.iter().any(|c| {
                let krate = root().join("crates").join(c);
                exists_below(&krate.join("src"), name) || exists_below(&krate.join("tests"), name)
            })
        })
        .map(str::to_string)
        .collect()
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md is readable")
}

#[test]
fn module_paths_in_sections_2_to_7_exist() {
    let doc = design();
    let (prose, _) = split_fences(sections(&doc, 2, 8));
    let bad = unresolved_module_paths(&prose);
    assert!(bad.is_empty(), "DESIGN.md §2–§7 names modules that do not exist:\n{}", bad.join("\n"));
}

#[test]
fn files_in_the_section_7_diagram_exist() {
    let doc = design();
    let (_, blocks) = split_fences(sections(&doc, 7, 8));
    assert!(!blocks.is_empty(), "§7 has an architecture diagram");
    let named: usize = blocks.iter().map(|b| b.matches(".rs").count()).sum();
    assert!(named > 0, "§7's diagram names source files");
    let missing: Vec<String> = blocks.iter().flat_map(|b| missing_rs_files(b)).collect();
    assert!(missing.is_empty(), "DESIGN.md §7's diagram names missing files: {missing:?}");
}

#[test]
fn the_checks_catch_what_they_claim_to() {
    let prose = "`core::problem`, `crates/sched::backfill`, `core::{ga, pareto}`, \
                 `sched::config::DynamicWindow`, `policies::AdaptiveBbschedPolicy`, \
                 `core::decision::choose_knee`, `Simulator::run`, `workloads::cori`, \
                 `core::{ga, nope}`";
    assert_eq!(
        unresolved_module_paths(prose),
        vec![
            "`workloads::cori`: no crates/workloads/src/cori.rs or directory".to_string(),
            "`core::{ga, nope}`: no crates/core/src/nope.rs or directory".to_string(),
        ]
    );
    assert_eq!(missing_rs_files("│ service.rs  SchedCore │ gone.rs │"), vec!["gone.rs"]);
}
