//! flipc-analyzer: a workspace-wide static discipline checker.
//!
//! FLIPC's wait-free protocols rest on invariants the compiler cannot see:
//! every shared-memory location has exactly one writer role, every atomic
//! access goes through the instrumentable facade, orderings in cross-thread
//! handshakes are deliberate, and the drain loop never allocates, locks,
//! blocks, or panics. This crate checks those invariants *statically*, on
//! stable Rust, with no compiler plugin: a small lexer ([`lexer`]) and item
//! parser ([`parser`]) feed four rule families ([`rules`]) configured by
//! `analyzer.toml` ([`config`]), producing a schema-versioned report
//! ([`report`]) that CI gates on.
//!
//! The single-writer rule is a genuine cross-check, not a second copy of
//! the map: field owners are derived at run time from
//! [`flipc_core::layout::Layout::classify`], the same map the runtime
//! ownership checker uses, so the static and dynamic checkers can never
//! drift apart silently.

pub mod config;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use config::{Allowlist, Config};
use report::Report;
use rules::{CrateLinks, SourceFile};

/// Collects every `.rs` file under the configured include roots, minus
/// exclusions, as root-relative forward-slash paths in sorted order.
pub fn collect_files(root: &Path, cfg: &Config) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for inc in &cfg.include {
        let dir = if inc == "." {
            root.to_path_buf()
        } else {
            root.join(inc)
        };
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        } else if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir);
        }
    }
    out.sort();
    out.dedup();
    let excluded = |p: &Path| {
        let rel = rel_path(root, p);
        rel.contains("/target/")
            || rel.starts_with("target/")
            || cfg.exclude.iter().any(|e| rel.contains(e.as_str()))
    };
    out.retain(|p| !excluded(p));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Lexes and parses every file in scope.
pub fn scan(root: &Path, cfg: &Config) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_files(root, cfg)? {
        let src = std::fs::read_to_string(&path)?;
        let lexed = lexer::lex(&src);
        let fns = parser::functions(&lexed);
        files.push(SourceFile {
            path: rel_path(root, &path),
            lexed,
            fns,
        });
    }
    Ok(files)
}

/// Reads which crates each workspace crate links, from the manifests:
/// the root package (prefix `src`) and every `crates/<dir>/Cargo.toml`.
/// Only `[dependencies]` count, since hot paths are production code. A
/// root without manifests yields an empty map, which constrains nothing.
pub fn crate_links(root: &Path) -> io::Result<CrateLinks> {
    let mut manifests = vec![("src".to_string(), root.join("Cargo.toml"))];
    if let Ok(dirs) = std::fs::read_dir(root.join("crates")) {
        for entry in dirs {
            let dir = entry?.path();
            let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
            if let Some(name) = name {
                manifests.push((format!("crates/{name}"), dir.join("Cargo.toml")));
            }
        }
    }
    let mut prefix_of = HashMap::new(); // package name -> prefix
    let mut deps_of = HashMap::new(); // prefix -> direct dependency names
    for (prefix, path) in manifests {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        if let (Some(name), deps) = manifest_deps(&src) {
            prefix_of.insert(name, prefix.clone());
            deps_of.insert(prefix, deps);
        }
    }
    let mut links = HashMap::new();
    for start in deps_of.keys() {
        let mut reach = HashSet::new();
        let mut stack = vec![start.clone()];
        while let Some(p) = stack.pop() {
            if reach.insert(p.clone()) {
                stack.extend(deps_of[&p].iter().filter_map(|d| prefix_of.get(d)).cloned());
            }
        }
        links.insert(start.clone(), reach);
    }
    Ok(CrateLinks(links))
}

/// A manifest's `[package] name` and the keys of its `[dependencies]`
/// table (`foo.workspace = true` and `foo = { .. }` both name `foo`).
fn manifest_deps(src: &str) -> (Option<String>, Vec<String>) {
    let mut section = "";
    let mut name = None;
    let mut deps = Vec::new();
    for line in src.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "[dependencies]" => deps.push(key.split('.').next().unwrap_or(key).to_string()),
            _ => {}
        }
    }
    (name, deps)
}

/// Runs the full analysis: scan, all four rule families, allowlist.
pub fn analyze(root: &Path, cfg: &Config, allow: &Allowlist) -> io::Result<Report> {
    let files = scan(root, cfg)?;
    let mut report = rules::run_all(&files, cfg, &crate_links(root)?);
    report.apply_allowlist(allow);
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_deps_reads_package_name_and_runtime_dependencies() {
        let src = r#"
            [package]
            name = "flipc-engine"
            version.workspace = true

            [dependencies]
            flipc-core.workspace = true
            flipc-obs = { path = "../obs" }

            [dev-dependencies]
            proptest.workspace = true
        "#;
        let (name, deps) = manifest_deps(src);
        assert_eq!(name.as_deref(), Some("flipc-engine"));
        assert_eq!(deps, vec!["flipc-core", "flipc-obs"]);
    }

    #[test]
    fn workspace_links_follow_dependencies_transitively() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let links = crate_links(&root).expect("manifests readable");
        let engine = &links.0["crates/engine"];
        assert!(engine.contains("crates/engine") && engine.contains("crates/core"));
        assert!(
            !engine.contains("crates/net"),
            "the engine does not link flipc-net"
        );
        // net -> engine -> core and obs.
        let net = &links.0["crates/net"];
        assert!(net.contains("crates/core") && net.contains("crates/obs"));
    }
}
