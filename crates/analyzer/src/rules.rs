//! The four rule families.
//!
//! * `atomics-facade` — any `std::sync::atomic` / `core::sync::atomic`
//!   path outside the facade is a violation: raw atomics silently escape
//!   both the ownership checker's write hook and loom model switching.
//! * `memory-ordering` — in registered cross-thread handshake functions,
//!   every `Relaxed` ordering must carry an `// ordering:` justification;
//!   the full workspace ordering census lands in the report summary.
//! * `hot-path` — functions registered as hot paths must be transitively
//!   free of allocation, locking, blocking calls, panics, and atomic
//!   read-modify-writes in the default production build.
//! * `single-writer` — inside role-tagged accessor impls, a store to a
//!   layout field whose `WriteOwner` (cross-checked against the real
//!   `flipc_core::layout::Layout`) is the *other* role is a violation.

use std::collections::{BTreeMap, HashMap, HashSet};

use flipc_core::layout::{self, Geometry, Layout, WriteOwner};

use crate::config::Config;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::{FnItem, Gate};
use crate::report::{Finding, Report};

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Root-relative path with forward slashes.
    pub path: String,
    /// Its token stream and comments.
    pub lexed: Lexed,
    /// Functions found in it.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// The innermost function whose body contains token index `i`.
    fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.len())
    }

    /// Symbol name for diagnostics at token index `i`.
    fn symbol_at(&self, i: usize) -> String {
        self.enclosing_fn(i)
            .map(FnItem::qualified)
            .unwrap_or_else(|| "-".to_string())
    }
}

/// Which crates each crate's code can call: itself plus its transitive
/// non-dev dependencies, keyed by crate prefix (`crates/<dir>`, or `src`
/// for the root package). A crate missing from the map is unconstrained.
#[derive(Debug, Default)]
pub struct CrateLinks(pub HashMap<String, HashSet<String>>);

impl CrateLinks {
    fn reaches(&self, from: &str, to: &str) -> bool {
        self.0.get(from).is_none_or(|linked| linked.contains(to))
    }
}

/// Runs every rule family over the scanned files.
pub fn run_all(files: &[SourceFile], cfg: &Config, links: &CrateLinks) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    facade_rule(files, cfg, &mut report);
    ordering_rule(files, cfg, &mut report);
    hot_path_rule(files, cfg, links, &mut report);
    single_writer_rule(files, cfg, &mut report);
    report.sort();
    report
}

// ---------------------------------------------------------------------
// Rule 1: atomics-facade
// ---------------------------------------------------------------------

fn facade_rule(files: &[SourceFile], cfg: &Config, report: &mut Report) {
    for file in files {
        // A `.rs` entry exempts that file; anything else is a directory
        // prefix (the loom shim crate is exempt wholesale).
        let exempt = cfg.facade_exempt.iter().any(|e| {
            if e.ends_with(".rs") {
                file.path.ends_with(e)
            } else {
                file.path.starts_with(e) || file.path.contains(&format!("/{e}"))
            }
        });
        if exempt {
            continue;
        }
        let toks = &file.lexed.toks;
        let mut i = 0;
        while i < toks.len() {
            let root_crate =
                toks[i].kind == TokKind::Ident && (toks[i].text == "std" || toks[i].text == "core");
            if root_crate && path_follows(toks, i + 1, &["sync"]) {
                // `std::sync` — direct `::atomic` segment, or a grouped
                // `::{ ... atomic ... }` import.
                let after_sync = i + 4;
                if path_follows(toks, after_sync, &["atomic"])
                    || grouped_contains(toks, after_sync, "atomic")
                {
                    report.findings.push(Finding::new(
                        "atomics-facade",
                        file.path.clone(),
                        toks[i].line,
                        file.symbol_at(i),
                        format!(
                            "`{}::sync::atomic` used directly; go through \
                             `flipc_core::sync::atomic` so the access gets loom \
                             instrumentation and the ownership-checks write hook",
                            toks[i].text
                        ),
                    ));
                    // One finding per site even if both patterns match.
                    i = after_sync + 2;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// True when tokens at `i` are `:: seg1 [:: seg2 ...]` for the given
/// identifier segments.
fn path_follows(toks: &[Tok], mut i: usize, segs: &[&str]) -> bool {
    for seg in segs {
        if !(toks.get(i).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(seg)))
        {
            return false;
        }
        i += 3;
    }
    true
}

/// True when tokens at `i` are `:: { ... ident ... }` containing `ident`.
fn grouped_contains(toks: &[Tok], i: usize, ident: &str) -> bool {
    if !(toks.get(i).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('{')))
    {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i + 2;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident(ident) {
            return true;
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------------
// Rule 2: memory-ordering
// ---------------------------------------------------------------------

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ordering_rule(files: &[SourceFile], cfg: &Config, report: &mut Report) {
    // Workspace-wide census: every `Ordering::X` mention, classified.
    for file in files {
        let toks = &file.lexed.toks;
        for i in 2..toks.len() {
            if toks[i].kind == TokKind::Ident
                && ORDERINGS.contains(&toks[i].text.as_str())
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
            {
                *report
                    .ordering_census
                    .entry(toks[i].text.clone())
                    .or_insert(0) += 1;
            }
        }
    }
    // Justification audit inside registered handshake functions.
    for spec in &cfg.handshake {
        for (file, f) in resolve_fns(files, spec) {
            let toks = &file.lexed.toks;
            for i in f.body.clone() {
                if !toks[i].is_ident("Relaxed") {
                    continue;
                }
                let line = toks[i].line;
                // Justified by an `// ordering:` comment on the same line
                // or the line directly above.
                let justified =
                    file.lexed.comments.iter().any(|c| {
                        c.line + 1 >= line && c.line <= line && c.text.contains("ordering:")
                    });
                if !justified {
                    report.findings.push(Finding::new(
                        "memory-ordering",
                        file.path.clone(),
                        line,
                        f.qualified(),
                        "`Relaxed` in a cross-thread handshake path without an \
                         `// ordering:` justification — downgrades here are how \
                         wakeups get lost"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

/// Resolves a `"path::fn"` / `"path::Type::fn"` spec against the scanned
/// files. Returns every match (an overloaded name may match several).
fn resolve_fns<'a>(files: &'a [SourceFile], spec: &str) -> Vec<(&'a SourceFile, &'a FnItem)> {
    let Some((path, rest)) = spec.split_once("::") else {
        return Vec::new();
    };
    let (impl_type, fn_name) = match rest.split_once("::") {
        Some((t, f)) => (Some(t), f),
        None => (None, rest),
    };
    let mut out = Vec::new();
    for file in files {
        if !file.path.ends_with(path) {
            continue;
        }
        for f in &file.fns {
            if f.name == fn_name && impl_type.is_none_or(|t| f.impl_type.as_deref() == Some(t)) {
                out.push((file, f));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: hot-path
// ---------------------------------------------------------------------

/// Why a token sequence violates hot-path discipline.
struct Banned {
    what: String,
    class: &'static str,
    line: u32,
}

/// Method names whose call allocates.
const ALLOC_METHODS: [&str; 6] = [
    "to_string",
    "to_owned",
    "to_vec",
    "with_capacity",
    "collect",
    "clone_into",
];
/// `A::b` path calls that allocate.
const ALLOC_PATHS: [(&str, &str); 6] = [
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("String", "from"),
    ("Vec", "with_capacity"),
    ("String", "with_capacity"),
];
/// Macros that allocate or panic.
const BANNED_MACROS: [(&str, &str); 5] = [
    ("panic", "panics"),
    ("todo", "panics"),
    ("unimplemented", "panics"),
    ("format", "allocates"),
    ("vec", "allocates"),
];
/// Blocking calls (scheduler or kernel waits).
const BLOCKING_CALLS: [&str; 4] = ["sleep", "park", "wait_timeout", "recv_timeout"];

fn scan_banned(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<Banned> {
    let mut out = Vec::new();
    let mut push = |what: String, class: &'static str, line: u32| {
        out.push(Banned { what, class, line });
    };
    for i in body.clone() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).is_some_and(|t| t.is_punct(c));
        let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
        // Macros.
        if next_is('!') {
            if let Some((m, class)) = BANNED_MACROS.iter().find(|(m, _)| t.text == *m) {
                push(format!("{m}!"), class, t.line);
            }
            continue;
        }
        // `.unwrap()` / `.expect()`, allocating methods, and atomic RMWs.
        if prev_is_dot && next_is('(') {
            match t.text.as_str() {
                "unwrap" | "expect" => push(format!(".{}()", t.text), "panics", t.line),
                "lock" => push(".lock()".to_string(), "locks", t.line),
                m if ALLOC_METHODS.contains(&m) => push(format!(".{m}()"), "allocates", t.line),
                m if is_rmw(toks, i) => push(format!(".{m}()"), "rmw", t.line),
                _ => {}
            }
            continue;
        }
        // `Box::new`-style path calls.
        if let Some((a, b)) = ALLOC_PATHS.iter().find(|(a, _)| t.text == *a) {
            if path_follows(toks, i + 1, &[b]) {
                push(format!("{a}::{b}"), "allocates", t.line);
                continue;
            }
        }
        // Lock types anywhere in the body (construction, type ascription,
        // `Mutex::lock` paths).
        if t.text == "Mutex" || t.text == "RwLock" {
            push(t.text.clone(), "locks", t.line);
            continue;
        }
        // Blocking calls.
        if BLOCKING_CALLS.contains(&t.text.as_str()) && next_is('(') {
            push(format!("{}()", t.text), "blocks", t.line);
        }
    }
    out
}

/// True when the method call named at `i` is an atomic read-modify-write:
/// `fetch_*`, `compare_exchange[_weak]`, or a `swap` whose arguments name
/// an `Ordering` (which sets it apart from `slice::swap` and friends). The
/// paper's engine synchronizes with loads and stores only.
fn is_rmw(toks: &[Tok], i: usize) -> bool {
    match toks[i].text.as_str() {
        m if m.starts_with("fetch_") => true,
        "compare_exchange" | "compare_exchange_weak" => true,
        "swap" => {
            let mut depth = 0i32;
            for t in &toks[i + 1..] {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("Ordering") {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

/// Rust keywords and flow-control words that look like calls.
const NOT_CALLS: [&str; 14] = [
    "if", "for", "while", "match", "loop", "return", "fn", "let", "as", "in", "move", "ref",
    "break", "continue",
];

/// Names too generic to resolve through the index (ubiquitous trait
/// methods); the direct banned-token scan still covers their call sites.
const TOO_GENERIC: [&str; 13] = [
    "new", "default", "clone", "fmt", "from", "into", "get", "iter", "next", "drop",
    // Pointer arithmetic (`ptr.add`/`ptr.sub`) shares its name with every
    // `fn add` in the crate.
    "add", "sub",
    // `Mutex::lock` shares its name with `TasLock::lock`, the one indexed
    // `fn lock`; every `.lock()` site is already a `locks` finding.
    "lock",
];

/// Extracts callee names from a body: `name(`, `.name(`, and
/// `Type::name(` sequences. The qualifier (when it is a capitalized path
/// segment) lets resolution pick the right `decode` out of a crate full
/// of them. Atomic RMW calls are left out: the site itself is the
/// finding, and the callee is the atomics facade.
fn calls_in(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<(Option<String>, String)> {
    let mut out = Vec::new();
    for i in body {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NOT_CALLS.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].is_ident("fn"))
            && !(i > 0 && toks[i - 1].is_punct('.') && is_rmw(toks, i))
        {
            let qual = (i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].kind == TokKind::Ident
                && toks[i - 3].text.starts_with(char::is_uppercase))
            .then(|| toks[i - 3].text.clone());
            out.push((qual, t.text.clone()));
        }
    }
    out
}

/// The crate-ish prefix of a path: `crates/<name>` or the first component.
fn crate_of(path: &str) -> &str {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some("crates"), Some(c)) => &path[..7 + c.len()],
        (Some(first), _) => first,
        _ => path,
    }
}

/// True when a file can never be linked into a production hot path: test,
/// bench, and example sources, plus configured graph exclusions.
fn off_graph(path: &str, cfg: &Config) -> bool {
    ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|d| path.contains(d))
        || cfg.graph_exclude.iter().any(|e| path.contains(e.as_str()))
}

fn hot_path_rule(files: &[SourceFile], cfg: &Config, links: &CrateLinks, report: &mut Report) {
    // Index production-build functions by bare name.
    let mut index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut indexed = 0usize;
    for (fi, file) in files.iter().enumerate() {
        if off_graph(&file.path, cfg) {
            continue;
        }
        for (gi, f) in file.fns.iter().enumerate() {
            if f.gate == Gate::None && !f.body.is_empty() {
                index.entry(f.name.as_str()).or_default().push((fi, gi));
                indexed += 1;
            }
        }
    }
    report.functions_indexed = indexed;

    for spec in &cfg.hot_path {
        let roots = resolve_fns(files, spec);
        if roots.is_empty() {
            report.findings.push(Finding::new(
                "hot-path",
                spec.split("::").next().unwrap_or(spec),
                0,
                spec.clone(),
                "registered hot-path function not found — fix analyzer.toml \
                 so the discipline surface cannot silently shrink",
            ));
            continue;
        }
        for (root_file, root_fn) in roots {
            let mut seen_sites: HashSet<(String, u32, String)> = HashSet::new();
            let mut visited: HashSet<(String, String)> = HashSet::new();
            walk_hot(
                files,
                &index,
                links,
                root_file,
                root_fn,
                cfg.hot_path_max_depth,
                &mut Vec::new(),
                &mut visited,
                &mut seen_sites,
                root_fn.qualified(),
                &root_file.path.clone(),
                root_fn.line,
                report,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_hot(
    files: &[SourceFile],
    index: &HashMap<&str, Vec<(usize, usize)>>,
    links: &CrateLinks,
    file: &SourceFile,
    f: &FnItem,
    depth_left: usize,
    chain: &mut Vec<String>,
    visited: &mut HashSet<(String, String)>,
    seen_sites: &mut HashSet<(String, u32, String)>,
    root_symbol: String,
    root_path: &str,
    root_line: u32,
    report: &mut Report,
) {
    if !visited.insert((file.path.clone(), f.qualified())) {
        return;
    }
    chain.push(f.qualified());
    // Direct violations in this body.
    for b in scan_banned(&file.lexed.toks, f.body.clone()) {
        let site = (file.path.clone(), b.line, b.what.clone());
        if !seen_sites.insert(site) {
            continue;
        }
        let via = if chain.len() > 1 {
            format!(" (via {})", chain.join(" → "))
        } else {
            String::new()
        };
        report.findings.push(Finding::new(
            "hot-path",
            root_path.to_string(),
            if chain.len() > 1 { root_line } else { b.line },
            root_symbol.clone(),
            format!(
                "hot path {} `{}` at {}:{}{}",
                b.class, b.what, file.path, b.line, via
            ),
        ));
    }
    // Transitive calls.
    if depth_left > 0 {
        for (qual, callee) in calls_in(&file.lexed.toks, f.body.clone()) {
            if qual.is_none() && TOO_GENERIC.contains(&callee.as_str()) {
                continue;
            }
            let Some(cands) = index.get(callee.as_str()) else {
                continue;
            };
            if cands.len() > 8 {
                // Too ambiguous to resolve by name; the direct scan of
                // whatever we *can* reach still applies.
                continue;
            }
            // A `Type::name(..)` call resolves by impl type (with `Self`
            // standing for the enclosing impl); no fallback — a qualified
            // call to an unindexed type is not a graph edge.
            let qual = match qual.as_deref() {
                Some("Self") => f.impl_type.clone(),
                other => other.map(str::to_string),
            };
            let chosen: Vec<(usize, usize)> = if let Some(q) = &qual {
                cands
                    .iter()
                    .filter(|(fi, gi)| files[*fi].fns[*gi].impl_type.as_deref() == Some(q.as_str()))
                    .copied()
                    .collect()
            } else {
                // Bare-name policy: same file, else same crate, else across
                // crates only into a crate this one links, and only when
                // that leaves one candidate. Anything looser wires
                // unrelated `load`s and `send`s into the graph.
                let here = crate_of(&file.path);
                let same_file: Vec<(usize, usize)> = cands
                    .iter()
                    .filter(|(fi, _)| files[*fi].path == file.path)
                    .copied()
                    .collect();
                let same_crate: Vec<(usize, usize)> = cands
                    .iter()
                    .filter(|(fi, _)| crate_of(&files[*fi].path) == here)
                    .copied()
                    .collect();
                let linked: Vec<(usize, usize)> = cands
                    .iter()
                    .filter(|(fi, _)| links.reaches(here, crate_of(&files[*fi].path)))
                    .copied()
                    .collect();
                if !same_file.is_empty() {
                    same_file
                } else if !same_crate.is_empty() {
                    same_crate
                } else if linked.len() == 1 {
                    linked
                } else {
                    Vec::new()
                }
            };
            for (fi, gi) in chosen {
                let nf = &files[fi];
                let nfn = &nf.fns[gi];
                walk_hot(
                    files,
                    index,
                    links,
                    nf,
                    nfn,
                    depth_left - 1,
                    chain,
                    visited,
                    seen_sites,
                    root_symbol.clone(),
                    root_path,
                    root_line,
                    report,
                );
            }
        }
    }
    chain.pop();
}

// ---------------------------------------------------------------------
// Rule 4: single-writer
// ---------------------------------------------------------------------

/// Facade methods that write.
const MUTATORS: [&str; 8] = [
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Builds the layout-constant → owner map by *asking the real layout*:
/// each named constant is resolved to a representative byte offset and
/// classified through `Layout::classify`, so this rule can never drift
/// from the runtime checker's map.
fn owner_map() -> BTreeMap<&'static str, WriteOwner> {
    let lay = Layout::new(Geometry::small()).expect("small geometry is valid");
    let ep0 = lay.endpoint(0);
    let fl = lay.freelist();
    let entries: [(&str, usize); 22] = [
        ("HDR_MAGIC", layout::HDR_MAGIC),
        ("HDR_ENDPOINTS", layout::HDR_ENDPOINTS),
        ("HDR_RING_CAP", layout::HDR_RING_CAP),
        ("HDR_BUFFERS", layout::HDR_BUFFERS),
        ("HDR_MSG_SIZE", layout::HDR_MSG_SIZE),
        ("HDR_EP_ALLOC_LOCK", layout::HDR_EP_ALLOC_LOCK),
        ("HDR_EP_EPOCH", layout::HDR_EP_EPOCH),
        ("HDR_MISADDR_DROPS", layout::HDR_MISADDR_DROPS),
        ("HDR_MISADDR_TAKEN", layout::HDR_MISADDR_TAKEN),
        ("FREE_LOCK", fl + layout::FREE_LOCK),
        ("FREE_TOP", fl + layout::FREE_TOP),
        ("FREE_SLOTS", fl + layout::FREE_SLOTS),
        ("EP_TYPE", ep0 + layout::EP_TYPE),
        ("EP_GEN_ACTIVE", ep0 + layout::EP_GEN_ACTIVE),
        ("EP_IMPORTANCE", ep0 + layout::EP_IMPORTANCE),
        ("EP_RELEASE", ep0 + layout::EP_RELEASE),
        ("EP_ACQUIRE", ep0 + layout::EP_ACQUIRE),
        ("EP_DROPS_TAKEN", ep0 + layout::EP_DROPS_TAKEN),
        ("EP_WAITERS", ep0 + layout::EP_WAITERS),
        ("EP_PROCESS", ep0 + layout::EP_PROCESS),
        ("EP_DROPS", ep0 + layout::EP_DROPS),
        ("EP_LOCK", ep0 + layout::EP_LOCK),
    ];
    let mut map: BTreeMap<&'static str, WriteOwner> = entries
        .into_iter()
        .map(|(name, off)| {
            let fc = lay.classify(off).expect("constant offsets classify");
            (name, fc.owner)
        })
        .collect();
    map.insert(
        "RING_SLOT",
        lay.classify(lay.ring_slot(0, 0))
            .expect("ring classifies")
            .owner,
    );
    map.insert(
        "BUF_HEADER",
        lay.classify(lay.buffer(0))
            .expect("buffer classifies")
            .owner,
    );
    map.insert(
        "BUF_PAYLOAD",
        lay.classify(lay.buffer_payload(0))
            .expect("payload classifies")
            .owner,
    );
    map
}

fn role_matches(owner: WriteOwner, role: &str) -> bool {
    match owner {
        WriteOwner::Dynamic => true,
        WriteOwner::App => role == "app",
        WriteOwner::Engine => role == "engine",
    }
}

fn owner_name(owner: WriteOwner) -> &'static str {
    match owner {
        WriteOwner::App => "app",
        WriteOwner::Engine => "engine",
        WriteOwner::Dynamic => "dynamic",
    }
}

fn single_writer_rule(files: &[SourceFile], cfg: &Config, report: &mut Report) {
    if cfg.writer_scopes.is_empty() {
        return;
    }
    let owners = owner_map();
    // field name → layout constant, from config.
    let field_map: BTreeMap<&str, &str> = cfg
        .writer_fields
        .iter()
        .map(|(f, c)| (f.as_str(), c.as_str()))
        .collect();

    for scope in &cfg.writer_scopes {
        let mut matched = false;
        for file in files.iter().filter(|f| f.path.ends_with(&scope.path)) {
            for f in &file.fns {
                if f.impl_type.as_deref() != Some(scope.impl_type.as_str()) || f.gate == Gate::Test
                {
                    continue;
                }
                matched = true;
                audit_writes(file, f, scope, &owners, &field_map, report);
            }
        }
        if !matched {
            report.findings.push(Finding::new(
                "single-writer",
                scope.path.clone(),
                0,
                scope.impl_type.clone(),
                "registered single-writer scope matches no impl — fix \
                 analyzer.toml so the audited surface cannot silently shrink",
            ));
        }
    }
}

fn audit_writes(
    file: &SourceFile,
    f: &FnItem,
    scope: &crate::config::WriterScope,
    owners: &BTreeMap<&'static str, WriteOwner>,
    field_map: &BTreeMap<&str, &str>,
    report: &mut Report,
) {
    let toks = &file.lexed.toks;
    for i in f.body.clone() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !MUTATORS.contains(&t.text.as_str())
            || i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let recv = receiver_range(toks, i - 1, f.body.start);
        // Last recognized layout key in the receiver expression: either a
        // layout constant name or a configured struct-field name.
        let mut key: Option<&str> = None;
        for rt in &toks[recv] {
            if rt.kind != TokKind::Ident {
                continue;
            }
            if owners.contains_key(rt.text.as_str()) {
                key = owners.get_key_value(rt.text.as_str()).map(|(k, _)| *k);
            } else if let Some(c) = field_map.get(rt.text.as_str()) {
                key = Some(*c);
            }
        }
        let Some(key) = key else { continue };
        let Some(&owner) = owners.get(key) else {
            report.findings.push(Finding::new(
                "single-writer",
                file.path.clone(),
                t.line,
                f.qualified(),
                format!(
                    "`{key}` maps to no known layout constant — fix the \
                     [single_writer.fields] table in analyzer.toml"
                ),
            ));
            continue;
        };
        if !role_matches(owner, &scope.role) {
            report.findings.push(Finding::new(
                "single-writer",
                file.path.clone(),
                t.line,
                f.qualified(),
                format!(
                    "`{}`-role code writes `{key}` (single writer: {}) — a \
                     wrong-role store is a protocol violation per the paper's \
                     one-writer-per-location rule",
                    scope.role,
                    owner_name(owner),
                ),
            ));
        }
    }
}

/// Walks backwards from the `.` before a mutator call, over a postfix
/// chain (`a.b.c`, `a.b(args)`, `a[i]`, `a::b(..)`), returning the token
/// range of the receiver expression.
fn receiver_range(toks: &[Tok], dot: usize, floor: usize) -> std::ops::Range<usize> {
    let mut i = dot as isize - 1;
    let floor = floor as isize;
    let mut start = dot;
    while i >= floor {
        let t = &toks[i as usize];
        match t.kind {
            TokKind::Punct if t.text == ")" || t.text == "]" => {
                // Jump to the matching opener.
                let (open, close) = if t.text == ")" {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0i32;
                while i >= floor {
                    let u = &toks[i as usize];
                    if u.is_punct(close) {
                        depth += 1;
                    } else if u.is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                start = i.max(floor) as usize;
                i -= 1;
            }
            TokKind::Ident | TokKind::Num => {
                start = i as usize;
                // Continue the chain only through `.` or `::`.
                if i > floor && toks[(i - 1) as usize].is_punct('.') {
                    i -= 2;
                } else if i - 2 >= floor
                    && toks[(i - 1) as usize].is_punct(':')
                    && toks[(i - 2) as usize].is_punct(':')
                {
                    i -= 3;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    start..dot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::functions;

    fn file(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let fns = functions(&lexed);
        SourceFile {
            path: path.to_string(),
            lexed,
            fns,
        }
    }

    fn cfg() -> Config {
        Config::parse_str(
            r#"
            [scan]
            include = ["."]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn facade_rule_catches_direct_and_grouped_paths() {
        let f = file(
            "x/a.rs",
            "use std::sync::atomic::AtomicU32;\nuse core::sync::{atomic, Mutex};\nuse crate::sync::atomic::Ordering;\n",
        );
        let r = run_all(&[f], &cfg(), &CrateLinks::default());
        let hits: Vec<u32> = r
            .findings
            .iter()
            .filter(|f| f.rule == "atomics-facade")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![1, 2], "{:?}", r.findings);
    }

    #[test]
    fn ordering_rule_respects_justifications() {
        let src = r#"
            impl Q {
                fn handshake(&self) {
                    // ordering: single-writer location, release pairs below
                    let a = x.load(Ordering::Relaxed);
                    let b = y.load(Ordering::Relaxed);
                }
            }
        "#;
        // Only the *second* Relaxed (line 6) lacks a nearby justification.
        let f = file("x/q.rs", src);
        let mut c = cfg();
        c.handshake = vec!["x/q.rs::Q::handshake".to_string()];
        let r = run_all(&[f], &c, &CrateLinks::default());
        let hits: Vec<u32> = r
            .findings
            .iter()
            .filter(|f| f.rule == "memory-ordering")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![6], "{:?}", r.findings);
        assert!(r.ordering_census["Relaxed"] >= 2);
    }

    #[test]
    fn hot_path_rule_is_transitive() {
        let src = r#"
            fn hot(&mut self) { helper(); }
            fn helper() { let g = m.lock().unwrap(); }
        "#;
        let f = file("x/h.rs", src);
        let mut c = cfg();
        c.hot_path = vec!["x/h.rs::hot".to_string()];
        let r = run_all(&[f], &c, &CrateLinks::default());
        let msgs: Vec<&str> = r
            .findings
            .iter()
            .filter(|f| f.rule == "hot-path")
            .map(|f| f.message.as_str())
            .collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains(".lock()") && m.contains("via hot → helper")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains(".unwrap()")), "{msgs:?}");
    }

    #[test]
    fn hot_path_flags_atomic_rmw_once_at_its_site() {
        let src = r#"
            fn hot(&self) {
                self.n.fetch_add(1, Ordering::Relaxed);
                self.flag.swap(true, Ordering::AcqRel);
                self.slots.swap(0, 1);
                std::mem::swap(&mut a, &mut b);
                self.w.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Relaxed);
            }
            impl Facade {
                fn fetch_add(&self, v: u32, o: Ordering) -> u32 { self.0.fetch_add(v, o) }
            }
        "#;
        let f = file("x/r.rs", src);
        let mut c = cfg();
        c.hot_path = vec!["x/r.rs::hot".to_string()];
        let r = run_all(&[f], &c, &CrateLinks::default());
        let hits: Vec<(u32, &str)> = r
            .findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(
            hits,
            vec![
                (3, "hot path rmw `.fetch_add()` at x/r.rs:3"),
                (4, "hot path rmw `.swap()` at x/r.rs:4"),
                (7, "hot path rmw `.compare_exchange_weak()` at x/r.rs:7"),
            ],
            "slice and mem swaps are not RMWs, and the facade is not walked"
        );
    }

    #[test]
    fn cross_crate_names_resolve_only_into_linked_crates() {
        // `advance` exists in core and in net; the engine links only core,
        // so the call resolves there and the unlinked twin is never walked.
        let engine = file("crates/engine/src/e.rs", "fn hot(&self) { q.advance(); }");
        let core = file(
            "crates/core/src/q.rs",
            "impl EngineQueue { fn advance(&self) { self.p.fetch_add(1, Ordering::Release); } }",
        );
        let net = file(
            "crates/net/src/c.rs",
            "impl ManualClock { fn advance(&self) { self.t.fetch_add(1, Ordering::Release); } }",
        );
        let mut c = cfg();
        c.hot_path = vec!["crates/engine/src/e.rs::hot".to_string()];
        let files = [engine, core, net];
        let hits = |links: &CrateLinks| -> Vec<String> {
            run_all(&files, &c, links)
                .findings
                .iter()
                .map(|f| f.message.clone())
                .collect()
        };
        assert!(
            hits(&CrateLinks::default()).is_empty(),
            "two unconstrained candidates: refused"
        );
        let links = CrateLinks(HashMap::from([(
            "crates/engine".to_string(),
            HashSet::from(["crates/engine".to_string(), "crates/core".to_string()]),
        )]));
        assert_eq!(
            hits(&links),
            vec!["hot path rmw `.fetch_add()` at crates/core/src/q.rs:1 (via hot → EngineQueue::advance)"]
        );
    }

    #[test]
    fn bare_lock_calls_do_not_resolve_to_a_tas_lock() {
        let src = r#"
            fn hot(&self) { let g = self.state.lock(); }
            impl TasLock {
                fn lock(&self) { self.w.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed); }
            }
        "#;
        let f = file("x/l.rs", src);
        let mut c = cfg();
        c.hot_path = vec!["x/l.rs::hot".to_string()];
        let r = run_all(&[f], &c, &CrateLinks::default());
        let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(msgs, vec!["hot path locks `.lock()` at x/l.rs:2"]);
    }

    #[test]
    fn hot_path_skips_cfg_gated_functions() {
        let src = r#"
            fn hot() { on_write(); }
            #[cfg(feature = "ownership-checks")]
            fn on_write() { reg.lock(); }
            #[cfg(not(feature = "ownership-checks"))]
            fn on_write() {}
        "#;
        let f = file("x/g.rs", src);
        let mut c = cfg();
        c.hot_path = vec!["x/g.rs::hot".to_string()];
        let r = run_all(&[f], &c, &CrateLinks::default());
        assert_eq!(
            r.findings.iter().filter(|f| f.rule == "hot-path").count(),
            0,
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn single_writer_rule_cross_checks_the_layout() {
        let src = r#"
            impl EngineSide {
                fn bad(&self) {
                    self.raw.release.store(1, Ordering::Release);
                }
                fn good(&self) {
                    self.raw.process.store(1, Ordering::Release);
                }
            }
        "#;
        let f = file("x/w.rs", src);
        let mut c = cfg();
        c.writer_scopes = vec![crate::config::WriterScope {
            path: "x/w.rs".to_string(),
            impl_type: "EngineSide".to_string(),
            role: "engine".to_string(),
        }];
        c.writer_fields = vec![
            ("release".to_string(), "EP_RELEASE".to_string()),
            ("process".to_string(), "EP_PROCESS".to_string()),
        ];
        let r = run_all(&[f], &c, &CrateLinks::default());
        let hits: Vec<(u32, &str)> = r
            .findings
            .iter()
            .filter(|f| f.rule == "single-writer")
            .map(|f| (f.line, f.symbol.as_str()))
            .collect();
        assert_eq!(hits, vec![(4, "EngineSide::bad")], "{:?}", r.findings);
    }

    #[test]
    fn owner_map_agrees_with_layout_classify() {
        let m = owner_map();
        assert_eq!(m["EP_RELEASE"], WriteOwner::App);
        assert_eq!(m["EP_PROCESS"], WriteOwner::Engine);
        assert_eq!(m["EP_DROPS"], WriteOwner::Engine);
        assert_eq!(m["HDR_MISADDR_DROPS"], WriteOwner::Engine);
        assert_eq!(m["HDR_EP_EPOCH"], WriteOwner::App);
        assert_eq!(m["RING_SLOT"], WriteOwner::App);
        assert_eq!(m["BUF_PAYLOAD"], WriteOwner::Dynamic);
    }
}
