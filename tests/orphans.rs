//! Does every module of a library crate have a caller? The workspace is
//! closed — no registry dependents, `src/lib.rs` is a re-export facade —
//! so a module is needed only if the product, a bench artefact or the
//! frozen benchmark reaches it, or if tests hold other code to it. This
//! test reads the source tree and asks, for each module file of a
//! library crate: does its name (`<mod>::`) or the name of one of its
//! top-level `pub` items occur in the non-`#[cfg(test)]` part of some
//! *other* file under `crates/*/src`, `crates/bench` or `benchmark/src`?
//! Comment lines do not count, nor do the `mod` / `pub use` lines of a
//! `lib.rs`, the `src/lib.rs` facade, `tests/` or `examples/`. The
//! modules kept only as oracles are named in [`ORACLES`], each with the
//! test that needs it.
//!
//! After adding a `pub mod`, run `cargo test --test orphans`.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const LIBS: [&str; 11] = [
    "align",
    "core",
    "eval",
    "filter",
    "genome",
    "hetsim",
    "index",
    "mappers",
    "obs",
    "prefilter",
    "serve",
];

/// Modules no shipped code reaches, kept because tests compare other
/// code against them: `(module, who needs it)`.
const ORACLES: &[(&str, &str)] = &[
    (
        "index::bwt",
        "byte-per-symbol BWT that tests/fm_kernel.rs scans to check the packed rank kernel",
    ),
    (
        "index::lcp",
        "repute-bench's workload test checks the synthetic reference's repeat mass with it",
    ),
    (
        "mappers::brute",
        "exhaustive scan the RazerS3 subset test, in the same file, holds a full-sensitivity mapper to",
    ),
];

/// The identifiers of `code`, and those directly followed by `::`.
fn identifiers(code: &str) -> (HashSet<&str>, HashSet<&str>) {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let (mut all, mut paths) = (HashSet::new(), HashSet::new());
    let mut rest = code;
    while let Some(start) = rest.find(is_ident) {
        let tail = &rest[start..];
        let len = tail.find(|c| !is_ident(c)).unwrap_or(tail.len());
        all.insert(&tail[..len]);
        if tail[len..].starts_with("::") {
            paths.insert(&tail[..len]);
        }
        rest = &tail[len..];
    }
    (all, paths)
}

/// `source` up to its `#[cfg(test)]` module, without comment lines; of a
/// `lib.rs`, also without its `mod` and `pub use` statements.
fn shipped_code(path: &str, source: &str) -> String {
    let is_lib = path.ends_with("/lib.rs");
    let mut code = String::new();
    let mut in_use = false;
    for line in source.lines() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if is_lib {
            if in_use || trimmed.starts_with("pub use ") {
                in_use = !trimmed.ends_with(';');
                continue;
            }
            if trimmed.starts_with("pub mod ") || trimmed.starts_with("mod ") {
                continue;
            }
        }
        code.push_str(line);
        code.push('\n');
    }
    code
}

/// `crates/<lib>/src/<a>/<b>.rs` → `<lib>::<a>::<b>`; `None` for a
/// `lib.rs` and for files that are not library-crate modules.
fn module_of(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, rest) = rest.split_once("/src/")?;
    let module = rest.strip_suffix(".rs")?;
    (LIBS.contains(&krate) && module != "lib")
        .then(|| format!("{krate}::{}", module.replace('/', "::")))
}

/// Names of the items declared `pub` at the top level of `code`; of a
/// file with none — one that only adds `impl` blocks to its parent's
/// types — the names of its `pub` methods.
fn pub_items(code: &str) -> Vec<&str> {
    const KINDS: [&str; 8] = [
        "const fn ",
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
    ];
    let declared = |nested: bool| -> Vec<&str> {
        code.lines()
            .filter_map(|line| {
                let line = if nested { line.trim_start() } else { line };
                let decl = line.strip_prefix("pub ")?;
                let name = KINDS.iter().find_map(|kind| decl.strip_prefix(kind))?;
                let end = name.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
                Some(&name[..end])
            })
            .collect()
    };
    let top_level = declared(false);
    if top_level.is_empty() {
        declared(true)
    } else {
        top_level
    }
}

fn is_caller(path: &str) -> bool {
    path.starts_with("benchmark/src/")
        || path.starts_with("crates/bench/")
        || (path.starts_with("crates/") && path.contains("/src/"))
}

/// What is wrong with `tree` (`(path from the repository root, source)`
/// per file): the library modules no shipped code reaches and `oracles`
/// does not excuse, and the entries of `oracles` that excuse nothing — no
/// reason given, a module that does not exist or one that shipped code
/// does reach.
fn orphans(tree: &[(String, String)], oracles: &[(&str, &str)]) -> Vec<String> {
    let shipped: Vec<(&str, String)> = tree
        .iter()
        .filter(|(path, _)| is_caller(path))
        .map(|(path, source)| (path.as_str(), shipped_code(path, source)))
        .collect();
    let tokens: Vec<_> = shipped
        .iter()
        .map(|(path, code)| (*path, identifiers(code)))
        .collect();
    let mut found = Vec::new();
    let mut excused = HashSet::new();
    for (path, code) in &shipped {
        let Some(module) = module_of(path) else {
            continue;
        };
        let name = module.rsplit("::").next().expect("a module name");
        let items = pub_items(code);
        let reached = tokens.iter().any(|(other, (all, paths))| {
            other != path && (paths.contains(name) || items.iter().any(|item| all.contains(item)))
        });
        if reached {
            continue;
        }
        match oracles.iter().find(|(name, _)| *name == module) {
            Some((_, reason)) if !reason.is_empty() => {
                excused.insert(module);
            }
            _ => found.push(module),
        }
    }
    for (name, _) in oracles {
        if !excused.contains(*name) {
            found.push(format!("{name} (oracle entry that excuses nothing)"));
        }
    }
    found.sort();
    found
}

fn read_tree(root: &Path, dir: &str, tree: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        let path = format!("{dir}/{name}");
        if root.join(&path).is_dir() {
            if name != "target" {
                read_tree(root, &path, tree);
            }
        } else if name.ends_with(".rs") {
            let source = fs::read_to_string(root.join(&path)).expect("readable source");
            tree.push((path, source));
        }
    }
}

#[test]
fn every_library_module_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    for dir in ["crates", "benchmark/src"] {
        read_tree(root, dir, &mut tree);
    }
    assert!(
        tree.iter().filter(|(p, _)| module_of(p).is_some()).count() > 50,
        "the source tree was not found under {}",
        root.display()
    );
    let found = orphans(&tree, ORACLES);
    assert!(
        found.is_empty(),
        "library modules nothing calls (delete them, or name the test that \
         needs one in ORACLES): {found:#?}"
    );
}

#[test]
fn the_check_names_an_orphan_and_a_module_only_tests_reach() {
    let file = |path: &str, source: &str| (path.to_string(), source.to_string());
    let tree = vec![
        file(
            "crates/align/src/lib.rs",
            "//! See [`orphan::Lonely`].\npub mod orphan;\npub mod tested;\npub mod used;\n\
             pub use orphan::{\n    Lonely,\n};\n",
        ),
        file(
            "crates/align/src/orphan.rs",
            "pub struct Lonely;\nimpl Lonely {\n    pub fn new() -> Lonely {\n        Lonely\n    }\n}\n\
             #[cfg(test)]\nmod tests {\n    use super::Lonely;\n}\n",
        ),
        file("crates/align/src/tested.rs", "pub fn only_tests_call() {}\n"),
        file("crates/align/src/used.rs", "pub fn helper() {}\n"),
        file(
            "crates/core/src/mapper.rs",
            "// orphan::Lonely is not called here\npub fn run() {\n    repute_align::used::helper();\n}\n\
             #[cfg(test)]\nmod tests {\n    use repute_align::orphan::Lonely;\n}\n",
        ),
        file("crates/cli/src/main.rs", "fn main() {\n    repute_core::mapper::run();\n}\n"),
        file("src/lib.rs", "pub use repute_align::orphan::Lonely;\n"),
        file("examples/show.rs", "use repute_align::orphan::Lonely;\n"),
        file("tests/props.rs", "use repute_align::tested::only_tests_call;\n"),
    ];
    assert_eq!(orphans(&tree, &[]), ["align::orphan", "align::tested"]);
    // Naming `tested` an oracle, with the test that needs it, excuses it;
    // an entry without a reason, for a module shipped code reaches or for
    // a file that is gone excuses nothing and is itself reported.
    assert_eq!(
        orphans(&tree, &[("align::tested", "tests/props.rs")]),
        ["align::orphan"]
    );
    assert_eq!(
        orphans(
            &tree,
            &[
                ("align::tested", ""),
                ("align::used", "reached"),
                ("align::gone", "no such file")
            ]
        ),
        [
            "align::gone (oracle entry that excuses nothing)",
            "align::orphan",
            "align::tested",
            "align::tested (oracle entry that excuses nothing)",
            "align::used (oracle entry that excuses nothing)"
        ]
    );
}
