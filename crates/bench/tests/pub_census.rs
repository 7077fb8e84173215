//! rustc's `dead_code` lint cannot see a `pub` item of a library crate, so
//! this census does it instead: every `pub` fn, struct, enum, trait, type,
//! const or static in a library crate's `src/` (not `src/bin/`, not
//! `#[cfg(test)]` code) must be named, as a whole word outside a `//`
//! comment, by some file outside that library — another crate, a bin, a
//! crate's `tests/`, the root `tests/` and `examples/`, or `perf_report/src`
//! (so the benchmark keeps compiling). A file that declares a fn, struct,
//! enum, trait, type, const or static of its own under the same name (any
//! visibility, a method included) names that, not the library's item, so it
//! does not count as a user. An item nobody outside names is made
//! `pub(crate)` or private, after which rustc reports it if it is dead.
//!
//! The exceptions are `pub_census.allow`, one `crate::Name reason` per line
//! (`crate` is the directory under `crates/`). A line whose item is gone or
//! has gained an outside user fails too, so the list only shrinks.
//!
//! The same file keeps `#![forbid(unsafe_code)]` on every library crate
//! root but the ones listed in [`UNSAFE_CRATES`].

use rmcrt_bench::gate::repo_root;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Library crates (directory under `crates/`) whose root may omit
/// `#![forbid(unsafe_code)]`, with the reason.
const UNSAFE_CRATES: &[(&str, &str)] = &[
    (
        "comm",
        "Algorithm 1's wait-free pool (pool.rs) owns raw chunk and slot memory",
    ),
    (
        "core",
        "SegState::step's two get_unchecked payload loads: checked indexing cost 3.2 % of \
         trace_thin_fixed's step time, outside the parent's spread (DESIGN §9)",
    ),
];

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src` without `#[cfg(test)]` items: from the attribute to the brace that
/// closes the item (or its `;`).
fn without_test_code(src: &str) -> String {
    let mut out = String::new();
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        for skipped in lines.by_ref() {
            for c in skipped.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if (opened && depth == 0) || (!opened && skipped.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    out
}

/// `src` with every `//` comment cut off its line (a `//` inside a string
/// literal is kept).
fn without_comments(src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        let mut in_str = false;
        let mut escaped = false;
        let mut prev = ' ';
        let mut end = line.len();
        for (i, c) in line.char_indices() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
            } else if c == '"' {
                in_str = true;
            } else if c == '/' && prev == '/' {
                end = i - 1;
                break;
            }
            prev = c;
        }
        out.push_str(&line[..end]);
        out.push('\n');
    }
    out
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The item a declaration line declares: whether it is plain `pub`, and
/// its name. `None` for any other line.
fn declared_item(line: &str) -> Option<(bool, String)> {
    let mut rest = line.trim_start();
    let mut public = false;
    if let Some(after) = rest.strip_prefix("pub") {
        if let Some(after) = after.strip_prefix(' ') {
            public = true;
            rest = after;
        } else if after.starts_with('(') {
            // `pub(crate)`, `pub(super)`, `pub(in path)`.
            rest = &after[after.find(')')? + 1..];
        }
    }
    let words: Vec<&str> = rest.split_whitespace().collect();
    let mut i = 0;
    // Skip qualifiers: `pub const fn` is a fn, `pub const NAME` a const.
    while match words.get(i) {
        Some(&("unsafe" | "async" | "extern" | "\"C\"")) => true,
        Some(&"const") => matches!(words.get(i + 1), Some(&("fn" | "unsafe"))),
        _ => false,
    } {
        i += 1;
    }
    if !words.get(i).is_some_and(|kind| ITEM_KINDS.contains(kind)) {
        return None;
    }
    i += 1;
    if words.get(i) == Some(&"mut") {
        i += 1;
    }
    let name = words.get(i).and_then(|w| identifiers(w).next())?;
    Some((public, name.to_string()))
}

/// Names of the `pub` items declared in `src` (test code already removed).
fn pub_items(src: &str) -> Vec<String> {
    src.lines()
        .filter_map(declared_item)
        .filter(|(public, _)| *public)
        .map(|(_, name)| name)
        .collect()
}

struct Census {
    /// Library `pub` item declarations, counted one by one.
    declarations: usize,
    /// `crate::Name` of every library `pub` item (deduplicated per crate).
    items: BTreeSet<String>,
    /// The subset that no file outside its library names.
    unused: BTreeSet<String>,
}

fn take_census(root: &Path) -> Census {
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = fs::read_dir(&crates_dir)
        .expect("read crates/")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().join("src/lib.rs").exists())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crate_names.sort();

    // Every file that can name a library item, with the library it belongs
    // to (`None` for code outside every library).
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "perf_report/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    let mut words_outside_of: BTreeMap<&str, BTreeSet<String>> = crate_names
        .iter()
        .map(|c| (c.as_str(), BTreeSet::new()))
        .collect();
    let mut declarations = 0;
    let mut items = BTreeSet::new();
    let mut declared: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for file in &files {
        let src =
            fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let owner = crate_names.iter().find(|c| {
            let lib = crates_dir.join(c).join("src");
            file.starts_with(&lib) && !file.starts_with(lib.join("bin"))
        });
        let code = without_comments(&src);
        let own: BTreeSet<String> = code
            .lines()
            .filter_map(declared_item)
            .map(|(_, name)| name)
            .collect();
        let words: BTreeSet<String> = identifiers(&code)
            .filter(|w| !own.contains(*w))
            .map(str::to_string)
            .collect();
        for (krate, outside) in words_outside_of.iter_mut() {
            if owner.map(String::as_str) != Some(*krate) {
                outside.extend(words.iter().cloned());
            }
        }
        if let Some(krate) = owner {
            for name in pub_items(&without_test_code(&src)) {
                declarations += 1;
                items.insert(format!("{krate}::{name}"));
                declared.entry(krate.as_str()).or_default().insert(name);
            }
        }
    }
    let unused = declared
        .iter()
        .flat_map(|(krate, names)| {
            let outside = &words_outside_of[krate];
            names
                .iter()
                .filter(|n| !outside.contains(*n))
                .map(move |n| format!("{krate}::{n}"))
        })
        .collect();
    Census {
        declarations,
        items,
        unused,
    }
}

#[test]
fn every_library_pub_item_has_an_outside_user_or_an_allowlist_line() {
    let root = repo_root();
    let census = take_census(&root);
    let allow_path = root.join("crates/bench/tests/pub_census.allow");
    let allow_text = fs::read_to_string(&allow_path).expect("read pub_census.allow");
    let mut problems = Vec::new();
    let mut allowed = BTreeSet::new();
    for (n, line) in allow_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (item, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let at = format!("pub_census.allow:{}: {item}", n + 1);
        if reason.trim().is_empty() {
            problems.push(format!("{at} gives no reason"));
        }
        if !allowed.insert(item.to_string()) {
            problems.push(format!("{at} is listed twice"));
        } else if !census.items.contains(item) {
            problems.push(format!(
                "{at} is no longer a library pub item: delete the line"
            ));
        } else if !census.unused.contains(item) {
            problems.push(format!(
                "{at} now has a user outside its crate: delete the line"
            ));
        }
    }
    for item in census.unused.difference(&allowed) {
        problems.push(format!(
            "{item} is pub but nothing outside its crate names it: make it pub(crate) or private \
             (or add `{item} <reason>` to crates/bench/tests/pub_census.allow)"
        ));
    }
    println!(
        "pub census: {} library pub declarations ({} distinct crate::name), {} with no outside \
         user, {} allowlist lines",
        census.declarations,
        census.items.len(),
        census.unused.len(),
        allowed.len()
    );
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn every_library_crate_root_forbids_unsafe_code() {
    let root = repo_root();
    let mut problems = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let lib = dir.join("src/lib.rs");
        let Ok(src) = fs::read_to_string(&lib) else {
            continue;
        };
        let name = dir
            .file_name()
            .expect("crate dir name")
            .to_string_lossy()
            .into_owned();
        let forbids = src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]");
        let excepted = UNSAFE_CRATES.iter().any(|(c, _)| *c == name);
        match (forbids, excepted) {
            (false, false) => problems.push(format!(
                "crates/{name}/src/lib.rs lacks #![forbid(unsafe_code)]"
            )),
            (true, true) => problems.push(format!(
                "crates/{name} forbids unsafe code now: delete it from UNSAFE_CRATES"
            )),
            _ => {}
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
