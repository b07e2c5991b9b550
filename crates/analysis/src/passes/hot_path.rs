//! The hot-path allocation pass: functions reachable from the serve path
//! must not allocate.
//!
//! Roots are functions annotated `// lint: hot-path` (the serve entry
//! points in `crates/runtime/src/engine.rs`). The reachable set is grown
//! by a same-crate call-name closure: every `name(` / `recv.name(` /
//! `Type::name(` site inside a hot function pulls in the crate's
//! functions of that name (restricted to the `impl Type` block when the
//! call is qualified; `Self::name(` means the caller's own impl, and a
//! qualifier that is a trait or a generic parameter — `M::name(` — is
//! resolved by the name alone). A function annotated `// lint: cold-path` stops
//! the expansion — that is how the single-flight recharacterization
//! entry, which legitimately allocates while rebuilding a bank off the
//! serve path, is kept out of the hot set.
//!
//! Inside the hot set these allocate and are banned: `Vec::new`,
//! `Vec::with_capacity`, `Box::new`, `String::new`, `String::from`,
//! `vec![…]`, `format!(…)`, and the method calls `.clone()`, `.to_vec()`,
//! `.to_string()`, `.to_owned()`. `Arc::clone(&x)` is the idiomatic
//! refcount bump and stays legal — which is also the enforcement nudge to
//! write it that way in serve code instead of `.clone()`.
//!
//! Name-based closure over-approximates (an unqualified call pulls in
//! every same-named function in the crate) and never resolves across
//! crates — the zero-allocation fit path in `hebs-core` is pinned by its
//! own FitScratch counters at runtime. Waivers must carry a reason:
//! `// lint: allow(hot-path-alloc) -- why this allocation is bounded`.

use super::{Sink, SourceFile, Workspace};
use crate::lexer::{FnItem, TokenKind};
use std::collections::{BTreeSet, HashMap};

/// Method names that allocate when called on a receiver.
const BANNED_METHODS: [&str; 4] = ["clone", "to_vec", "to_string", "to_owned"];
/// `Type::method` pairs that allocate.
const BANNED_QUALIFIED: [(&str, &str); 5] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
];
/// Macros that allocate.
const BANNED_MACROS: [&str; 2] = ["vec", "format"];

/// Runs the pass over every crate in the workspace that declares at least
/// one `// lint: hot-path` root.
pub fn run(workspace: &Workspace, sink: &mut Sink<'_>) {
    let mut crates: BTreeSet<&str> = BTreeSet::new();
    for file in &workspace.files {
        crates.insert(&file.crate_name);
    }
    for crate_name in crates {
        run_crate(workspace, crate_name, sink);
    }
}

/// A function reference: (index into crate file list, index into that
/// file's function list).
type FnRef = (usize, usize);

fn run_crate(workspace: &Workspace, crate_name: &str, sink: &mut Sink<'_>) {
    let files: Vec<&SourceFile> = workspace.crate_files(crate_name);
    let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
    let mut roots: Vec<FnRef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, item) in file.lexed.functions().iter().enumerate() {
            if item.is_test {
                continue;
            }
            by_name
                .entry(item.name.as_str())
                .or_default()
                .push((fi, gi));
            if file
                .lexed
                .annotation_in(item.item_line..=item.sig_line, "hot-path")
                .is_some()
            {
                roots.push((fi, gi));
            }
        }
    }
    if roots.is_empty() {
        return;
    }
    let impls: BTreeSet<&str> = files
        .iter()
        .flat_map(|file| file.lexed.functions())
        .filter_map(|item| item.qualifier.as_deref())
        .collect();
    let mut abstract_names: BTreeSet<&str> = BTreeSet::new();
    for file in &files {
        collect_abstract_names(file, &mut abstract_names);
    }

    let item = |r: FnRef| -> &FnItem { &files[r.0].lexed.functions()[r.1] };
    let is_cold = |r: FnRef| -> bool {
        let f = item(r);
        files[r.0]
            .lexed
            .annotation_in(f.item_line..=f.sig_line, "cold-path")
            .is_some()
    };

    // Breadth-first closure from the roots; remember which root first
    // reached each function so findings can name the serve entry.
    let mut reached: HashMap<FnRef, String> = HashMap::new();
    let mut queue: Vec<FnRef> = Vec::new();
    for &root in &roots {
        reached.insert(root, item(root).name.clone());
        queue.push(root);
    }
    while let Some(current) = queue.pop() {
        let root = reached[&current].clone();
        for (callee, qualifier) in call_sites(files[current.0], item(current)) {
            let Some(candidates) = by_name.get(callee.as_str()) else {
                continue;
            };
            let qualifier = match qualifier.as_deref() {
                // `Self::f` calls into the caller's own impl.
                Some("Self") => item(current).qualifier.clone(),
                // `M::f` or `Trait::f` names no concrete impl of the crate:
                // the callee is whichever same-named function implements it.
                Some(q) if !impls.contains(q) && abstract_names.contains(q) => None,
                _ => qualifier,
            };
            for &target in candidates {
                if let Some(q) = &qualifier {
                    if item(target).qualifier.as_deref() != Some(q.as_str()) {
                        continue;
                    }
                }
                if is_cold(target) || reached.contains_key(&target) {
                    continue;
                }
                reached.insert(target, root.clone());
                queue.push(target);
            }
        }
    }

    let mut ordered: Vec<(&FnRef, &String)> = reached.iter().collect();
    ordered.sort_by_key(|(r, _)| **r);
    for (&(fi, gi), root) in ordered {
        check_fn(files[fi], &files[fi].lexed.functions()[gi], root, sink);
    }
}

/// Collects the names a qualified call can use for something other than a
/// concrete type: declared traits, and the generic parameters of `fn` and
/// `impl` items. An external type (`Arc::new`) is neither, so its calls
/// still reach no function of the crate.
fn collect_abstract_names<'a>(file: &'a SourceFile, names: &mut BTreeSet<&'a str>) {
    let lexed = &file.lexed;
    let n = lexed.code_len();
    let text = |ci: usize| lexed.code_tok(ci).text.as_str();
    let is_ident = |ci: usize| ci < n && lexed.code_tok(ci).kind == TokenKind::Ident;
    for ci in 0..n {
        if !is_ident(ci) {
            continue;
        }
        let open = match text(ci) {
            "trait" if is_ident(ci + 1) => {
                names.insert(text(ci + 1));
                continue;
            }
            "impl" => ci + 1,
            "fn" => ci + 2,
            _ => continue,
        };
        if open >= n || text(open) != "<" {
            continue;
        }
        let mut depth = 0usize;
        for at in open..n {
            match text(at) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                name if depth == 1 && is_ident(at) && matches!(text(at - 1), "<" | ",") => {
                    names.insert(name);
                }
                _ => {}
            }
        }
    }
}

/// Extracts call sites from a function body as `(callee, qualifier)`:
/// `recv.name(…)` and `name(…)` yield `(name, None)`, `Type::name(…)`
/// yields `(name, Some(Type))`.
fn call_sites(file: &SourceFile, item: &FnItem) -> Vec<(String, Option<String>)> {
    let lexed = &file.lexed;
    let Some((start, end)) = item.body else {
        return Vec::new();
    };
    let mut sites = Vec::new();
    for ci in start..end {
        let token = lexed.code_tok(ci);
        if token.kind != TokenKind::Ident || !lexed.seq(ci + 1, &["("]) {
            continue;
        }
        if ci > 0 && lexed.code_tok(ci - 1).text == "fn" {
            continue; // a nested definition, not a call
        }
        let qualifier = (ci >= 2
            && lexed.code_tok(ci - 1).text == "::"
            && lexed.code_tok(ci - 2).kind == TokenKind::Ident)
            .then(|| lexed.code_tok(ci - 2).text.clone());
        sites.push((token.text.clone(), qualifier));
    }
    sites
}

/// Scans one hot function's body for banned allocation sites.
fn check_fn(file: &SourceFile, item: &FnItem, root: &str, sink: &mut Sink<'_>) {
    let lexed = &file.lexed;
    let Some((start, end)) = item.body else {
        return;
    };
    for ci in start..end {
        let token = lexed.code_tok(ci);
        if token.kind != TokenKind::Ident {
            continue;
        }
        let name = token.text.as_str();
        let flagged: Option<String> = if BANNED_METHODS.contains(&name)
            && ci >= 1
            && lexed.code_tok(ci - 1).text == "."
            && lexed.seq(ci + 1, &["("])
        {
            Some(format!(".{name}()"))
        } else if lexed.seq(ci + 1, &["!"]) && BANNED_MACROS.contains(&name) {
            Some(format!("{name}!"))
        } else {
            BANNED_QUALIFIED
                .iter()
                .find(|(ty, method)| name == *ty && lexed.seq(ci + 1, &["::", method, "("]))
                .map(|(ty, method)| format!("{ty}::{method}"))
        };
        if let Some(what) = flagged {
            sink.report(
                file,
                "hot-path-alloc",
                token.line,
                format!(
                    "`{what}` allocates in serve-path fn `{}` (reachable from hot-path root \
                     `{root}`); preallocate, move the work behind a `// lint: cold-path` \
                     boundary, or waive with a written justification",
                    item.name
                ),
            );
        }
    }
}
