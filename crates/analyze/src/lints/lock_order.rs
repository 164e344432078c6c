//! Lock-order check: the split `RawTableRuntime` has a declared
//! acquisition DAG (`file_len_seen` → `posmap` → `cache` → `stats`); a
//! lock may only be acquired while holding locks that come *earlier* in
//! that order, and never while a guard on the same lock is live (an
//! `RwLock` read→write upgrade self-deadlocks under a waiting writer).
//!
//! The analysis is lexical but scope-aware: within each function it
//! tracks guard bindings (`let pm = runtime.posmap.write();`) by brace
//! depth, releases them when their block closes or they are explicitly
//! `drop`ped, and treats an acquisition immediately followed by a method
//! call (`runtime.posmap.read().block_rows()`) as a statement-scoped
//! temporary. Every acquisition is checked against the set of guards
//! believed held at that point.

use crate::report::Finding;
use crate::scan_util::{tokens, Tok};
use crate::SourceFile;

#[derive(Debug)]
struct Held {
    rank: usize,
    name: String,
    depth: usize,
    line: usize,
}

/// Run the lock-order arm over one file with the given DAG (lock names,
/// outermost first).
pub fn run(sf: &SourceFile, dag: &[String]) -> Vec<Finding> {
    let toks = tokens(&sf.lexed.mask);
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "fn" {
            // Find the body opening brace (or `;` for a signature).
            let mut j = i + 1;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let end = analyze_body(sf, &toks, j, dag, &mut findings);
                i = end;
                continue;
            }
        }
        i += 1;
    }
    findings
}

/// Analyze one function body starting at the `{` at `open`; returns the
/// index just past the matching `}`.
fn analyze_body(
    sf: &SourceFile,
    toks: &[Tok<'_>],
    open: usize,
    dag: &[String],
    findings: &mut Vec<Finding>,
) -> usize {
    let mut depth = 1usize;
    let mut held: Vec<Held> = Vec::new();
    // Statement state: set when a `let` is seen, cleared at the `;`
    // that ends it (at the `let`'s own brace depth).
    let mut let_name: Option<String> = None;
    let mut let_depth = 0usize;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            ";" => {
                if let_name.is_some() && depth == let_depth {
                    let_name = None;
                }
            }
            "let" => {
                // Capture the bound name (skipping `mut`); tuple or
                // struct patterns get a placeholder that `drop()` can
                // never name — conservative, guards stay "held".
                let mut k = i + 1;
                if k < toks.len() && toks[k].text == "mut" {
                    k += 1;
                }
                let name = toks
                    .get(k)
                    .filter(|t| {
                        t.text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                    })
                    .map(|t| t.text.to_string())
                    .unwrap_or_else(|| "<pattern>".to_string());
                let_name = Some(name);
                let_depth = depth;
            }
            "drop" => {
                // `drop(name)` releases the named guard.
                if toks.get(i + 1).map(|t| t.text) == Some("(") {
                    if let Some(name) = toks.get(i + 2).map(|t| t.text) {
                        if toks.get(i + 3).map(|t| t.text) == Some(")") {
                            held.retain(|h| h.name != name);
                        }
                    }
                }
            }
            _ => {
                if let Some(rank) = dag.iter().position(|l| l == t.text) {
                    // Acquisition pattern: <lock> . read|write|lock ( )
                    let is_acq = toks.get(i + 1).map(|t| t.text) == Some(".")
                        && matches!(
                            toks.get(i + 2).map(|t| t.text),
                            Some("read") | Some("write") | Some("lock")
                        )
                        && toks.get(i + 3).map(|t| t.text) == Some("(")
                        && toks.get(i + 4).map(|t| t.text) == Some(")");
                    if is_acq {
                        for h in &held {
                            if h.rank > rank {
                                findings.push(finding(
                                    sf,
                                    t.line,
                                    format!(
                                        "acquires `{}` while holding `{}` (taken line {}) — \
                                         violates the lock DAG {}",
                                        t.text,
                                        dag[h.rank],
                                        h.line,
                                        dag.join(" → ")
                                    ),
                                ));
                            } else if h.rank == rank {
                                findings.push(finding(
                                    sf,
                                    t.line,
                                    format!(
                                        "re-acquires `{}` while a guard on it (taken line {}) \
                                         is still live — self-deadlock risk",
                                        t.text, h.line
                                    ),
                                ));
                            }
                        }
                        // Guard bindings persist; call-chained guards
                        // (`…read().rows()`) are statement temporaries.
                        let chained = toks.get(i + 5).map(|t| t.text) == Some(".");
                        if !chained {
                            if let Some(name) = &let_name {
                                held.push(Held {
                                    rank,
                                    name: name.clone(),
                                    depth: let_depth,
                                    line: t.line,
                                });
                            }
                        }
                        i += 5;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    i
}

fn finding(sf: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        lint: "lock-order",
        file: sf.rel.clone(),
        line,
        message,
    }
}
