//! L6 — `DetRng` stream discipline.
//!
//! Replay determinism (DESIGN.md §5) requires every random stream to be a
//! named derivation of the experiment seed: two consumers sharing draws, an
//! ad-hoc seed expression, or a raw `SmallRng` all silently change which
//! numbers land where when unrelated code moves. The rule enforces:
//!
//! - `DetRng::seed_from(..)` only as the head of a stream-derivation
//!   expression (a `.derive(STREAM)` in the same statement); standalone
//!   construction goes through a named constructor (`xor_stream`, `derive`)
//!   instead;
//! - no `SmallRng` outside `mellow-engine`'s own `rng.rs`;
//! - no `.clone()` of an rng value — a clone forks one stream into two
//!   consumers that then drift together.

use super::{FileCtx, LintRule};
use crate::lexer::{allowed, Lexed, Tok, TokKind};
use crate::runner::Scope;
use crate::{Rule, Violation};

/// Is `toks[i]` (the token before a `.clone(` dot) an
/// rng-flavored receiver? Identifier names only — `)`/`]` receivers are
/// opaque and left alone.
fn rng_flavored(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text.to_lowercase().contains("rng")
}

/// Scans forward from a `seed_from(` call through the rest of its
/// statement looking for a `.derive(..)` link. Bounded by statement
/// terminators at paren depth zero.
fn derived_in_statement(toks: &[Tok], from: usize) -> bool {
    let n = toks.len();
    let mut depth = 0i32;
    let mut j = from;
    while j < n && j < from + 60 {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" | "{" | "}" if depth <= 0 => return false,
            "derive" if t.kind == TokKind::Ident => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

pub struct RngDiscipline;

impl LintRule for RngDiscipline {
    fn rule(&self) -> Rule {
        Rule::RngDiscipline
    }

    fn applies(&self, scope: &Scope) -> bool {
        scope.check_rng_discipline
    }

    fn check_file(&mut self, ctx: &FileCtx<'_>) -> Vec<Violation> {
        check(ctx.path, ctx.lx, ctx.excluded)
    }
}

fn check(file: &str, lx: &Lexed, excluded: &[bool]) -> Vec<Violation> {
    let toks = &lx.toks;
    let n = toks.len();
    let mut out = Vec::new();
    let mut push = |line: u32, message: String| {
        if !allowed(&lx.allows, Rule::RngDiscipline.name(), line) {
            out.push(Violation {
                rule: Rule::RngDiscipline,
                file: file.to_string(),
                line,
                message,
            });
        }
    };

    for i in 0..n {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];

        // Raw `SmallRng` bypasses the DetRng wrapper entirely.
        if t.kind == TokKind::Ident && t.text == "SmallRng" {
            push(
                t.line,
                "raw `SmallRng` outside `mellow-engine::rng`; all streams go through `DetRng`"
                    .to_string(),
            );
            continue;
        }

        // `DetRng::seed_from(..)` must be the head of a `.derive(..)` chain.
        if t.text == "DetRng"
            && i + 3 < n
            && toks[i + 1].text == "::"
            && toks[i + 2].text == "seed_from"
            && toks[i + 3].text == "("
            && !derived_in_statement(toks, i + 3)
        {
            push(
                toks[i + 2].line,
                "ad-hoc `DetRng::seed_from(..)` without a named stream derivation; \
                 use `DetRng::xor_stream(seed, STREAM)` or chain `.derive(STREAM)`"
                    .to_string(),
            );
        }

        if t.text != "." || i + 2 >= n || i == 0 {
            continue;
        }
        let method = &toks[i + 1];
        if method.kind != TokKind::Ident || toks[i + 2].text != "(" || !rng_flavored(&toks[i - 1]) {
            continue;
        }

        // `.clone()` forks a stream into two consumers.
        if method.text == "clone" {
            push(
                method.line,
                format!(
                    "`{}.clone()` forks one random stream into two consumers; \
                     derive a named child stream instead",
                    toks[i - 1].text
                ),
            );
        }
    }
    out
}
