//! CLI for the workspace lint. It takes no options: it scans the
//! workspace that contains the current directory and prints one line per
//! violation, then a per-rule summary. Under GitHub Actions (`GITHUB_ACTIONS`
//! set) each violation is printed as an `::error` annotation instead, so it
//! lands inline on the PR diff. Exit codes: 0 clean, 1 violations, 2 usage
//! or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mellow_lint::{runner, Violation};

const USAGE: &str = "\
mellow-lint — workspace static-analysis pass

USAGE:
    cargo run -p mellow-lint [--release]

Scans the workspace containing the current directory. Waive a deliberate
site inline with `// mellow-lint: allow(<rule>) -- reason`.

OPTIONS:
    -h, --help          Show this help
";

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`, falling back to this crate's
/// grandparent directory (it lives at `<root>/crates/lint`).
fn find_root(start: &Path) -> PathBuf {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d.to_path_buf();
            }
        }
        dir = d.parent();
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "-h" || arg == "--help" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        eprintln!("unknown option `{arg}`\n{USAGE}");
        return ExitCode::from(2);
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = find_root(&cwd);
    let violations = match runner::collect_violations(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mellow-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let github = std::env::var_os("GITHUB_ACTIONS").is_some();
    for v in &violations {
        if github {
            println!("{}", github_annotation(v));
        } else {
            println!("{v}");
        }
    }
    let summary: Vec<String> = runner::counts(&violations)
        .iter()
        .map(|(r, n)| format!("{r}: {n}"))
        .collect();
    println!(
        "mellow-lint: {} violation(s) ({})",
        violations.len(),
        summary.join(", ")
    );

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Escapes the free-text (message) part of a GitHub Actions workflow
/// command.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a property value (file, title) of a GitHub Actions workflow
/// command, which additionally reserves `,` and `:`.
fn github_escape_prop(s: &str) -> String {
    github_escape_data(s)
        .replace(',', "%2C")
        .replace(':', "%3A")
}

/// One violation as a GitHub Actions `::error` workflow command.
fn github_annotation(v: &Violation) -> String {
    format!(
        "::error file={},line={},title=mellow-lint {}::{}",
        github_escape_prop(&v.file),
        v.line,
        github_escape_prop(v.rule.name()),
        github_escape_data(&v.message)
    )
}
