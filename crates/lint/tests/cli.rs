//! End-to-end checks of the `mellow-lint` binary: it is run inside a
//! throwaway workspace holding one library file, and its exit code and
//! output are checked.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A library line that panic-policy flags.
const UNWRAP: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

const MESSAGE: &str =
    "`.unwrap()` in library code; use a typed error or `.expect(\"<invariant>\")`";

/// Creates a fresh workspace (a `[workspace]` manifest plus
/// `crates/cache/src/lib.rs` holding `lib_rs`) and returns its root.
fn workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mellow-lint-cli-{name}"));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/cache/src");
    fs::create_dir_all(&src).expect("create temporary workspace");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
    fs::write(src.join("lib.rs"), lib_rs).expect("write lib.rs");
    root
}

/// Runs the lint in `root` with `args`, as under GitHub Actions or not.
fn lint(root: &Path, args: &[&str], github: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mellow-lint"));
    cmd.current_dir(root)
        .args(args)
        .env_remove("GITHUB_ACTIONS");
    if github {
        cmd.env("GITHUB_ACTIONS", "true");
    }
    cmd.output().expect("run mellow-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn violation_prints_its_line_and_exits_1() {
    let root = workspace("plain", UNWRAP);
    let out = lint(&root, &[], false);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains(&format!(
            "crates/cache/src/lib.rs:2: [panic-policy] {MESSAGE}\n"
        )),
        "{text}"
    );
    assert!(text.contains("mellow-lint: 1 violation(s) ("), "{text}");
    assert!(text.contains("panic-policy: 1"), "{text}");
}

#[test]
fn github_actions_gets_error_annotations() {
    let root = workspace("github", UNWRAP);
    let out = lint(&root, &[], true);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains(&format!(
            "::error file=crates/cache/src/lib.rs,line=2,title=mellow-lint panic-policy::{MESSAGE}\n"
        )),
        "{text}"
    );
    assert!(!text.contains("[panic-policy]"), "{text}");
}

#[test]
fn inline_allow_comment_waives_the_violation() {
    let src = UNWRAP.replace(
        "x.unwrap()",
        "x.unwrap() // mellow-lint: allow(panic-policy) -- test",
    );
    let root = workspace("allow", &src);
    let out = lint(&root, &[], false);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("mellow-lint: 0 violation(s) ("));
}

#[test]
fn any_option_but_help_is_a_usage_error() {
    let root = workspace("usage", UNWRAP);
    for flag in ["--format", "--baseline", "--list", "--root", "x"] {
        let out = lint(&root, &[flag], false);
        assert_eq!(out.status.code(), Some(2), "`{flag}`: {}", stdout(&out));
        assert!(out.stdout.is_empty(), "`{flag}` scanned anyway");
    }
    for flag in ["-h", "--help"] {
        let out = lint(&root, &[flag], false);
        assert_eq!(out.status.code(), Some(0), "`{flag}`");
        assert!(stdout(&out).contains("USAGE"));
    }
}
