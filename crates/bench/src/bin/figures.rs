//! Regenerates the tables and figures of the Mellow Writes evaluation.
//!
//! ```text
//! figures <target> [--full] [--threads N] [--store PATH] [--no-cache]
//!
//! targets: fig1 fig2 fig3 tab5 tab6 fig10 fig11 fig12 fig13 fig14
//!          fig15 fig16 fig17 fig18 fig19 calibrate ablate graded
//!          faults leveling retention main all
//! ```
//!
//! `main` runs the shared Figs. 10–17 matrix once and prints all of
//! them; `all` additionally runs Figs. 1–3, 18, 19 and the tables.
//! `--full` uses the publication scale (slower); `--tiny` a CI smoke
//! scale. Timing the simulator itself is `perfbench`'s job, not this
//! binary's.
//!
//! Simulations run on all available cores (`--threads N` overrides) and
//! land in a JSON-lines result cache (`target/sweep-cache.jsonl` by
//! default), so a repeated or interrupted invocation only simulates
//! cells it has not already finished. `--store PATH` relocates the
//! cache; `--no-cache` disables it.

use mellow_bench::figures;
use mellow_bench::{Scale, SweepSettings};
use std::path::PathBuf;
use std::process::exit;

const DEFAULT_STORE: &str = "target/sweep-cache.jsonl";

const USAGE: &str = "\
usage: figures <target> [--full|--tiny] [--threads N] [--store PATH] [--no-cache]

targets: fig1 fig2 fig3 tab5 tab6 fig10 fig11 fig12 fig13 fig14
         fig15 fig16 fig17 fig18 fig19 calibrate ablate graded
         faults leveling retention main all (default)

  --full        publication scale (slower)
  --tiny        CI smoke scale (fast, not meaningful for artifacts)
  --threads N   worker threads (default: all cores)
  --store PATH  result cache file (default: target/sweep-cache.jsonl)
  --no-cache    run every cell, ignore and don't write the cache";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with('-')
            && !matches!(
                a.as_str(),
                "--full" | "--tiny" | "--threads" | "--store" | "--no-cache"
            )
    }) {
        eprintln!("unknown option {bad:?}\n{USAGE}");
        exit(2);
    }
    let full = args.iter().any(|a| a == "--full");
    let tiny = args.iter().any(|a| a == "--tiny");
    if full && tiny {
        eprintln!("--full and --tiny are mutually exclusive\n{USAGE}");
        exit(2);
    }
    let scale = if full {
        Scale::full()
    } else if tiny {
        Scale::tiny()
    } else {
        Scale::quick()
    };
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        })
    };
    let threads = flag_value("--threads").map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--threads needs a positive integer, got {v:?}");
            exit(2);
        })
    });
    let store = if args.iter().any(|a| a == "--no-cache") {
        None
    } else {
        Some(PathBuf::from(
            flag_value("--store").unwrap_or_else(|| DEFAULT_STORE.to_owned()),
        ))
    };
    let settings = SweepSettings { threads, store };
    let mut positional = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect::<Vec<_>>();
    // Skip values consumed by flags.
    for flag in ["--threads", "--store"] {
        if let Some(v) = flag_value(flag) {
            if let Some(i) = positional.iter().position(|a| *a == v) {
                positional.remove(i);
            }
        }
    }
    let target = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_owned());

    let needs_matrix = matches!(
        target.as_str(),
        "fig3" | "fig10" | "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17"
    ) || matches!(target.as_str(), "fig19" | "main" | "all");
    let matrix = if needs_matrix {
        eprintln!("running the shared policy matrix (11 workloads x 9 policies)...");
        figures::main_matrix_with(scale, &settings)
    } else {
        Vec::new()
    };
    let needs_statics = matches!(target.as_str(), "fig2" | "fig19" | "all");
    let statics = if needs_statics {
        eprintln!("running the static-latency matrix (11 workloads x 8 policies)...");
        figures::static_matrix_with(scale, &settings)
    } else {
        Vec::new()
    };

    let print_main = |out: &mut String| {
        out.push_str(&figures::fig3(&matrix));
        out.push_str(&figures::fig10(&matrix));
        out.push_str(&figures::fig11(&matrix));
        out.push_str(&figures::fig12(&matrix));
        out.push_str(&figures::fig13(&matrix));
        out.push_str(&figures::fig14(&matrix));
        out.push_str(&figures::fig15(&matrix));
        out.push_str(&figures::fig16(&matrix));
        out.push_str(&figures::fig17(&matrix));
    };

    let mut out = String::new();
    match target.as_str() {
        "fig1" => out.push_str(&figures::fig1()),
        "tab5" | "tab6" | "tabvi" => out.push_str(&figures::tab_energy()),
        "fig2" => out.push_str(&figures::fig2(&statics)),
        "fig3" => out.push_str(&figures::fig3(&matrix)),
        "fig10" => out.push_str(&figures::fig10(&matrix)),
        "fig11" => out.push_str(&figures::fig11(&matrix)),
        "fig12" => out.push_str(&figures::fig12(&matrix)),
        "fig13" => out.push_str(&figures::fig13(&matrix)),
        "fig14" => out.push_str(&figures::fig14(&matrix)),
        "fig15" => out.push_str(&figures::fig15(&matrix)),
        "fig16" => out.push_str(&figures::fig16(&matrix)),
        "fig17" => out.push_str(&figures::fig17(&matrix)),
        "fig18" => out.push_str(&figures::fig18(scale, &settings)),
        "fig19" => out.push_str(&figures::fig19(&statics, &matrix)),
        "calibrate" => out.push_str(&figures::calibrate(scale, &settings)),
        "ablate" => out.push_str(&figures::ablate(scale, &settings)),
        "graded" => out.push_str(&figures::graded(scale, &settings)),
        "faults" => out.push_str(&figures::faults(scale, &settings)),
        "leveling" => out.push_str(&figures::leveling(scale, &settings)),
        "retention" => out.push_str(&figures::retention(scale, &settings)),
        "main" => print_main(&mut out),
        "all" => {
            out.push_str(&figures::fig1());
            out.push_str(&figures::tab_energy());
            out.push_str(&figures::fig2(&statics));
            print_main(&mut out);
            out.push_str(&figures::fig18(scale, &settings));
            out.push_str(&figures::fig19(&statics, &matrix));
        }
        other => {
            eprintln!("unknown target {other:?}\n{USAGE}");
            exit(2);
        }
    }
    println!("{out}");
}
