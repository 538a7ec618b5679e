//! `BENCHMARK.json` at the repository root must describe exactly the
//! workloads and metrics this package runs and prints.

use mellow_engine::json::Json;
use mellow_perfbench::metrics::{END_TO_END, PER_LAYER};
use mellow_perfbench::workload::NAMES;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

fn pairs(list: &Json) -> Vec<(&str, &str)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(pairs(b.get("end_to_end").expect("end_to_end")), END_TO_END);
    assert_eq!(pairs(b.get("per_layer").expect("per_layer")), PER_LAYER);
}

#[test]
fn workload_names_match_benchmark_json() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, NAMES);
}
