//! The traced replica must reproduce the cycle-loop oracle bit for bit
//! on every workload's replica cell, and its guard must notice a
//! replica that does not.

use mellow_bench::Scale;
use mellow_perfbench::replica::{guard, oracle, Replica, Snapshot, SAMPLE_STRIDE};
use mellow_perfbench::workload::{self, NAMES};
use mellow_sim::Experiment;

/// The replica cell of `name` at smoke scale.
fn tiny(name: &str, seed: u64) -> Experiment {
    let w = workload::by_name(name).expect("a benchmark workload");
    w.cells[w.replica_cell].experiment(Scale::tiny(), seed)
}

fn replica_run(e: &Experiment, stride: Option<u64>) -> Replica {
    let mut r = Replica::new(e, stride);
    r.run(e);
    r
}

#[test]
fn traced_and_untraced_replicas_match_the_oracle_on_every_workload() {
    for name in NAMES {
        let e = tiny(name, 0x5EED);
        let want = Snapshot::of_system(&oracle(&e));
        for stride in [None, Some(SAMPLE_STRIDE)] {
            let got = replica_run(&e, stride).snapshot();
            if let Err(msg) = guard(&got, &want) {
                panic!("{name} (stride {stride:?}): {msg}");
            }
        }
    }
}

#[test]
fn guard_rejects_a_replica_of_another_seed() {
    let e = tiny("gups-mellow", 1);
    let want = Snapshot::of_system(&oracle(&e));
    let other = e.clone().seed(2);
    let err = guard(&replica_run(&other, None).snapshot(), &want).unwrap_err();
    assert!(err.contains("diverged"), "{err}");
}

#[test]
fn traced_replica_times_one_cycle_in_the_stride() {
    let e = tiny("lbm-quota", 3);
    let r = replica_run(&e, Some(SAMPLE_STRIDE));
    let spans = r.spans();
    assert_eq!(spans.cycles, r.total_cycles() / SAMPLE_STRIDE);
    // Memory-clock edges are every fifth core cycle, and the stride is
    // coprime with five, so a fifth of the timed cycles are edges.
    let expect_edges = spans.cycles / 5;
    assert!(spans.edges.abs_diff(expect_edges) <= 1, "{spans:?}");
    assert!(spans.try_demand_calls > 0 && spans.trace_calls > 0);
    for (name, v) in spans.layer_times() {
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
}

#[test]
fn untraced_replica_records_no_spans() {
    let e = tiny("hmmer-resident", 4);
    let spans = replica_run(&e, None).spans();
    assert_eq!(
        (spans.cycles, spans.trace_calls, spans.sample_spans),
        (0, 0, 0)
    );
}
