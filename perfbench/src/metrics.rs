//! The metric tables: every metric's name and unit, in the order
//! `BENCHMARK.json` lists them. A unit starting `host-` is host time or
//! memory and one starting `sim-` is simulated; `setup_s`, whose unit
//! the benchmark format fixes as `s`, is host time.

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_ips", "instr/host-s"),
    ("host_ns_per_cycle", "host-ns/cycle"),
    ("setup_s", "s"),
    ("peak_rss_mib", "host-MiB"),
    ("sweep_warm_s", "host-s"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("sim.cycle_loop_s", "host-s"),
    ("sim.fast_forward_s", "host-s"),
    ("sim.event_s", "host-s"),
    ("sim.skip_speedup", "host-x"),
    ("sim.respond_ns_per_cycle", "host-ns/cycle"),
    ("sim.drain_ns_per_cycle", "host-ns/cycle"),
    ("sim.core_cycles", "sim-cycles"),
    ("memctrl.tick_ns_per_edge", "host-ns/edge"),
    ("memctrl.edges", "sim-edges"),
    ("memctrl.reject_ratio", "sim-ratio"),
    ("memctrl.cancel_ratio", "sim-ratio"),
    ("memctrl.rb_hit_ratio", "sim-ratio"),
    ("memctrl.read_lat_p50_ns", "sim-ns"),
    ("memctrl.read_lat_p99_ns", "sim-ns"),
    ("memctrl.bank_util", "sim-ratio"),
    ("memctrl.drain_frac", "sim-ratio"),
    ("memctrl.slow_frac", "sim-ratio"),
    ("cache.l1.tick_ns_per_cycle", "host-ns/cycle"),
    ("cache.l1.hit_ratio", "sim-ratio"),
    ("cache.l1.mshr_stall_ticks", "sim-cycles"),
    ("cache.l1.input_rejects", "sim-count"),
    ("cache.l2.tick_ns_per_cycle", "host-ns/cycle"),
    ("cache.l2.hit_ratio", "sim-ratio"),
    ("cache.l2.mshr_stall_ticks", "sim-cycles"),
    ("cache.l2.input_rejects", "sim-count"),
    ("cache.llc.tick_ns_per_cycle", "host-ns/cycle"),
    ("cache.llc.hit_ratio", "sim-ratio"),
    ("cache.llc.mshr_stall_ticks", "sim-cycles"),
    ("cache.llc.input_rejects", "sim-count"),
    ("cache.l1.try_demand_ns", "host-ns/call"),
    ("cache.llc.eager_probe_ns_per_cycle", "host-ns/cycle"),
    ("cache.llc.eager_useful_ratio", "sim-ratio"),
    ("cache.llc.sample_ns", "host-ns/call"),
    ("cpu.self_ns_per_cycle", "host-ns/cycle"),
    ("cpu.head_blocked_frac", "sim-ratio"),
    ("workloads.next_ns", "host-ns/record"),
    ("workloads.records", "sim-records"),
    ("workloads.mpki_err", "sim-ratio"),
    ("nvm.lifetime_years", "sim-years"),
    ("nvm.total_wear", "sim-writes"),
    ("model.ipc", "sim-instr/cycle"),
    ("bench.key_ns", "host-ns/key"),
    ("bench.store_get_ns", "host-ns/get"),
    ("bench.store_open_s", "host-s"),
    ("bench.cell_s_p50", "host-s"),
    ("bench.thread_busy_frac", "host-ratio"),
    ("trace.overhead_x", "host-x"),
];
