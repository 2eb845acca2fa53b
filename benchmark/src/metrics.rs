//! The benchmark's metric tables: the single place names, units, directions
//! and bounds are written down. `BENCHMARK.json` at the repo root repeats
//! them for the pipeline; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the baseline median by which it may get worse before
/// `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The same five on every workload. The three timing bounds are the widest
/// the pipeline allows: on the shared two-vCPU box this was written on, whole
/// runs drift by ±10% for minutes at a time (see README, "Bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "stored_bytes_per_triple",
        unit: "B",
        better: Lower,
        bound: 0.02,
    },
];

/// A per-layer metric from the traced run: `(name, unit, better)`. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("client.op_p90_ms", "ms", Lower),
    ("client.op_p99_ms", "ms", Lower),
    ("client.op_max_ms", "ms", Lower),
    ("client.first_row_ms", "ms", Lower),
    ("client.residual_share", "ratio", Lower),
    ("client.trace_overhead_share", "ratio", Lower),
    ("process.cpu_ms_per_op", "ms", Lower),
    ("process.peak_rss_mib", "MiB", Lower),
    ("process.heap_bytes_per_op", "B", Lower),
    ("process.heap_allocs_per_op", "count", Lower),
    ("process.ref_kernel_ms", "ms", Lower),
    ("sparql.parse_us", "us", Lower),
    ("sparql.to_wdpt_us", "us", Lower),
    ("serve.canonicalize_us", "us", Lower),
    ("serve.plan_hit_us", "us", Lower),
    ("serve.plan_miss_us", "us", Lower),
    ("serve.plan_cache_evictions", "count", Lower),
    ("serve.plan_cache_hit_ratio", "ratio", Higher),
    ("serve.stage_read_us", "us", Lower),
    ("serve.stage_admission_us", "us", Lower),
    ("serve.stage_plan_us", "us", Lower),
    ("serve.stage_queue_us", "us", Lower),
    ("serve.stage_eval_us", "us", Lower),
    ("serve.stage_respond_us", "us", Lower),
    ("serve.replans_per_kop", "count", Lower),
    ("serve.encode_rows_us", "us", Lower),
    ("serve.telemetry_overhead_share", "ratio", Lower),
    ("serve.load_stage_ms", "ms", Lower),
    ("serve.install_stage_ms", "ms", Lower),
    ("model.interner_clone_ms", "ms", Lower),
    ("model.index_probes_per_op", "count", Lower),
    ("model.tuples_scanned_per_op", "count", Lower),
    ("model.index_builds_per_op", "count", Lower),
    ("model.index_build_ms", "ms", Lower),
    ("cq.nodes_expanded_per_op", "count", Lower),
    ("cq.nodes_per_answer", "count", Lower),
    ("cq.core_of_us", "us", Lower),
    ("decomp.widths_us", "us", Lower),
    ("decomp.tw_search_nodes_per_op", "count", Lower),
    ("plan.order_us", "us", Lower),
    ("plan.est_over_obs_nodes", "ratio", Higher),
    ("plan.stats_build_ms", "ms", Lower),
    ("core.eval_ms", "ms", Lower),
    ("core.eval_bi_us", "us", Lower),
    ("core.partial_eval_us", "us", Lower),
    ("core.max_eval_us", "us", Lower),
    ("core.subsumed_us", "us", Lower),
    ("core.np_cell_ms", "ms", Lower),
    ("approx.wb_approx_us", "us", Lower),
    ("store.ingest_triples_per_s", "1/s", Higher),
    ("store.encode_v2_ms", "ms", Lower),
    ("store.load_snapshot_ms", "ms", Lower),
    ("store.force_decode_ms", "ms", Lower),
    ("store.delta_encode_ms", "ms", Lower),
    ("store.decode_with_deltas_ms", "ms", Lower),
    ("store.snapshot_bytes_per_triple", "B", Lower),
    ("store.delta_bytes_per_triple", "B", Lower),
    ("repl.frame_bytes_per_delta_byte", "ratio", Lower),
];

/// Whether `name` is one of the deterministic work counts that
/// `--check-determinism` compares bit for bit: they are ROADMAP's
/// regression gates.
pub fn is_exact_count(name: &str) -> bool {
    name.ends_with("_per_op") && !name.starts_with("process.")
        || name == "serve.plan_cache_evictions"
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_obs::Json;

    /// `BENCHMARK.json` is what the pipeline reads; these tables are what
    /// the binary prints and `compare` judges by. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(listed, "name"), ours.name);
            assert_eq!(field(listed, "unit"), ours.unit);
            assert_eq!(field(listed, "better"), ours.better.as_str());
            assert_eq!(listed.get("bound").and_then(Json::as_num), Some(ours.bound));
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(listed, "name"), name);
            assert_eq!(field(listed, "unit"), unit);
            assert_eq!(field(listed, "better"), better.as_str());
        }

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("benchmark")]
        );
    }

    #[test]
    fn exact_counts_are_the_work_counters() {
        assert!(is_exact_count("cq.nodes_expanded_per_op"));
        assert!(is_exact_count("model.index_probes_per_op"));
        assert!(is_exact_count("serve.plan_cache_evictions"));
        assert!(!is_exact_count("process.heap_bytes_per_op"));
        assert!(!is_exact_count("core.eval_ms"));
    }
}
