//! The metric names, units, directions and bounds. `BENCHMARK.json` at the
//! repository root lists the same; a test holds the two together.

use crate::workload::Path;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("compile_ms", "ms", "lower", 0.20),
    e2e("emitted_bytes", "bytes", "lower", 0.01),
    e2e("native_words_per_s", "1/s", "higher", 0.20),
    e2e("embedded_words_per_s", "1/s", "higher", 0.20),
    e2e("interp_words_per_s", "1/s", "higher", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub fn words_per_s(path: Path) -> &'static str {
    match path {
        Path::Native => "native_words_per_s",
        Path::Embedded => "embedded_words_per_s",
        Path::Interp => "interp_words_per_s",
    }
}

pub fn iter_p95_ms(path: Path) -> &'static str {
    match path {
        Path::Native => "wordcount.native_iter_p95_ms",
        Path::Embedded => "wordcount.embedded_iter_p95_ms",
        Path::Interp => "wordcount.interp_iter_p95_ms",
    }
}

pub fn block_spread(path: Path) -> &'static str {
    match path {
        Path::Native => "wordcount.native_block_spread",
        Path::Embedded => "wordcount.embedded_block_spread",
        Path::Interp => "wordcount.interp_block_spread",
    }
}

/// The compile phases' metrics, in `compile::PHASES` order.
pub const PHASE_MS: [&str; 5] = [
    "junicon.metaparse_ms",
    "junicon.parse_ms",
    "junicon.normalize_ms",
    "junicon.resolve_ms",
    "junicon.emit_ms",
];

/// Per-layer metrics: `(name, unit, better)`. Layer = crate.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    // junicon: the front end, phase by phase, and the interpreter.
    ("junicon.metaparse_ms", "ms", "lower"),
    ("junicon.parse_ms", "ms", "lower"),
    ("junicon.normalize_ms", "ms", "lower"),
    ("junicon.resolve_ms", "ms", "lower"),
    ("junicon.emit_ms", "ms", "lower"),
    ("junicon.parse_mb_per_s", "MB/s", "higher"),
    ("junicon.src_bytes", "bytes", "lower"),
    ("junicon.procs", "count", "higher"),
    ("junicon.load_ms", "ms", "lower"),
    ("junicon.gen_us", "us", "lower"),
    ("junicon.interp_ns_per_word", "ns", "lower"),
    ("junicon.interp_over_embedded", "ratio", "lower"),
    // The ladder: ns per word, each rung one layer more than the last.
    ("wordcount.raw_loop_ns", "ns", "lower"),
    ("wordcount.iterator_ns", "ns", "lower"),
    ("gde.gen_ns", "ns", "lower"),
    ("gde.value_ns", "ns", "lower"),
    ("gde.stages_unfused_ns", "ns", "lower"),
    ("gde.stages_fused_ns", "ns", "lower"),
    ("gde.flat_ns", "ns", "lower"),
    ("blockingq.queue_hop_ns", "ns", "lower"),
    ("pipes.thread_hop_ns", "ns", "lower"),
    ("exec.submit_join_us", "us", "lower"),
    ("mapreduce.chunk_ns", "ns", "lower"),
    ("gde.plan_build_us", "us", "lower"),
    // gde counts per iteration (obs), and the string plane.
    ("gde.arc_clones_per_word", "count", "lower"),
    ("gde.promotions_per_word", "count", "lower"),
    ("gde.inline_hits_per_word", "count", "higher"),
    ("gde.slot_hits_per_word", "count", "higher"),
    ("gde.name_fallbacks", "count", "lower"),
    ("gde.fused_stages", "count", "higher"),
    ("gde.fusion_barriers", "count", "lower"),
    ("gde.sym_interned", "count", "lower"),
    ("gde.coerce_cached", "count", "higher"),
    ("gde.concat_ns", "ns", "lower"),
    ("gde.as_key_ns", "ns", "lower"),
    ("gde.concat_slices", "count", "higher"),
    ("gde.concat_copies", "count", "lower"),
    // Transport.
    ("blockingq.blocked_puts", "count", "lower"),
    ("blockingq.blocked_takes", "count", "lower"),
    ("blockingq.batch_fill_p50", "count", "higher"),
    ("blockingq.depth_highwater", "count", "lower"),
    ("blockingq.handoff_us", "us", "lower"),
    ("pipes.spawn_us", "us", "lower"),
    ("pipes.first_result_us", "us", "lower"),
    ("pipes.batch_flushes", "count", "lower"),
    ("pipes.producer_wall_ms", "ms", "lower"),
    // Pool, chunking, arithmetic.
    ("exec.parallel_speedup", "ratio", "higher"),
    ("exec.pool_busy_share", "ratio", "higher"),
    ("exec.tasks_run", "count", "lower"),
    ("mapreduce.chunks", "count", "lower"),
    ("mapreduce.launch_ms", "ms", "lower"),
    ("mapreduce.chunk_run_p50_ms", "ms", "lower"),
    ("bigint.parse36_ns", "ns", "lower"),
    ("bigint.heavy_hash_us", "us", "lower"),
    ("bigint.sqrt_ns", "ns", "lower"),
    // Report-only.
    ("wordcount.embedded_over_native", "ratio", "lower"),
    ("wordcount.interp_over_native", "ratio", "lower"),
    ("wordcount.native_iter_p95_ms", "ms", "lower"),
    ("wordcount.embedded_iter_p95_ms", "ms", "lower"),
    ("wordcount.interp_iter_p95_ms", "ms", "lower"),
    ("wordcount.native_block_spread", "ratio", "lower"),
    ("wordcount.embedded_block_spread", "ratio", "lower"),
    ("wordcount.interp_block_spread", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("host.cores", "count", "higher"),
    ("host.exec_threads", "count", "higher"),
];

/// The unit of a metric in either table.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.unit)
        .or_else(|| PER_LAYER.iter().find(|p| p.0 == name).map(|p| p.1))
        .unwrap_or_else(|| panic!("metric {name:?} is in neither table"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Kind;

    /// `BENCHMARK.json` names exactly the workloads and metrics the harness
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(got, "name"), field(got, "unit"), field(got, "better")),
                (want.0.to_string(), want.1.to_string(), want.2.to_string())
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }
}
