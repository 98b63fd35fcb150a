//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` must list exactly these (`--check` and a unit test
//! compare the two), so a metric cannot be printed without being declared
//! or declared without being printed.

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; from the untraced run only.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_mb_s", "MiB/s", "higher"),
    m("setup_s", "s", "lower"),
    m("engine_mem_kib", "KiB", "lower"),
];

/// Single layers (layer = module name); from the traced run only. A
/// metric of a layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("xmlsax.ns_per_event", "ns", "lower"),
    m("xmlsax.mb_s", "MiB/s", "higher"),
    m("xmlsax.share", "%", "lower"),
    m("xmlsax.wide_byte_share", "%", "higher"),
    m("driver.self_ns_per_event", "ns", "lower"),
    m("driver.share", "%", "lower"),
    m("xpath.parse_us_per_query", "us", "lower"),
    m("builder.compile_us_per_query", "us", "lower"),
    m("builder.spec_bytes_per_query", "B", "lower"),
    m("plan.register_us_per_query", "us", "lower"),
    m("plan.groups", "count", "lower"),
    m("plan.dedup_ratio", "ratio", "higher"),
    m("plan.trie_nodes", "count", "lower"),
    m("plan.shared_trie_nodes", "count", "higher"),
    m("plan.bytes", "B", "lower"),
    m("plan.prefix_steps_per_event", "count", "lower"),
    m("plan.prefix_saved_per_event", "count", "higher"),
    m("machine.self_ns_per_event", "ns", "lower"),
    m("machine.share", "%", "lower"),
    m("machine.pushes_per_event", "count", "lower"),
    m("machine.predicate_evals_per_event", "count", "lower"),
    m("machine.flag_propagations_per_event", "count", "lower"),
    m("machine.candidates_per_event", "count", "lower"),
    m("machine.ns_per_push", "ns", "lower"),
    m("machine.peak_bytes", "B", "lower"),
    m("multi.self_ns_per_event", "ns", "lower"),
    m("multi.share", "%", "lower"),
    m("multi.touches_per_event", "count", "lower"),
    m("multi.ns_per_touch", "ns", "lower"),
    m("multi.push_per_touch", "ratio", "higher"),
    m("multi.deliveries_per_event", "count", "lower"),
    m("multi.doc_overhead_us", "us", "lower"),
    m("shard.speedup_vs_inline", "ratio", "higher"),
    m("shard.worker_busy_share", "%", "higher"),
    m("shard.ring_stall_ns_per_event", "ns", "lower"),
    m("shard.ring_stalls_per_doc", "count", "lower"),
    m("shard.merge_hold_depth_max", "count", "lower"),
    m("shard.imbalance_millis", "count", "lower"),
    m("shard.repartitions", "count", "lower"),
    m("telemetry.enabled_overhead_pct", "%", "lower"),
    m("alloc.count_per_event", "count", "lower"),
    m("alloc.bytes_per_event", "B", "lower"),
    m("alloc.xmlsax_per_event", "count", "lower"),
    m("alloc.driver_per_event", "count", "lower"),
    m("alloc.match_per_event", "count", "lower"),
    m("run.ns_per_event", "ns", "lower"),
    m("run.doc_ms_p50", "ms", "lower"),
    m("run.doc_ms_tail", "ms", "lower"),
    m("run.passes", "count", "higher"),
    m("run.events_per_pass", "count", "lower"),
    m("run.noise_ratio", "ratio", "lower"),
];

/// Measured values in table order.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// Every metric of `defs` at 0: the reading of a layer never entered.
    pub fn zeroed(defs: &'static [MetricDef]) -> Self {
        Values { defs, values: vec![0.0; defs.len()] }
    }

    /// Records a metric; the name must be declared in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        // A ratio over a zero count would print as NaN, which is not JSON.
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.iter().find(|(d, _)| d.name == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn tables_follow_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(all[..i].iter().all(|o| o.name != d.name), "{} declared twice", d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                d.name,
                d.unit
            );
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn values_keep_table_order_and_refuse_nan() {
        let mut v = Values::zeroed(END_TO_END);
        v.set("setup_s", 0.5);
        v.set("engine_mem_kib", f64::NAN);
        let names: Vec<&str> = v.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, ["throughput_mb_s", "setup_s", "engine_mem_kib"]);
        assert_eq!(v.get("setup_s"), Some(0.5));
        assert_eq!(v.get("engine_mem_kib"), Some(0.0));
    }
}
