//! What the benchmark is made of: its workloads and its metrics, in one
//! place. `BENCHMARK.json` is this table printed (`ajax-benchmark schema`),
//! and a test keeps the committed file equal to it.

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildVidshare,
    BuildGallery,
    IndexRebuild,
    QueryDirect,
    ServeZipf,
    Dist2Shard,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BuildVidshare,
        Workload::BuildGallery,
        Workload::IndexRebuild,
        Workload::QueryDirect,
        Workload::ServeZipf,
        Workload::Dist2Shard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildVidshare => "build-vidshare",
            Workload::BuildGallery => "build-gallery",
            Workload::IndexRebuild => "index-rebuild",
            Workload::QueryDirect => "query-direct",
            Workload::ServeZipf => "serve-zipf",
            Workload::Dist2Shard => "dist-2shard",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// An op is a page (build, rebuild) or a query.
    pub fn is_build(self) -> bool {
        matches!(self, Workload::BuildVidshare | Workload::BuildGallery)
    }

    /// The percentile `op_tail_us` reads: the highest of the usual ones that
    /// still has ten samples beyond it at this workload's op count.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::BuildVidshare | Workload::BuildGallery | Workload::IndexRebuild => 95.0,
            Workload::QueryDirect | Workload::ServeZipf | Workload::Dist2Shard => 99.0,
        }
    }

    /// One line on why the workload exists (≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BuildVidshare => {
                "Crawl+index+save 200 VidShare pages of 4 states: event firing, rollback, hashing \
                 and JS dominate. Op = page; tail = p95 of 200."
            }
            Workload::BuildGallery => {
                "Same pipeline, 300 Gallery pages, equiv-prune: the planner claims 89% of events, \
                 7 cheap ones per page fire, so planning, load and analysis weigh double. Op = \
                 page; tail = p95 of ~298."
            }
            Workload::IndexRebuild => {
                "IndexBuilder::add_model per page, then build+save_index, over a 400-page corpus: \
                 the write side of ajax-index, invisible in a build round. Op = page; tail = p95 \
                 of 400."
            }
            Workload::QueryDirect => {
                "QueryBroker::search on the mmap-ed v4 segment, one thread, 300 texts 67 times \
                 each, shuffled: kernel, decode and format changes show here only. Op = query; \
                 tail = p99 of 20100."
            }
            Workload::ServeZipf => {
                "ShardServer, 2 shards x 1 worker, cache 256, Zipf(1.0) over 2000 texts: hits, \
                 misses, evictions, pool hand-off and merge all on the path. Op = query; tail = \
                 p99 of 20000."
            }
            Workload::Dist2Shard => {
                "DistCluster, 2 shards over loopback TCP, no cache: query-direct's first 1500 \
                 queries, so the difference is the RPC tier. Op = query; tail = p99 of 1500."
            }
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_open_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "index_bytes_per_state",
        unit: "B",
        better: "lower",
        bound: 0.03,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("webgen.handle_ms", "ms", "lower"),
    ("webgen.page_gets", "count", "lower"),
    ("webgen.xhr_gets", "count", "lower"),
    ("dom.parse_ms", "ms", "lower"),
    ("dom.hash_ms", "ms", "lower"),
    ("dom.clone_ms", "ms", "lower"),
    ("js.parse_ms", "ms", "lower"),
    ("crawl.precrawl_ms", "ms", "lower"),
    ("crawl.pages_ms", "ms", "lower"),
    ("crawl.page_p50_us", "us", "lower"),
    ("crawl.page_tail_us", "us", "lower"),
    ("crawl.load_ms", "ms", "lower"),
    ("crawl.analysis_ms", "ms", "lower"),
    ("crawl.states", "count", "higher"),
    ("crawl.events_fired", "count", "lower"),
    ("crawl.events_pruned", "count", "higher"),
    ("crawl.prune_ratio", "ratio", "higher"),
    ("crawl.xhr_cache_hit_ratio", "ratio", "higher"),
    ("crawl.us_per_event", "us", "lower"),
    ("crawl.virtual_cpu_ratio", "ratio", "lower"),
    ("index.add_model_p50_us", "us", "lower"),
    ("index.finish_ms", "ms", "lower"),
    ("index.invert_ms", "ms", "lower"),
    ("index.invert_states_per_s", "1/s", "higher"),
    ("index.save_ms", "ms", "lower"),
    ("index.save_bytes", "B", "lower"),
    ("index.resident_bytes_per_state", "B", "lower"),
    ("index.open_ms", "ms", "lower"),
    ("index.first_query_ms", "ms", "lower"),
    ("index.parse_us", "us", "lower"),
    ("index.eval_p50_us", "us", "lower"),
    ("index.eval_tail_us", "us", "lower"),
    ("index.merge_p50_us", "us", "lower"),
    ("index.results_per_query", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.hit_p50_us", "us", "lower"),
    ("serve.miss_p50_us", "us", "lower"),
    ("serve.miss_overhead_us", "us", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("dist.rpc_overhead_p50_us", "us", "lower"),
    ("dist.encode_ms", "ms", "lower"),
    ("dist.decode_ms", "ms", "lower"),
    ("dist.reply_bytes_per_query", "B", "lower"),
    ("dist.request_bytes_per_query", "B", "lower"),
    ("dist.shard_eval_ms", "ms", "lower"),
    ("dist.merge_ms", "ms", "lower"),
    ("dist.hedges", "count", "lower"),
    ("dist.degraded", "count", "lower"),
    ("engine.facade_ms", "ms", "lower"),
    ("engine.unattributed_share", "ratio", "lower"),
    ("obs.bench_trace_overhead_share", "ratio", "lower"),
    ("obs.recorder_overhead_share", "ratio", "lower"),
    ("load.round_spread", "ratio", "lower"),
    ("load.disturbed_share", "ratio", "lower"),
    ("load.check_prep_s", "s", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&end_to_end.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s.push_str(&per_layer.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `ajax-benchmark schema > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = HashSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && names.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"', '\\']));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                name_ok(name) && unit_ok(unit) && names.insert(name),
                "{name}"
            );
            assert!(["lower", "higher"].contains(&better));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
