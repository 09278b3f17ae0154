//! Prometheus text-format rendering for the `METRICS` wire verb.
//!
//! Two sources feed one exposition:
//!
//! * every `STATS` counter/gauge, re-emitted as a typed family via the
//!   [`STATS_FAMILIES`] table (the server renders its `STATS` reply from
//!   the same table and the same values, so the two surfaces cannot
//!   diverge; the drift guard pins the table's key order);
//! * every [`ufilter_core::obs`] histogram, rendered as a Prometheus
//!   **summary** (quantile labels `0.5/0.9/0.99/0.999` plus `_sum` and
//!   `_count`) — the 976-bucket log-linear layout is far too fine to ship
//!   as a native histogram type, and quantiles are what the layer exists
//!   to expose. Durations are scaled to seconds per Prometheus convention.
//!
//! Every family is rendered unconditionally (zero counts included), so
//! scrapers and the CI smoke can assert on family *presence* regardless of
//! traffic shape or server configuration.

use ufilter_core::obs::{HistogramSnapshot, MetricsSnapshot, Stage, Verb};

/// One `STATS` key's Prometheus identity.
#[derive(Debug, Clone, Copy)]
pub struct StatsFamily {
    /// The key as it appears in the pinned `STATS` reply.
    pub stats_key: &'static str,
    /// The Prometheus family name.
    pub family: &'static str,
    /// `"counter"` or `"gauge"`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
}

const fn fam(
    stats_key: &'static str,
    family: &'static str,
    kind: &'static str,
    help: &'static str,
) -> StatsFamily {
    StatsFamily { stats_key, family, kind, help }
}

/// Every `STATS` key, **in `STATS` reply order**, with its Prometheus
/// family. The server renders the `STATS` reply from this table, so the
/// order here is the wire format; the drift-guard test pins it.
pub const STATS_FAMILIES: &[StatsFamily] = &[
    fam("workers", "ufilter_workers", "gauge", "Check slots in the pool."),
    fam("views", "ufilter_views", "gauge", "Registered views."),
    fam("connections", "ufilter_connections_total", "counter", "TCP connections accepted."),
    fam("requests", "ufilter_requests_total", "counter", "Requests parsed and handled."),
    fam("errors", "ufilter_errors_total", "counter", "Requests answered with ERR."),
    fam("jobs", "ufilter_jobs_total", "counter", "Check requests run on a slot."),
    fam("checked", "ufilter_checked_total", "counter", "Stream items checked."),
    fam(
        "probe_hits",
        "ufilter_probe_hits_total",
        "counter",
        "Context probes served from a warm slot cache.",
    ),
    fam(
        "probe_misses",
        "ufilter_probe_misses_total",
        "counter",
        "Context probes that had to scan.",
    ),
    fam(
        "compile_hits",
        "ufilter_compile_hits_total",
        "counter",
        "View compilations served from the compile-once cache.",
    ),
    fam(
        "persist_appends",
        "ufilter_persist_appends_total",
        "counter",
        "Records appended to the durable catalog log.",
    ),
    fam(
        "persist_syncs",
        "ufilter_persist_syncs_total",
        "counter",
        "Fsyncs of the durable catalog log.",
    ),
    fam(
        "persist_compactions",
        "ufilter_persist_compactions_total",
        "counter",
        "Snapshot compactions of the durable catalog.",
    ),
    fam("persist_replayed", "ufilter_persist_replayed", "gauge", "Records replayed at startup."),
    fam(
        "fanout_requests",
        "ufilter_fanout_requests_total",
        "counter",
        "CHECKALL/BATCHALL updates routed through the relevance index.",
    ),
    fam(
        "candidates",
        "ufilter_fanout_candidates_total",
        "counter",
        "Candidate (view, update) checks dispatched by fan-out.",
    ),
    fam(
        "pruned",
        "ufilter_fanout_pruned_total",
        "counter",
        "Views pruned by the relevance index without running the pipeline.",
    ),
    fam(
        "fallbacks",
        "ufilter_fanout_fallbacks_total",
        "counter",
        "Fan-out requests the index could not classify.",
    ),
    fam(
        "trie_nodes",
        "ufilter_trie_nodes",
        "gauge",
        "Live nodes in the shared path-trie routing index.",
    ),
    fam("trie_postings", "ufilter_trie_postings", "gauge", "Posting entries in the routing trie."),
    fam(
        "trie_bytes",
        "ufilter_trie_bytes",
        "gauge",
        "Approximate resident bytes of the routing trie.",
    ),
    fam(
        "trie_inserts",
        "ufilter_trie_inserts_total",
        "counter",
        "View signatures inserted into the routing trie.",
    ),
    fam(
        "trie_removes",
        "ufilter_trie_removes_total",
        "counter",
        "View signatures removed from the routing trie.",
    ),
    fam(
        "independence_checked",
        "ufilter_independence_checked_total",
        "counter",
        "Blunt non-injective rejections re-examined by the independence analysis.",
    ),
    fam(
        "independence_independent",
        "ufilter_independence_independent_total",
        "counter",
        "Independence verdicts that admitted the update to the unchanged pipeline.",
    ),
    fam(
        "independence_dependent",
        "ufilter_independence_dependent_total",
        "counter",
        "Independence rejections with a named blocking read-set entry.",
    ),
    fam(
        "independence_unknown",
        "ufilter_independence_unknown_total",
        "counter",
        "Independence rejections where the write-set could not be bounded.",
    ),
];

/// The quantiles every summary family exposes.
const QUANTILES: [(&str, f64); 4] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)];

/// Append one summary family. `labels` is either empty or a single
/// `key="value"` pair; `scale` converts recorded units to exposed units
/// (1e-9 for nanosecond durations → seconds, 1.0 for plain counts).
fn push_summary(
    out: &mut Vec<String>,
    family: &str,
    help: &str,
    series: &[(&str, &HistogramSnapshot)],
    scale: f64,
) {
    out.push(format!("# HELP {family} {help}"));
    out.push(format!("# TYPE {family} summary"));
    for (labels, snap) in series {
        let sep = if labels.is_empty() { "" } else { "," };
        for (name, q) in QUANTILES {
            out.push(format!(
                "{family}{{{labels}{sep}quantile=\"{name}\"}} {}",
                snap.quantile(q) as f64 * scale
            ));
        }
        let braced = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        out.push(format!("{family}_sum{braced} {}", snap.sum() as f64 * scale));
        out.push(format!("{family}_count{braced} {}", snap.count()));
    }
}

/// Render the full exposition: one line per element of the returned `Vec`
/// (no trailing newlines). `stats_values` are the `STATS` reply values in
/// [`STATS_FAMILIES`] order; `snap` is the merged histogram snapshot.
pub fn render(stats_values: &[u64], snap: &MetricsSnapshot) -> Vec<String> {
    assert_eq!(
        stats_values.len(),
        STATS_FAMILIES.len(),
        "one value per STATS family, in table order"
    );
    let mut out = Vec::new();
    for (family, value) in STATS_FAMILIES.iter().zip(stats_values) {
        out.push(format!("# HELP {} {}", family.family, family.help));
        out.push(format!("# TYPE {} {}", family.family, family.kind));
        out.push(format!("{} {value}", family.family));
    }

    let stage_labels: Vec<String> =
        Stage::ALL.iter().map(|s| format!("stage=\"{}\"", s.name())).collect();
    let stage_series: Vec<(&str, &HistogramSnapshot)> =
        Stage::ALL.iter().zip(&stage_labels).map(|(s, l)| (l.as_str(), snap.stage(*s))).collect();
    push_summary(
        &mut out,
        "ufilter_check_stage_duration_seconds",
        "Per-stage check-pipeline span duration.",
        &stage_series,
        1e-9,
    );

    let verb_labels: Vec<String> =
        Verb::ALL.iter().map(|v| format!("verb=\"{}\"", v.name())).collect();
    let verb_series: Vec<(&str, &HistogramSnapshot)> =
        Verb::ALL.iter().zip(&verb_labels).map(|(v, l)| (l.as_str(), snap.verb(*v))).collect();
    push_summary(
        &mut out,
        "ufilter_request_duration_seconds",
        "Request latency by wire verb.",
        &verb_series,
        1e-9,
    );

    push_summary(
        &mut out,
        "ufilter_queue_wait_seconds",
        "Time a check request waited for a free slot.",
        &[("", &snap.queue_wait)],
        1e-9,
    );
    push_summary(
        &mut out,
        "ufilter_shard_lock_hold_seconds",
        "Catalog-lock acquire plus hold time by kind.",
        &[("kind=\"read\"", &snap.lock_read), ("kind=\"write\"", &snap.lock_write)],
        1e-9,
    );
    push_summary(
        &mut out,
        "ufilter_persist_append_seconds",
        "Durable-log append (write) latency.",
        &[("", &snap.persist_append)],
        1e-9,
    );
    push_summary(
        &mut out,
        "ufilter_persist_fsync_seconds",
        "Durable-log fsync latency.",
        &[("", &snap.persist_fsync)],
        1e-9,
    );
    push_summary(
        &mut out,
        "ufilter_route_candidates",
        "Candidate views per routed fan-out update.",
        &[("", &snap.route_candidates)],
        1.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_every_family_even_when_empty() {
        let values = vec![0u64; STATS_FAMILIES.len()];
        let lines = render(&values, &MetricsSnapshot::empty());
        for family in STATS_FAMILIES {
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("{} ", family.family))),
                "missing value line for {}",
                family.family
            );
        }
        for needed in [
            "ufilter_check_stage_duration_seconds{stage=\"star\",quantile=\"0.99\"}",
            "ufilter_request_duration_seconds{verb=\"check\",quantile=\"0.5\"}",
            "ufilter_queue_wait_seconds{quantile=\"0.999\"}",
            "ufilter_shard_lock_hold_seconds{kind=\"write\",quantile=\"0.9\"}",
            "ufilter_persist_fsync_seconds_count",
            "ufilter_route_candidates_sum",
        ] {
            assert!(lines.iter().any(|l| l.starts_with(needed)), "missing {needed}");
        }
        // One line each, and every value token parses as a plain float.
        for line in lines.iter().filter(|l| !l.starts_with('#')) {
            assert!(!line.contains('\n'));
            let token = line.rsplit(' ').next().unwrap();
            assert!(token.parse::<f64>().is_ok(), "unparsable value in {line}");
            assert!(!token.contains('e'), "scientific notation in {line}");
        }
    }

    #[test]
    fn durations_scale_to_seconds_without_scientific_notation() {
        let mut snap = MetricsSnapshot::empty();
        let h = ufilter_core::obs::Histogram::new();
        h.record(1_500); // 1.5 µs
        snap.queue_wait = h.snapshot();
        let values = vec![0u64; STATS_FAMILIES.len()];
        let lines = render(&values, &snap);
        let sum = lines
            .iter()
            .find(|l| l.starts_with("ufilter_queue_wait_seconds_sum"))
            .expect("sum line");
        let token = sum.split(' ').nth(1).unwrap();
        let value: f64 = token.parse().unwrap();
        assert!((value - 1.5e-6).abs() < 1e-12, "{sum}");
        assert!(!token.contains('e'), "no scientific notation: {sum}");
    }
}
