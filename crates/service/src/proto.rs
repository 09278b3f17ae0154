//! The line-oriented wire protocol (ADR in `docs/ARCHITECTURE.md`).
//!
//! Every request is one line of space-separated tokens; free-text fields
//! (update text, view definitions, error details) travel percent-escaped
//! with [`ufilter_core::wire::escape`], so the framing never depends on
//! payload content. Replies start with `OK` or `ERR`:
//!
//! ```text
//! --> CHECK <view> <escaped-update>
//! <-- OK <wire-outcome>[\t<wire-outcome>...]
//!
//! --> BATCH <n>            (followed by n lines: <view> <escaped-update>)
//! <-- OK <n>
//! <-- ITEM <index> <view> <wire-outcome>        (one line per action report)
//! <-- END items=<n> parse_hits=<..> probe_hits=<..> probe_misses=<..> groups=<..>
//!
//! --> CHECKALL <escaped-update>                 (no view: fan out to candidates)
//! <-- OK <candidates>
//! <-- ITEM <view> <wire-outcome>                (candidate views, name order)
//! <-- END views=<..> candidates=<..> pruned=<..> fallbacks=<..>
//!
//! --> BATCHALL <n>         (followed by n lines: <escaped-update>)
//! <-- OK <n>
//! <-- ITEM <update-index> <view> <wire-outcome>
//! <-- END items=<n> fanout_requests=<..> candidates=<..> pruned=<..> fallbacks=<..>
//!
//! --> CATALOG ADD <name> <escaped-view-text>
//! <-- OK added <name> reads=<r1,r2,...>
//! --> CATALOG DROP <name>
//! <-- OK dropped <name>
//! --> CATALOG LIST
//! <-- OK <n>               (followed by n lines: VIEW <name> reads=<...> cached=<bool>)
//! --> CATALOG VERIFY       (read-only integrity check of the durable store)
//! <-- OK generation=<..> snapshot_records=<..> log_records=<..> torn_bytes=<..>
//!        stale_log=<..> views=<..> ddl=<..> match=<yes|no>
//!
//! --> STATS
//! <-- OK workers=<..> views=<..> connections=<..> requests=<..> ...  (STATS_FAMILIES order)
//! --> METRICS
//! <-- OK <n>               (followed by n raw Prometheus text-format lines)
//! --> PING
//! <-- OK pong
//! --> SHUTDOWN
//! <-- OK bye               (server stops accepting and drains)
//! ```
//!
//! Any malformed or unknown request gets `ERR <escaped-detail>` and leaves
//! the connection usable.

use ufilter_core::wire::{escape, unescape};

/// Upper bound on the `BATCH`/`BATCHALL` item count. The count arrives
/// before any item line and sizes server-side buffers, so it must be capped
/// at parse time; anything above this is a protocol error, not a request.
pub const MAX_BATCH_ITEMS: usize = 65_536;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `CHECK <view> <escaped-update>` — check one update (unescaped here).
    Check {
        /// Target view name.
        view: String,
        /// The update text, already unescaped.
        update: String,
    },
    /// `BATCH <n>` — the next `n` lines are batch items.
    Batch {
        /// Number of item lines that follow.
        count: usize,
    },
    /// `CHECKALL <escaped-update>` — fan one update out to every candidate
    /// view the relevance index routes it to.
    CheckAll {
        /// The update text, already unescaped.
        update: String,
    },
    /// `BATCHALL <n>` — the next `n` lines are escaped updates, each
    /// fanned out to its candidate views.
    BatchAll {
        /// Number of update lines that follow.
        count: usize,
    },
    /// `CATALOG ADD <name> <escaped-view-text>`.
    CatalogAdd {
        /// Registration name.
        name: String,
        /// View query text, already unescaped.
        view_text: String,
    },
    /// `CATALOG DROP <name>`.
    CatalogDrop {
        /// Name to unregister.
        name: String,
    },
    /// `CATALOG LIST`.
    CatalogList,
    /// `CATALOG VERIFY` — read-only integrity check of the attached
    /// durable store (errors when the server runs without `--data-dir`).
    CatalogVerify,
    /// `STATS` — one-line server/pool counters.
    Stats,
    /// `METRICS` — multi-line Prometheus text exposition (histogram
    /// summaries + every `STATS` counter as a typed family).
    Metrics,
    /// `PING` — liveness probe.
    Ping,
    /// `SHUTDOWN` — stop accepting connections and drain.
    Shutdown,
}

impl Request {
    /// The wire verb this request arrived as (stable lowercase label for
    /// slow-request logs and per-verb latency families).
    pub fn wire_verb(&self) -> &'static str {
        match self {
            Request::Check { .. } => "check",
            Request::Batch { .. } => "batch",
            Request::CheckAll { .. } => "checkall",
            Request::BatchAll { .. } => "batchall",
            Request::CatalogAdd { .. } => "catalog_add",
            Request::CatalogDrop { .. } => "catalog_drop",
            Request::CatalogList => "catalog_list",
            Request::CatalogVerify => "catalog_verify",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parse one request line. `Err` carries a human-readable detail suitable
/// for an `ERR` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.splitn(3, ' ');
    let verb = parts.next().unwrap_or_default();
    match verb {
        "CHECK" => {
            let view = parts.next().filter(|v| !v.is_empty()).ok_or("CHECK needs a view name")?;
            let escaped = parts.next().ok_or("CHECK needs an escaped update")?;
            if escaped.contains(' ') {
                return Err("CHECK takes exactly two operands (is the update escaped?)".into());
            }
            let update = unescape(escaped).map_err(|e| e.to_string())?;
            Ok(Request::Check { view: view.to_string(), update })
        }
        "BATCH" | "BATCHALL" => {
            let count: usize = parts
                .next()
                .ok_or_else(|| format!("{verb} needs an item count"))?
                .parse()
                .map_err(|_| format!("{verb} count must be a non-negative integer"))?;
            if parts.next().is_some() {
                return Err(format!("{verb} takes exactly one operand"));
            }
            // The count sizes server-side buffers before any item line is
            // read, so an absurd value must be refused here — otherwise a
            // one-line request commits the server to allocating for it.
            if count > MAX_BATCH_ITEMS {
                return Err(format!("{verb} count {count} exceeds the limit ({MAX_BATCH_ITEMS})"));
            }
            Ok(if verb == "BATCH" { Request::Batch { count } } else { Request::BatchAll { count } })
        }
        "CHECKALL" => {
            let escaped = parts.next().ok_or("CHECKALL needs an escaped update")?;
            if escaped.is_empty() || escaped.contains(' ') || parts.next().is_some() {
                return Err("CHECKALL takes exactly one operand (is the update escaped?)".into());
            }
            Ok(Request::CheckAll { update: unescape(escaped).map_err(|e| e.to_string())? })
        }
        "CATALOG" => match parts.next() {
            Some("ADD") => {
                let rest = parts.next().ok_or("CATALOG ADD needs <name> <escaped-view>")?;
                let (name, text) =
                    rest.split_once(' ').ok_or("CATALOG ADD needs <name> <escaped-view>")?;
                if name.is_empty() || text.contains(' ') {
                    return Err(
                        "CATALOG ADD takes exactly two operands (is the view text escaped?)".into(),
                    );
                }
                Ok(Request::CatalogAdd {
                    name: name.to_string(),
                    view_text: unescape(text).map_err(|e| e.to_string())?,
                })
            }
            Some("DROP") => {
                let name = parts.next().filter(|n| !n.is_empty() && !n.contains(' '));
                Ok(Request::CatalogDrop {
                    name: name.ok_or("CATALOG DROP needs exactly one name")?.to_string(),
                })
            }
            Some("LIST") => match parts.next() {
                None => Ok(Request::CatalogList),
                Some(_) => Err("CATALOG LIST takes no operands".into()),
            },
            Some("VERIFY") => match parts.next() {
                None => Ok(Request::CatalogVerify),
                Some(_) => Err("CATALOG VERIFY takes no operands".into()),
            },
            other => Err(format!("unknown CATALOG subcommand {other:?} (ADD/DROP/LIST/VERIFY)")),
        },
        "STATS" | "METRICS" | "PING" | "SHUTDOWN" => {
            if parts.next().is_some() {
                return Err(format!("{verb} takes no operands"));
            }
            Ok(match verb {
                "STATS" => Request::Stats,
                "METRICS" => Request::Metrics,
                "PING" => Request::Ping,
                _ => Request::Shutdown,
            })
        }
        "" => Err("empty request".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Parse one `BATCH` item line: `<view> <escaped-update>`.
pub fn parse_batch_item(line: &str) -> Result<(String, String), String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (view, text) = line.split_once(' ').ok_or("batch item needs <view> <escaped-update>")?;
    if view.is_empty() || text.contains(' ') {
        return Err("batch item takes exactly <view> <escaped-update>".into());
    }
    Ok((view.to_string(), unescape(text).map_err(|e| e.to_string())?))
}

/// Parse one `BATCHALL` item line: a single `<escaped-update>` token.
pub fn parse_batchall_item(line: &str) -> Result<String, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() || line.contains(' ') {
        return Err("batchall item takes exactly one <escaped-update>".into());
    }
    unescape(line).map_err(|e| e.to_string())
}

/// Format an `ERR` reply line (detail escaped, so always one line).
pub fn err_reply(detail: &str) -> String {
    format!("ERR {}", escape(detail))
}

/// Format a `CHECK` request line.
pub fn check_request(view: &str, update: &str) -> String {
    format!("CHECK {view} {}", escape(update))
}

/// Format a `CHECKALL` request line.
pub fn checkall_request(update: &str) -> String {
    format!("CHECKALL {}", escape(update))
}

/// Format a `BATCHALL` item line.
pub fn batchall_item(update: &str) -> String {
    escape(update)
}

/// Format a `BATCH` item line.
pub fn batch_item(view: &str, update: &str) -> String {
    format!("{view} {}", escape(update))
}

/// Format a `CATALOG ADD` request line.
pub fn catalog_add_request(name: &str, view_text: &str) -> String {
    format!("CATALOG ADD {name} {}", escape(view_text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_roundtrips_multiline_update() {
        let update = "FOR $r IN document(\"V.xml\")\nUPDATE $r { DELETE $b }";
        let line = check_request("books", update);
        assert!(!line.contains('\n'));
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Check { view: "books".into(), update: update.into() }
        );
    }

    #[test]
    fn catalog_requests_parse() {
        assert_eq!(
            parse_request(&catalog_add_request("v1", "FOR $x ...")).unwrap(),
            Request::CatalogAdd { name: "v1".into(), view_text: "FOR $x ...".into() }
        );
        assert_eq!(
            parse_request("CATALOG DROP v1").unwrap(),
            Request::CatalogDrop { name: "v1".into() }
        );
        assert_eq!(parse_request("CATALOG LIST").unwrap(), Request::CatalogList);
        assert!(parse_request("CATALOG LIST extra").is_err());
        assert_eq!(parse_request("CATALOG VERIFY").unwrap(), Request::CatalogVerify);
        assert!(parse_request("CATALOG VERIFY now").is_err());
        assert!(parse_request("CATALOG NUKE v1").is_err());
    }

    #[test]
    fn zero_operand_verbs_reject_operands() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert!(parse_request("PING now").is_err());
        assert!(parse_request("METRICS now").is_err());
    }

    #[test]
    fn wire_verbs_are_stable_lowercase_labels() {
        assert_eq!(Request::Metrics.wire_verb(), "metrics");
        assert_eq!(Request::Check { view: "v".into(), update: "u".into() }.wire_verb(), "check");
        assert_eq!(Request::CatalogList.wire_verb(), "catalog_list");
        assert_eq!(Request::Shutdown.wire_verb(), "shutdown");
    }

    #[test]
    fn batch_header_and_items_parse() {
        assert_eq!(parse_request("BATCH 3").unwrap(), Request::Batch { count: 3 });
        assert!(parse_request("BATCH").is_err());
        assert!(parse_request("BATCH many").is_err());
        // The count pre-sizes server buffers; absurd values are refused at
        // parse time (surfaced by wire-frame fuzzing).
        assert_eq!(
            parse_request(&format!("BATCH {MAX_BATCH_ITEMS}")).unwrap(),
            Request::Batch { count: MAX_BATCH_ITEMS }
        );
        assert!(parse_request(&format!("BATCH {}", MAX_BATCH_ITEMS + 1)).is_err());
        assert!(parse_request("BATCHALL 99999999999").is_err());
        let (view, text) = parse_batch_item(&batch_item("books", "a b\nc")).unwrap();
        assert_eq!((view.as_str(), text.as_str()), ("books", "a b\nc"));
        assert!(parse_batch_item("no-space-here").is_err());
    }

    #[test]
    fn checkall_and_batchall_parse() {
        let update = "FOR $r IN document(\"V.xml\")\nUPDATE $r { DELETE $b }";
        assert_eq!(
            parse_request(&checkall_request(update)).unwrap(),
            Request::CheckAll { update: update.into() }
        );
        assert!(parse_request("CHECKALL").is_err());
        assert!(parse_request("CHECKALL two words").is_err());
        assert_eq!(parse_request("BATCHALL 2").unwrap(), Request::BatchAll { count: 2 });
        assert!(parse_request("BATCHALL many").is_err());
        assert_eq!(parse_batchall_item(&batchall_item("a b\nc")).unwrap(), "a b\nc");
        assert!(parse_batchall_item("raw space").is_err());
        assert!(parse_batchall_item("").is_err());
    }

    #[test]
    fn malformed_lines_yield_err_not_panic() {
        for bad in ["", "WAT", "CHECK", "CHECK v", "CHECK v %zz"] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
        assert!(err_reply("two words, a comma").starts_with("ERR "));
        assert!(!err_reply("a b").contains(" b"), "detail is escaped");
    }
}
