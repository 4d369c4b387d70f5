//! Scan lifecycles reassembled from a run's decision log.
//!
//! `scanshare trace` replays the [`DecisionRecord`]s a run embedded in
//! its report (or wrote with `run --trace-out`) as one row per scan: the
//! query and stream it served, how placement started it, when it
//! started, wrapped and finished, and the throttle waits injected into
//! it. The lifecycle events (`ScanStarted`, `ScanWrapped`,
//! `ScanFinished`, `ScanEvicted`) and the placement and throttle
//! decisions all come from the one event stream the manager records.

use std::collections::{BTreeMap, BTreeSet};

use scanshare::{DecisionEvent, DecisionRecord, ScanId};
use scanshare_storage::{SimDuration, SimTime};

/// One scan's lifecycle: a span from start to finish with the wraps and
/// throttle waits attributed to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanLifecycle {
    /// The scan.
    pub scan: ScanId,
    /// Query name, from the start event.
    pub query: String,
    /// Stream index, from the start event.
    pub stream: usize,
    /// How placement started the scan (see [`placement_label`]).
    pub placement: String,
    /// When the scan started (`None` if the start event was dropped).
    pub start: Option<SimTime>,
    /// When the scan finished or was evicted (`None` if still running
    /// or dropped).
    pub finish: Option<SimTime>,
    /// Times the scan wrapped to its second phase.
    pub wraps: Vec<SimTime>,
    /// Number of throttle waits injected.
    pub throttles: u64,
    /// Total injected throttle wait.
    pub throttle_wait: SimDuration,
}

impl ScanLifecycle {
    /// Start-to-finish duration, when both ends were recorded.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finish?.since(self.start?))
    }
}

/// How a placement or push-attach decision started its scan: `fresh`,
/// `join scan N @ key K`, `join finished @ key K (-P pages)`,
/// `push-driver` or `push-rider(driver sN, catch-up Mp)`. `None` for
/// events that place nothing.
pub fn placement_label(event: &DecisionEvent) -> Option<String> {
    Some(match event {
        DecisionEvent::GroupStart { .. } => "fresh".to_string(),
        DecisionEvent::GroupJoin {
            joined: Some(s),
            location,
            ..
        } => format!("join scan {} @ key {}", s.0, location.key),
        DecisionEvent::GroupJoin {
            joined: None,
            location,
            back_up_pages,
            ..
        } => format!(
            "join finished @ key {} (-{back_up_pages} pages)",
            location.key
        ),
        DecisionEvent::DriverAttach { scan, driver, .. } if scan == driver => {
            "push-driver".to_string()
        }
        DecisionEvent::DriverAttach {
            driver,
            missed_pages,
            ..
        } => format!("push-rider(driver s{}, catch-up {missed_pages}p)", driver.0),
        _ => return None,
    })
}

/// Reassemble per-scan lifecycles from a decision log, in scan-id order.
///
/// In push delivery the driver attach follows the placement decision and
/// overrides its label. The manager decides throttles for every consumer
/// of a cohort in lockstep, but the engine applies only the driver's
/// wait, so a rider's throttles count only once a handoff made it the
/// driver.
pub fn lifecycles(records: &[DecisionRecord]) -> Vec<ScanLifecycle> {
    fn span(by_scan: &mut BTreeMap<ScanId, ScanLifecycle>, scan: ScanId) -> &mut ScanLifecycle {
        by_scan.entry(scan).or_insert_with(|| ScanLifecycle {
            scan,
            ..ScanLifecycle::default()
        })
    }
    let mut by_scan = BTreeMap::new();
    let mut riders = BTreeSet::new();
    for r in records {
        let id = r.event.scan();
        match &r.event {
            DecisionEvent::ScanStarted { query, stream, .. } => {
                let s = span(&mut by_scan, id);
                s.query = query.clone();
                s.stream = *stream;
                s.start = Some(r.at);
            }
            DecisionEvent::ScanWrapped { .. } => span(&mut by_scan, id).wraps.push(r.at),
            DecisionEvent::Throttle { wait, .. } if !riders.contains(&id) => {
                let s = span(&mut by_scan, id);
                s.throttles += 1;
                s.throttle_wait += *wait;
            }
            DecisionEvent::ScanFinished { .. } | DecisionEvent::ScanEvicted { .. } => {
                span(&mut by_scan, id).finish = Some(r.at);
            }
            DecisionEvent::DriverHandoff { .. } => {
                riders.remove(&id);
            }
            event => {
                if let DecisionEvent::DriverAttach { driver, .. } = event {
                    if *driver != id {
                        riders.insert(id);
                    }
                }
                if let Some(label) = placement_label(event) {
                    span(&mut by_scan, id).placement = label;
                }
            }
        }
    }
    by_scan.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_trace;

    /// Records from `ms Variant {fields}` lines, one per event.
    fn log(lines: &[&str]) -> Vec<DecisionRecord> {
        let record = |line: &&str| {
            let mut parts = line.splitn(3, ' ');
            let (ms, kind) = (parts.next().unwrap(), parts.next().unwrap());
            let body = parts.next().unwrap_or("");
            let json = format!(r#"{{"at":{ms}000,"event":{{"{kind}":{body}}}}}"#);
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{json}: {e}"))
        };
        lines.iter().map(record).collect()
    }

    /// A `Throttle` line injecting `wait_ms` into `scan` at `ms`.
    fn throttle(ms: u64, scan: u64, wait_ms: u64) -> String {
        let us = wait_ms * 1000;
        format!(
            r#"{ms} Throttle {{"scan":{scan},"group":0,"distance_pages":64,"threshold_pages":32,"wait":{us},"accumulated_slowdown":{us},"slowdown_budget":8000000,"fairness_cap":0.8,"trailer":9,"trailer_speed":10.0}}"#
        )
    }

    const START_1: &str =
        r#"10 GroupStart {"scan":1,"object":1,"candidates":[],"threshold_pages":16.0}"#;
    const JOIN_2: &str = r#"12 GroupJoin {"scan":2,"object":1,"joined":1,"location":{"key":5,"pos":5},"back_up_pages":0,"candidates":[],"threshold_pages":16.0}"#;
    const LEFTOVERS_2: &str = r#"12 GroupJoin {"scan":2,"object":1,"joined":null,"location":{"key":7,"pos":7},"back_up_pages":320,"candidates":[],"threshold_pages":16.0}"#;
    const DRIVER_1: &str =
        r#"10 DriverAttach {"scan":1,"driver":1,"object":1,"missed_pages":0,"consumers":1}"#;
    const RIDER_2: &str =
        r#"12 DriverAttach {"scan":2,"driver":1,"object":1,"missed_pages":48,"consumers":2}"#;

    fn label(line: &str) -> Option<String> {
        placement_label(&log(&[line])[0].event)
    }

    #[test]
    fn labels_describe_decisions() {
        assert_eq!(label(START_1).unwrap(), "fresh");
        assert_eq!(label(JOIN_2).unwrap(), "join scan 1 @ key 5");
        assert_eq!(
            label(LEFTOVERS_2).unwrap(),
            "join finished @ key 7 (-320 pages)"
        );
        assert_eq!(label(DRIVER_1).unwrap(), "push-driver");
        assert_eq!(
            label(RIDER_2).unwrap(),
            "push-rider(driver s1, catch-up 48p)"
        );
        assert_eq!(label(r#"1 ScanWrapped {"scan":1}"#), None);
    }

    #[test]
    fn spans_reassemble_scan_lifecycles() {
        let records = log(&[
            START_1,
            r#"10 ScanStarted {"scan":1,"query":"Q6","stream":0}"#,
            JOIN_2,
            r#"12 ScanStarted {"scan":2,"query":"Q6","stream":1}"#,
            &throttle(20, 1, 3),
            &throttle(30, 1, 2),
            r#"40 ScanWrapped {"scan":2}"#,
            r#"50 ScanFinished {"scan":1}"#,
            r#"60 ScanFinished {"scan":2}"#,
        ]);
        let spans = lifecycles(&records);
        assert_eq!(spans.len(), 2);
        let (s1, s2) = (&spans[0], &spans[1]);
        assert_eq!(
            (s1.scan, s1.query.as_str(), s1.placement.as_str()),
            (ScanId(1), "Q6", "fresh")
        );
        assert_eq!(
            (s1.throttles, s1.throttle_wait),
            (2, SimDuration::from_millis(5))
        );
        assert_eq!(s1.elapsed(), Some(SimDuration::from_millis(40)));
        assert!(s1.wraps.is_empty());
        assert_eq!(s2.wraps, vec![SimTime::from_millis(40)]);
        assert_eq!(
            (s2.stream, s2.placement.as_str()),
            (1, "join scan 1 @ key 5")
        );
    }

    #[test]
    fn rider_throttles_count_only_after_a_handoff() {
        // Push delivery: the manager throttles a cohort in lockstep, but
        // only the driver's wait is applied.
        let spans = lifecycles(&log(&[
            START_1,
            DRIVER_1,
            JOIN_2,
            RIDER_2,
            &throttle(20, 1, 3),
            &throttle(20, 2, 3),
            r#"25 DriverHandoff {"scan":2,"from":1,"object":1,"remaining_pages":100,"consumers":1}"#,
            &throttle(30, 2, 2),
        ]));
        assert_eq!(
            (spans[0].placement.as_str(), spans[0].throttles),
            ("push-driver", 1)
        );
        assert_eq!(spans[1].placement, "push-rider(driver s1, catch-up 48p)");
        assert_eq!(spans[1].throttle_wait, SimDuration::from_millis(2));
    }

    #[test]
    fn spans_tolerate_dropped_start_events() {
        // Only an eviction survived the cap: the span exists but has no
        // start, so elapsed is unknown. Decisions that place nothing open
        // no span.
        let spans = lifecycles(&log(&[
            r#"9 ScanEvicted {"scan":7,"group":0,"object":1,"reason":"fault","remaining":0}"#,
            r#"9 Unthrottle {"scan":3,"group":0,"distance_pages":0,"threshold_pages":32}"#,
        ]));
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].elapsed()), (None, None));
        assert_eq!(spans[0].finish, Some(SimTime::from_millis(9)));
    }

    #[test]
    fn records_and_renders_events() {
        let records = log(&[
            START_1,
            r#"10 ScanStarted {"scan":1,"query":"Q6","stream":0}"#,
            &throttle(20, 1, 3),
            r#"50 ScanFinished {"scan":1}"#,
        ]);
        let text = render_trace(&records, 0);
        assert!(text.contains("scan lifecycles (1)"), "got: {text}");
        assert!(text.contains("events (4)"), "got: {text}");
        assert!(
            text.contains("scan 1 started for Q6 (stream 0)"),
            "got: {text}"
        );
        assert!(text.contains("throttled"), "got: {text}");
        assert!(!text.contains("dropped"), "got: {text}");
    }

    #[test]
    fn render_surfaces_the_dropped_count() {
        let text = render_trace(&log(&[r#"50 ScanFinished {"scan":1}"#]), 3);
        assert!(
            text.starts_with("(dropped 3 older decisions)\n"),
            "got: {text}"
        );
        assert!(text.contains("scan lifecycles (1)"), "got: {text}");
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        // `run --trace-out` writes the log as JSON lines; `trace` reads
        // it back, with no dropped count to report.
        let records = log(&[
            START_1,
            r#"10 ScanStarted {"scan":1,"query":"Q6","stream":2}"#,
            r#"15 ScanWrapped {"scan":1}"#,
            &throttle(20, 1, 3),
            r#"50 ScanFinished {"scan":1}"#,
        ]);
        let path = std::env::temp_dir().join(format!("scanshare_log_{}.jsonl", std::process::id()));
        std::fs::write(&path, scanshare::decision::decisions_to_jsonl(&records)).unwrap();
        assert_eq!(
            crate::load_artifact_trace(path.to_str().unwrap()),
            Ok((records, 0))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cap_drops_oldest() {
        // A log capped below the run's event count keeps the newest
        // records; the report carries the overflow count, and `explain`
        // and `trace` both say the log is truncated.
        use scanshare::{DecisionLog, SharingConfig};
        use scanshare_engine::{run_workload, run_workload_hooked, RunHooks, SharingMode};
        let tpch = scanshare_tpch::TpchConfig::tiny();
        let db = scanshare_tpch::generate(&tpch);
        let mode = SharingMode::ScanSharing(SharingConfig::new(0));
        let spec = scanshare_tpch::throughput_workload(&db, 2, tpch.months as i64, tpch.seed, mode);
        let decisions = Some(DecisionLog::new(8));
        let r = run_workload_hooked(
            &db,
            &spec,
            RunHooks {
                decisions,
                ..RunHooks::default()
            },
        )
        .unwrap();
        assert_eq!(r.decisions.len(), 8);
        assert!(r.decisions_dropped > 0);
        let json = serde_json::to_string(&r).unwrap();
        let back: scanshare_engine::RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.decisions_dropped, r.decisions_dropped);
        let line = format!("(dropped {} older decisions)", r.decisions_dropped);
        assert!(render_trace(&r.decisions, r.decisions_dropped).contains(&line));
        assert!(crate::explain::render_explain(&r, None)
            .unwrap()
            .contains(&line));
        // An uncapped run keeps the count out of its report entirely.
        let full = serde_json::to_string(&run_workload(&db, &spec).unwrap()).unwrap();
        assert!(!full.contains("decisions_dropped"));
    }
}
