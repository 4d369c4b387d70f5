//! End-to-end observability: a shared multi-stream run produces a
//! [`RunReport`] artifact whose metrics snapshot and embedded event log
//! survive a save/load round trip and replay through the CLI renderers —
//! the `run --report` → `trace`/`metrics` workflow without the binary.

use std::collections::BTreeSet;

use scanshare_cli::{load_artifact_trace, load_report, render};
use scanshare_repro::core::decision::{decisions_from_jsonl, decisions_to_jsonl};
use scanshare_repro::core::{DecisionEvent, DeliveryMode, SharingConfig};
use scanshare_repro::engine::{run_workload, CpuClass, FaultsConfig, SharingMode};
use scanshare_repro::storage::SimDuration;
use scanshare_repro::tpch::{generate, q6, staggered_workload, throughput_workload, TpchConfig};

#[test]
fn shared_run_artifact_replays_through_the_cli_layer() {
    let cfg = TpchConfig::tiny();
    let db = generate(&cfg);

    // Two overlapping streams over the same range at different speeds:
    // the fast leader gets grouped with — and throttled against — the
    // slow trailer, so the slowdown series has something to show.
    let fast = q6(cfg.months as i64, 1);
    let mut spec = staggered_workload(
        &db,
        &fast,
        2,
        SimDuration::from_millis(20),
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    for scan in &mut spec.streams[1].queries[0].scans {
        scan.cpu = CpuClass::cpu_bound();
    }

    let report = run_workload(&db, &spec).expect("shared run");

    // The acceptance triad: leader-trailer distance series, slowdown-cap
    // series, and a populated latency histogram.
    let distances: Vec<_> = report.metrics.series_with_prefix("group.").collect();
    assert!(
        distances.iter().any(|s| !s.points.is_empty()),
        "no per-group distance series"
    );
    let slowdowns: Vec<_> = report.metrics.series_with_prefix("scan.").collect();
    assert!(
        slowdowns.iter().any(|s| !s.points.is_empty()),
        "no per-scan slowdown series"
    );
    let hist = report
        .metrics
        .histogram("disk.read_us")
        .expect("read-latency histogram");
    assert!(hist.count > 0 && hist.p99 >= hist.p50);
    assert!(!report.decisions.is_empty());

    // Save the artifact, reload it through the CLI loader, and check the
    // replay sees exactly what the run recorded.
    let path = std::env::temp_dir().join(format!("scanshare_obs_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    let loaded = load_report(path.to_str().unwrap()).expect("reload artifact");
    assert_eq!(loaded.makespan, report.makespan);
    assert_eq!(loaded.metrics, report.metrics);
    assert_eq!(loaded.decisions, report.decisions);
    let replayed = load_artifact_trace(path.to_str().unwrap()).expect("replay trace");
    assert_eq!(replayed, (report.decisions.clone(), 0));
    std::fs::remove_file(&path).ok();

    // The JSONL side channel is equivalent to the embedded log.
    let jsonl = decisions_to_jsonl(&report.decisions);
    assert_eq!(decisions_from_jsonl(&jsonl).unwrap(), report.decisions);

    // Both renderers produce the tables the subcommands print.
    let trace_text = render::render_trace(&loaded.decisions, loaded.decisions_dropped);
    assert!(trace_text.contains("scan lifecycles"));
    assert!(trace_text.contains("events"));
    let metrics_text = render::render_metrics(&loaded);
    assert!(metrics_text.contains("disk.read_us"));
    assert!(metrics_text.contains("group timelines"));
    assert!(metrics_text.contains("scan timelines"));
}

/// Every scan's lifecycle is complete in the event log, in both delivery
/// modes and when a permanent device fault evicts scans mid-run: one
/// start per registered scan, each closed by exactly one later finish or
/// eviction, and one throttle event per injected wait.
#[test]
fn lifecycle_events_are_complete_in_every_delivery_and_fault_mode() {
    let cfg = TpchConfig::tiny();
    let db = generate(&cfg);
    let dead_disk: FaultsConfig =
        serde_json::from_str(include_str!("../results/fault_plans/permanent_dev0.json"))
            .expect("fault plan parses");
    for delivery in [DeliveryMode::Pull, DeliveryMode::Push] {
        for faults in [FaultsConfig::default(), dead_disk.clone()] {
            let faulty = !faults.is_empty();
            let mut spec = throughput_workload(
                &db,
                4,
                cfg.months as i64,
                cfg.seed,
                SharingMode::ScanSharing(SharingConfig {
                    delivery,
                    ..SharingConfig::new(0)
                }),
            );
            spec.faults = faults;
            let r = run_workload(&db, &spec).expect("run completes");
            let case = format!("{delivery} delivery, faults: {faulty}");
            assert_eq!(r.decisions_dropped, 0, "{case}: log overflowed");

            let (mut open, mut starts, mut ends, mut throttles) = (BTreeSet::new(), 0, 0, 0);
            for d in &r.decisions {
                match &d.event {
                    DecisionEvent::ScanStarted { scan, .. } => {
                        assert!(open.insert(*scan), "{case}: {scan:?} restarted");
                        starts += 1;
                    }
                    DecisionEvent::ScanFinished { scan }
                    | DecisionEvent::ScanEvicted { scan, .. } => {
                        assert!(
                            open.remove(scan),
                            "{case}: {scan:?} ended twice or unstarted"
                        );
                        ends += 1;
                    }
                    DecisionEvent::Throttle { .. } => throttles += 1,
                    _ => {}
                }
            }
            assert_eq!(starts, r.sharing.scans_started, "{case}");
            assert_eq!(
                (ends, open.len()),
                (starts, 0),
                "{case}: a scan never ended"
            );
            assert_eq!(throttles, r.sharing.waits_injected, "{case}");
            let evictions = (r.decisions.iter())
                .filter(|d| matches!(d.event, DecisionEvent::ScanEvicted { .. }))
                .count();
            assert_eq!(evictions > 0, faulty, "{case}: evictions {evictions}");
        }
    }
}
