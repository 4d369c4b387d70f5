//! Decision provenance: a structured event log of *why* the manager did
//! what it did.
//!
//! The metrics layer (`crate::obs`, `ScanSharingManager::probe`) reports
//! *what* happened — hit ratios, group extents, slowdown fractions. This
//! module records the decisions themselves, each with the full input
//! context the policy saw and the outcome it chose:
//!
//! * [`DecisionEvent::GroupStart`] / [`DecisionEvent::GroupJoin`] — the
//!   candidate start locations placement scored, and the saving threshold
//!   that selected (or rejected) them,
//! * [`DecisionEvent::Throttle`] / [`DecisionEvent::Unthrottle`] — the
//!   leader–trailer distance against the threshold, the injected wait, and
//!   the accumulated slowdown against the fairness-cap budget,
//! * [`DecisionEvent::SlowdownCapHit`] — the moment a scan exhausts its
//!   80 % budget and becomes permanently throttle-exempt,
//! * [`DecisionEvent::RoleChange`] — leader/trailer/middle/singleton
//!   reclassifications as groups form and drift,
//! * [`DecisionEvent::PageReprioritize`] — the release-path priority the
//!   manager picked for a scan's pages changing with its role.
//!
//! The same log carries each scan's lifecycle — [`DecisionEvent::ScanStarted`]
//! (with the query and stream the engine runs it for),
//! [`DecisionEvent::ScanWrapped`] and [`DecisionEvent::ScanFinished`] — so
//! one event stream answers both "why" and "when": `scanshare trace`
//! rebuilds per-scan lifecycles from it and `explain` narrates it.
//!
//! Events flow through a [`DecisionLog`]: a cheap shared ring buffer with
//! a drop-oldest cap and JSONL export.

use parking_lot::Mutex;
use scanshare_storage::{PagePriority, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::anchor::AnchorId;
use crate::grouping::Role;
use crate::policy::SharingPolicyKind;
use crate::scan::{Location, ObjectId, ScanId};

/// One start location the placement policy considered for a new scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementCandidate {
    /// The ongoing scan whose position defines the candidate (`None` for
    /// computed optimal locations and finished-scan leftovers).
    pub scan: Option<ScanId>,
    /// The candidate start location.
    pub location: Location,
    /// Estimated absolute pages saved by starting here instead of fresh.
    pub saving_pages: f64,
    /// Savings per page scanned — the score candidates compete on.
    pub score: f64,
    /// The candidate member's speed (pages/s) at decision time.
    pub speed: f64,
}

/// One policy decision, with the inputs that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecisionEvent {
    /// A non-default sharing policy shaped this run; emitted once, when
    /// the first scan registers. (The default grouping policy stays
    /// silent so its reports match pre-policy-framework builds byte for
    /// byte.)
    PolicyChosen {
        /// The first scan of the run (the event anchor).
        scan: ScanId,
        /// The policy every subsequent decision flows through.
        policy: SharingPolicyKind,
    },
    /// Placement started the scan at its own start key — either no
    /// candidate existed or none cleared the saving threshold.
    GroupStart {
        /// The new scan.
        scan: ScanId,
        /// The scanned object.
        object: ObjectId,
        /// Every candidate considered (empty when placement is disabled
        /// or no same-object scans were ongoing).
        candidates: Vec<PlacementCandidate>,
        /// Minimum absolute saving (pages) a candidate needed to win.
        threshold_pages: f64,
    },
    /// Placement joined the scan to an existing page stream.
    GroupJoin {
        /// The new scan.
        scan: ScanId,
        /// The scanned object.
        object: ObjectId,
        /// The ongoing scan joined (`None`: finished-scan leftovers or a
        /// computed optimal location).
        joined: Option<ScanId>,
        /// Where the scan starts.
        location: Location,
        /// Pages to back up before `location` (finished-scan joins).
        back_up_pages: u64,
        /// Every candidate considered, including the winner.
        candidates: Vec<PlacementCandidate>,
        /// Minimum absolute saving (pages) the winner had to clear.
        threshold_pages: f64,
    },
    /// A wait was injected into a drifting group leader.
    Throttle {
        /// The throttled leader.
        scan: ScanId,
        /// The leader's group (anchor id).
        group: AnchorId,
        /// Leader–trailer distance in pages when the decision fired.
        distance_pages: u64,
        /// The distance threshold (two prefetch extents by default).
        threshold_pages: u64,
        /// The wait actually granted (fairness-capped).
        wait: SimDuration,
        /// Total slowdown absorbed by the scan after this wait.
        accumulated_slowdown: SimDuration,
        /// The scan's fairness-cap budget (`fairness_cap × est_time`).
        slowdown_budget: SimDuration,
        /// The configured fairness cap (0.8 = "80 % of estimated time").
        fairness_cap: f64,
        /// The trailer the leader is waiting for.
        trailer: ScanId,
        /// The trailer's speed (pages/s) the wait was sized from.
        trailer_speed: f64,
    },
    /// A previously throttled leader fell back inside the distance
    /// threshold (or stopped being a leader) and is no longer slowed.
    Unthrottle {
        /// The scan no longer being throttled.
        scan: ScanId,
        /// Its group (anchor id).
        group: AnchorId,
        /// Leader–trailer distance in pages at the decision.
        distance_pages: u64,
        /// The distance threshold it fell back inside.
        threshold_pages: u64,
    },
    /// The scan exhausted its fairness-cap budget: it is never throttled
    /// again until it finishes.
    SlowdownCapHit {
        /// The newly exempt scan.
        scan: ScanId,
        /// Slowdown absorbed so far (≥ the budget).
        accumulated_slowdown: SimDuration,
        /// The exhausted budget.
        slowdown_budget: SimDuration,
        /// The configured fairness cap.
        fairness_cap: f64,
    },
    /// The scan's role in its group changed.
    RoleChange {
        /// The reclassified scan.
        scan: ScanId,
        /// Its group (anchor id) after the change.
        group: AnchorId,
        /// Previous role.
        from: Role,
        /// New role.
        to: Role,
        /// The group's leader–trailer extent in pages.
        group_extent: u64,
        /// Number of scans in the group.
        members: usize,
    },
    /// The release priority the manager attaches to the scan's pages
    /// changed (pages enter the pool at `Normal`; leaders mark theirs
    /// `High`, trailers `Low`).
    PageReprioritize {
        /// The scan whose pages are re-prioritized.
        scan: ScanId,
        /// The scan's role driving the choice.
        role: Role,
        /// Priority previously attached on release.
        from: PagePriority,
        /// Priority attached from now on.
        to: PagePriority,
    },
    /// A fault plan fired in the scan's I/O path (reported by the engine
    /// after the fact; transient faults that a retry absorbed still show
    /// up here, which is how `explain` narrates retries).
    FaultInjected {
        /// The scan whose read was hit.
        scan: ScanId,
        /// The device the fault fired on.
        device: u32,
        /// The physical page address of the faulted request.
        page: u64,
        /// Whether a retry may succeed (`false`: dead device/region).
        transient: bool,
        /// 1-based attempt number the fault hit (attempt 2+ means the
        /// engine was already retrying).
        attempt: u32,
    },
    /// A faulted scan was removed from sharing: its group re-forms
    /// without it and any throttling it justified is lifted.
    ScanEvicted {
        /// The evicted scan.
        scan: ScanId,
        /// The group it was evicted from.
        group: AnchorId,
        /// The scanned object.
        object: ObjectId,
        /// Why the manager gave up on the scan.
        reason: String,
        /// Scans remaining in the group after the eviction.
        remaining: usize,
    },
    /// The manager acknowledged running degraded: a scan has been lost
    /// to faults and sharing proceeds with the survivors.
    DegradedMode {
        /// The scan whose loss triggered this transition.
        scan: ScanId,
        /// Scans evicted by faults so far this run.
        evicted_total: u64,
        /// Ongoing scans still being shared.
        active: usize,
    },
    /// Push delivery: a new consumer attached to a group driver's shared
    /// page stream. `missed_pages` is the prefix the consumer replays
    /// through its private pull cursor (the catch-up protocol).
    DriverAttach {
        /// The attaching consumer.
        scan: ScanId,
        /// The scan currently owning the group-driver cursor.
        driver: ScanId,
        /// The object whose pages the driver delivers.
        object: ObjectId,
        /// Pages the driver already delivered before this consumer
        /// attached — replayed privately.
        missed_pages: u64,
        /// Consumers attached to the driver after this attach.
        consumers: usize,
    },
    /// Push delivery: the group-driver role moved to a surviving
    /// consumer because the previous driver detached mid-lap (fault
    /// eviction — a finished driver retires its lap instead).
    DriverHandoff {
        /// The consumer now driving the cursor.
        scan: ScanId,
        /// The consumer that was driving.
        from: ScanId,
        /// The object whose pages the driver delivers.
        object: ObjectId,
        /// Pages left to deliver in the current lap.
        remaining_pages: u64,
        /// Consumers still attached (including the new driver).
        consumers: usize,
    },
    /// Lifecycle: the engine began executing a registered scan, right
    /// after its placement (and, in push delivery, its driver attach).
    ScanStarted {
        /// The new scan.
        scan: ScanId,
        /// Name of the query the scan belongs to.
        query: String,
        /// Index of the stream running the query.
        stream: usize,
    },
    /// Lifecycle: the scan wrapped around to its start key (phase two of
    /// a scan that was placed mid-range).
    ScanWrapped {
        /// The wrapping scan.
        scan: ScanId,
    },
    /// Lifecycle: the scan completed its range and left sharing. A scan
    /// lost to a fault ends with [`DecisionEvent::ScanEvicted`] instead.
    ScanFinished {
        /// The finished scan.
        scan: ScanId,
    },
}

impl DecisionEvent {
    /// The scan the decision is about.
    pub fn scan(&self) -> ScanId {
        match self {
            DecisionEvent::PolicyChosen { scan, .. }
            | DecisionEvent::GroupStart { scan, .. }
            | DecisionEvent::GroupJoin { scan, .. }
            | DecisionEvent::Throttle { scan, .. }
            | DecisionEvent::Unthrottle { scan, .. }
            | DecisionEvent::SlowdownCapHit { scan, .. }
            | DecisionEvent::RoleChange { scan, .. }
            | DecisionEvent::PageReprioritize { scan, .. }
            | DecisionEvent::FaultInjected { scan, .. }
            | DecisionEvent::ScanEvicted { scan, .. }
            | DecisionEvent::DegradedMode { scan, .. }
            | DecisionEvent::DriverAttach { scan, .. }
            | DecisionEvent::DriverHandoff { scan, .. }
            | DecisionEvent::ScanStarted { scan, .. }
            | DecisionEvent::ScanWrapped { scan }
            | DecisionEvent::ScanFinished { scan } => *scan,
        }
    }

    /// Whether the event records a scan's lifecycle (start, wrap,
    /// finish) rather than a policy decision.
    pub fn is_lifecycle(&self) -> bool {
        matches!(
            self,
            DecisionEvent::ScanStarted { .. }
                | DecisionEvent::ScanWrapped { .. }
                | DecisionEvent::ScanFinished { .. }
        )
    }

    /// The group (anchor) the decision names, when it names one.
    pub fn group(&self) -> Option<AnchorId> {
        match self {
            DecisionEvent::Throttle { group, .. }
            | DecisionEvent::Unthrottle { group, .. }
            | DecisionEvent::RoleChange { group, .. }
            | DecisionEvent::ScanEvicted { group, .. } => Some(*group),
            _ => None,
        }
    }
}

/// A timestamped decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Virtual time of the decision.
    pub at: SimTime,
    /// The decision.
    pub event: DecisionEvent,
}

/// Shared, thread-safe decision sink with a bounded ring buffer: oldest
/// events are dropped past the cap so long runs cannot exhaust memory.
/// Clones share the same buffer (`Arc` inside), so the manager and the
/// run driver can both hold a handle.
#[derive(Debug, Clone)]
pub struct DecisionLog {
    inner: Arc<Mutex<LogInner>>,
}

#[derive(Debug)]
struct LogInner {
    records: VecDeque<DecisionRecord>,
    cap: usize,
    dropped: u64,
}

impl DecisionLog {
    /// Create a log retaining at most `cap` decisions.
    pub fn new(cap: usize) -> Self {
        DecisionLog {
            inner: Arc::new(Mutex::new(LogInner {
                records: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            })),
        }
    }

    /// Record a decision.
    pub fn record(&self, at: SimTime, event: DecisionEvent) {
        let mut inner = self.inner.lock();
        if inner.records.len() >= inner.cap {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(DecisionRecord { at, event });
    }

    /// Snapshot of the retained decisions, oldest first.
    pub fn records(&self) -> Vec<DecisionRecord> {
        self.inner.lock().records.iter().cloned().collect()
    }

    /// Number of retained decisions.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().records.is_empty()
    }

    /// The newest `n` policy decisions, oldest of those first (the
    /// "decision tail" a live dashboard shows). Lifecycle events are
    /// skipped.
    pub fn tail(&self, n: usize) -> Vec<DecisionRecord> {
        let inner = self.inner.lock();
        let mut tail: Vec<DecisionRecord> = inner
            .records
            .iter()
            .rev()
            .filter(|r| !r.event.is_lifecycle())
            .take(n)
            .cloned()
            .collect();
        tail.reverse();
        tail
    }

    /// Decisions dropped due to the cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The retained decisions as JSON lines — parse back with
    /// [`decisions_from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        decisions_to_jsonl(&self.records())
    }
}

/// Serialize decisions as JSON lines (one `DecisionRecord` per line).
pub fn decisions_to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("decision record serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSON-lines decision log back into records. Blank lines are
/// skipped; the error names the offending line.
pub fn decisions_from_jsonl(text: &str) -> Result<Vec<DecisionRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: DecisionRecord =
            serde_json::from_str(line).map_err(|e| format!("decision line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Short lowercase name for a role (rendering).
pub fn role_name(r: Role) -> &'static str {
    match r {
        Role::Leader => "leader",
        Role::Trailer => "trailer",
        Role::Middle => "middle",
        Role::Singleton => "singleton",
    }
}

/// Short lowercase name for a page priority (rendering).
pub fn priority_name(p: PagePriority) -> &'static str {
    match p {
        PagePriority::High => "high",
        PagePriority::Normal => "normal",
        PagePriority::Low => "low",
    }
}

/// One decision as a single human-readable line (no timestamp).
pub fn describe(event: &DecisionEvent) -> String {
    match event {
        DecisionEvent::PolicyChosen { policy, .. } => format!(
            "sharing policy '{policy}' selected for this run (placement and throttling decisions below follow it)"
        ),
        DecisionEvent::GroupStart {
            scan,
            candidates,
            threshold_pages,
            ..
        } => {
            if candidates.is_empty() {
                format!("scan {} starts own group (no candidates)", scan.0)
            } else {
                let best = candidates
                    .iter()
                    .map(|c| c.saving_pages)
                    .fold(f64::NEG_INFINITY, f64::max);
                format!(
                    "scan {} starts own group ({} candidate{} below threshold {:.1} pages, best saving {:.1})",
                    scan.0,
                    candidates.len(),
                    if candidates.len() == 1 { "" } else { "s" },
                    threshold_pages,
                    best
                )
            }
        }
        DecisionEvent::GroupJoin {
            scan,
            joined,
            location,
            back_up_pages,
            candidates,
            threshold_pages,
            ..
        } => {
            let target = match joined {
                Some(j) => format!("scan {}", j.0),
                None if *back_up_pages > 0 => {
                    format!("finished scan leftovers (-{back_up_pages} pages)")
                }
                None => "computed location".to_string(),
            };
            let winner = candidates
                .iter()
                .map(|c| c.saving_pages)
                .fold(f64::NEG_INFINITY, f64::max);
            format!(
                "scan {} joins {} at key {} ({} candidate{}, best saving {:.1} >= threshold {:.1} pages)",
                scan.0,
                target,
                location.key,
                candidates.len(),
                if candidates.len() == 1 { "" } else { "s" },
                winner,
                threshold_pages
            )
        }
        DecisionEvent::Throttle {
            scan,
            distance_pages,
            threshold_pages,
            wait,
            accumulated_slowdown,
            slowdown_budget,
            fairness_cap,
            trailer,
            trailer_speed,
            ..
        } => {
            let frac = slowdown_frac(*accumulated_slowdown, *slowdown_budget);
            format!(
                "scan {} throttled {wait}: distance {distance_pages} pages > threshold {threshold_pages} pages, slowdown {:.1}%/{:.0}% of budget {slowdown_budget} (trailer {} at {:.1} pages/s)",
                scan.0,
                frac * 100.0,
                fairness_cap * 100.0,
                trailer.0,
                trailer_speed
            )
        }
        DecisionEvent::Unthrottle {
            scan,
            distance_pages,
            threshold_pages,
            ..
        } => format!(
            "scan {} unthrottled: distance {distance_pages} pages <= threshold {threshold_pages} pages",
            scan.0
        ),
        DecisionEvent::SlowdownCapHit {
            scan,
            accumulated_slowdown,
            slowdown_budget,
            fairness_cap,
        } => format!(
            "scan {} hit the {:.0}% slowdown cap ({accumulated_slowdown} of budget {slowdown_budget}): throttle-exempt until it finishes",
            scan.0,
            fairness_cap * 100.0
        ),
        DecisionEvent::RoleChange {
            scan,
            from,
            to,
            group_extent,
            members,
            ..
        } => format!(
            "scan {} role {} -> {} (group of {members}, extent {group_extent} pages)",
            scan.0,
            role_name(*from),
            role_name(*to)
        ),
        DecisionEvent::PageReprioritize { scan, role, from, to } => format!(
            "scan {} releases pages at {} priority (was {}) as {}",
            scan.0,
            priority_name(*to),
            priority_name(*from),
            role_name(*role)
        ),
        DecisionEvent::FaultInjected {
            scan,
            device,
            page,
            transient,
            attempt,
        } => {
            let kind = if *transient { "transient" } else { "permanent" };
            format!(
                "scan {} hit a {kind} read fault on device {device} page {page} (attempt {attempt})",
                scan.0
            )
        }
        DecisionEvent::ScanEvicted {
            scan,
            reason,
            remaining,
            ..
        } => format!(
            "scan {} evicted from its group ({reason}); {remaining} member{} remain",
            scan.0,
            if *remaining == 1 { "" } else { "s" }
        ),
        DecisionEvent::DegradedMode {
            scan,
            evicted_total,
            active,
        } => format!(
            "degraded mode: scan {} lost to faults ({evicted_total} evicted so far, {active} scan{} still sharing)",
            scan.0,
            if *active == 1 { "" } else { "s" }
        ),
        DecisionEvent::DriverAttach {
            scan,
            driver,
            missed_pages,
            consumers,
            ..
        } => {
            let catchup = if *missed_pages == 0 {
                "nothing to catch up".to_string()
            } else {
                format!("{missed_pages} missed pages replayed via private pull cursor")
            };
            format!(
                "scan {} attached to push driver {} ({consumers} consumer{} riding, {catchup})",
                scan.0,
                driver.0,
                if *consumers == 1 { "" } else { "s" }
            )
        }
        DecisionEvent::DriverHandoff {
            scan,
            from,
            remaining_pages,
            consumers,
            ..
        } => format!(
            "push driver handoff: scan {} takes the cursor from scan {} ({remaining_pages} pages left in the lap, {consumers} consumer{} attached)",
            scan.0,
            from.0,
            if *consumers == 1 { "" } else { "s" }
        ),
        DecisionEvent::ScanStarted {
            scan,
            query,
            stream,
        } => format!("scan {} started for {query} (stream {stream})", scan.0),
        DecisionEvent::ScanWrapped { scan } => {
            format!("scan {} wrapped to its start key", scan.0)
        }
        DecisionEvent::ScanFinished { scan } => format!("scan {} finished its range", scan.0),
    }
}

/// Fraction of the slowdown budget spent, clamped to `[0, 1]`.
pub fn slowdown_frac(spent: SimDuration, budget: SimDuration) -> f64 {
    if budget == SimDuration::ZERO {
        if spent == SimDuration::ZERO {
            0.0
        } else {
            1.0
        }
    } else {
        (spent.as_micros() as f64 / budget.as_micros() as f64).min(1.0)
    }
}

/// Human-readable rendering of a decision slice, one timestamped line per
/// decision.
pub fn render_decisions(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        use std::fmt::Write;
        let _ = writeln!(out, "{} {}", r.at, describe(&r.event));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<DecisionEvent> {
        vec![
            DecisionEvent::GroupStart {
                scan: ScanId(0),
                object: ObjectId(3),
                candidates: vec![],
                threshold_pages: 16.0,
            },
            DecisionEvent::GroupJoin {
                scan: ScanId(1),
                object: ObjectId(3),
                joined: Some(ScanId(0)),
                location: Location::new(500, 500),
                back_up_pages: 0,
                candidates: vec![PlacementCandidate {
                    scan: Some(ScanId(0)),
                    location: Location::new(500, 500),
                    saving_pages: 310.0,
                    score: 0.8,
                    speed: 120.0,
                }],
                threshold_pages: 16.0,
            },
            DecisionEvent::Throttle {
                scan: ScanId(0),
                group: AnchorId(0),
                distance_pages: 160,
                threshold_pages: 32,
                wait: SimDuration::from_millis(12),
                accumulated_slowdown: SimDuration::from_millis(12),
                slowdown_budget: SimDuration::from_secs(80),
                fairness_cap: 0.8,
                trailer: ScanId(1),
                trailer_speed: 40.0,
            },
            DecisionEvent::Unthrottle {
                scan: ScanId(0),
                group: AnchorId(0),
                distance_pages: 20,
                threshold_pages: 32,
            },
            DecisionEvent::SlowdownCapHit {
                scan: ScanId(0),
                accumulated_slowdown: SimDuration::from_secs(80),
                slowdown_budget: SimDuration::from_secs(80),
                fairness_cap: 0.8,
            },
            DecisionEvent::RoleChange {
                scan: ScanId(1),
                group: AnchorId(0),
                from: Role::Middle,
                to: Role::Trailer,
                group_extent: 48,
                members: 3,
            },
            DecisionEvent::PageReprioritize {
                scan: ScanId(1),
                role: Role::Trailer,
                from: PagePriority::Normal,
                to: PagePriority::Low,
            },
            DecisionEvent::FaultInjected {
                scan: ScanId(2),
                device: 1,
                page: 640,
                transient: true,
                attempt: 2,
            },
            DecisionEvent::ScanEvicted {
                scan: ScanId(2),
                group: AnchorId(0),
                object: ObjectId(3),
                reason: "permanent read fault on device 1".to_string(),
                remaining: 2,
            },
            DecisionEvent::DegradedMode {
                scan: ScanId(2),
                evicted_total: 1,
                active: 2,
            },
            DecisionEvent::PolicyChosen {
                scan: ScanId(0),
                policy: SharingPolicyKind::Elevator,
            },
            DecisionEvent::DriverAttach {
                scan: ScanId(3),
                driver: ScanId(0),
                object: ObjectId(3),
                missed_pages: 48,
                consumers: 3,
            },
            DecisionEvent::DriverHandoff {
                scan: ScanId(1),
                from: ScanId(0),
                object: ObjectId(3),
                remaining_pages: 512,
                consumers: 2,
            },
            DecisionEvent::ScanStarted {
                scan: ScanId(4),
                query: "Q6".to_string(),
                stream: 2,
            },
            DecisionEvent::ScanWrapped { scan: ScanId(4) },
            DecisionEvent::ScanFinished { scan: ScanId(4) },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let log = DecisionLog::new(64);
        for (i, e) in sample_events().into_iter().enumerate() {
            log.record(SimTime::from_millis(i as u64), e);
        }
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 16);
        let back = decisions_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, log.records());
        // Blank lines tolerated; garbage names its line.
        assert_eq!(decisions_from_jsonl("\n\n").unwrap(), vec![]);
        let err = decisions_from_jsonl("{}\n").unwrap_err();
        assert!(err.contains("decision line 1"), "got: {err}");
    }

    #[test]
    fn cap_drops_oldest_and_counts() {
        let log = DecisionLog::new(2);
        for i in 0..5u64 {
            log.record(
                SimTime::from_millis(i),
                DecisionEvent::Unthrottle {
                    scan: ScanId(i),
                    group: AnchorId(0),
                    distance_pages: 0,
                    threshold_pages: 32,
                },
            );
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.records()[0].event.scan(), ScanId(3));
    }

    #[test]
    fn tail_returns_the_newest_decisions() {
        let log = DecisionLog::new(16);
        for i in 0..6u64 {
            log.record(
                SimTime::from_millis(i),
                DecisionEvent::Unthrottle {
                    scan: ScanId(i),
                    group: AnchorId(0),
                    distance_pages: 0,
                    threshold_pages: 32,
                },
            );
        }
        let tail = log.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].event.scan(), ScanId(4));
        assert_eq!(tail[1].event.scan(), ScanId(5));
        assert_eq!(log.tail(100).len(), 6);
        // Lifecycle events never displace policy decisions from the tail.
        log.record(
            SimTime::from_millis(7),
            DecisionEvent::ScanFinished { scan: ScanId(5) },
        );
        assert_eq!(log.tail(2), tail);
    }

    #[test]
    fn describe_names_thresholds_and_caps() {
        let events = sample_events();
        let throttle = describe(&events[2]);
        assert!(throttle.contains("threshold 32 pages"), "got: {throttle}");
        assert!(throttle.contains("80%"), "got: {throttle}");
        assert!(throttle.contains("trailer 1"), "got: {throttle}");
        let join = describe(&events[1]);
        assert!(join.contains("joins scan 0"), "got: {join}");
        assert!(join.contains("threshold 16.0"), "got: {join}");
        let cap = describe(&events[4]);
        assert!(cap.contains("slowdown cap"), "got: {cap}");
        let role = describe(&events[5]);
        assert!(role.contains("middle -> trailer"), "got: {role}");
        let prio = describe(&events[6]);
        assert!(prio.contains("low"), "got: {prio}");
        let fault = describe(&events[7]);
        assert!(
            fault.contains("transient read fault on device 1 page 640"),
            "got: {fault}"
        );
        assert!(fault.contains("attempt 2"), "got: {fault}");
        let evict = describe(&events[8]);
        assert!(evict.contains("evicted"), "got: {evict}");
        assert!(evict.contains("2 members remain"), "got: {evict}");
        let degraded = describe(&events[9]);
        assert!(degraded.contains("degraded mode"), "got: {degraded}");
        let policy = describe(&events[10]);
        assert!(policy.contains("policy 'elevator'"), "got: {policy}");
        let attach = describe(&events[11]);
        assert!(
            attach.contains("attached to push driver 0"),
            "got: {attach}"
        );
        assert!(
            attach.contains("48 missed pages replayed via private pull cursor"),
            "got: {attach}"
        );
        let handoff = describe(&events[12]);
        assert!(handoff.contains("driver handoff"), "got: {handoff}");
        assert!(
            handoff.contains("takes the cursor from scan 0"),
            "got: {handoff}"
        );
        assert!(handoff.contains("512 pages left"), "got: {handoff}");
        let founder = describe(&DecisionEvent::DriverAttach {
            scan: ScanId(0),
            driver: ScanId(0),
            object: ObjectId(3),
            missed_pages: 0,
            consumers: 1,
        });
        assert!(founder.contains("nothing to catch up"), "got: {founder}");
        assert_eq!(describe(&events[13]), "scan 4 started for Q6 (stream 2)");
        assert!(describe(&events[14]).contains("wrapped"));
        assert!(describe(&events[15]).contains("finished"));
    }

    #[test]
    fn accessors_expose_scan_and_group() {
        let events = sample_events();
        assert_eq!(events[0].scan(), ScanId(0));
        assert_eq!(events[0].group(), None);
        assert_eq!(events[2].group(), Some(AnchorId(0)));
        assert_eq!(events[5].group(), Some(AnchorId(0)));
        assert_eq!(events[7].scan(), ScanId(2));
        assert_eq!(events[7].group(), None);
        assert_eq!(events[8].group(), Some(AnchorId(0)));
        assert_eq!(events[9].group(), None);
        assert_eq!(events[10].scan(), ScanId(0));
        assert_eq!(events[10].group(), None);
        assert_eq!(events[11].scan(), ScanId(3));
        assert_eq!(events[11].group(), None);
        assert_eq!(events[12].scan(), ScanId(1));
        assert_eq!(events[12].group(), None);
        for e in &events[13..] {
            assert_eq!(e.scan(), ScanId(4));
            assert_eq!(e.group(), None);
            assert!(e.is_lifecycle());
        }
        assert!(events[..13].iter().all(|e| !e.is_lifecycle()));
    }

    #[test]
    fn slowdown_frac_clamps_and_handles_zero_budget() {
        let z = SimDuration::ZERO;
        assert_eq!(slowdown_frac(z, z), 0.0);
        assert_eq!(slowdown_frac(SimDuration::from_secs(1), z), 1.0);
        let f = slowdown_frac(SimDuration::from_secs(1), SimDuration::from_secs(4));
        assert!((f - 0.25).abs() < 1e-9);
        assert_eq!(
            slowdown_frac(SimDuration::from_secs(9), SimDuration::from_secs(4)),
            1.0
        );
    }

    #[test]
    fn log_is_cheap_to_clone_and_share() {
        let log = DecisionLog::new(8);
        let log2 = log.clone();
        log2.record(
            SimTime::ZERO,
            DecisionEvent::Unthrottle {
                scan: ScanId(0),
                group: AnchorId(0),
                distance_pages: 0,
                threshold_pages: 32,
            },
        );
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }
}
