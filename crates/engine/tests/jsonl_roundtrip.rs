//! Property-style JSONL round-trip tests for the run's event log, the
//! core `DecisionLog`: policy decisions and scan lifecycle events alike.
//! Random records are generated with the repo's deterministic PRNG,
//! serialized to JSON lines, parsed back, and compared — including the
//! capped case, where the `dropped` count must account for every
//! eviction.

use scanshare::anchor::AnchorId;
use scanshare::{
    decision, DecisionEvent, DecisionLog, DecisionRecord, Location, ObjectId, PagePriority,
    PlacementCandidate, Role, ScanId,
};
use scanshare_prng::Rng;
use scanshare_storage::{SimDuration, SimTime};

fn random_candidate(rng: &mut Rng) -> PlacementCandidate {
    PlacementCandidate {
        scan: if rng.bounded_u64(4) == 0 {
            None
        } else {
            Some(ScanId(rng.bounded_u64(100)))
        },
        location: Location::new(rng.bounded_u64(10_000) as i64, rng.bounded_u64(10_000)),
        saving_pages: (rng.bounded_u64(4_000) as f64) / 4.0,
        score: (rng.bounded_u64(1_000) as f64) / 1_000.0,
        speed: (rng.bounded_u64(100_000) as f64) / 10.0,
    }
}

fn random_decision_event(rng: &mut Rng) -> DecisionEvent {
    let scan = ScanId(rng.bounded_u64(100));
    let roles = [Role::Leader, Role::Middle, Role::Trailer, Role::Singleton];
    let prios = [PagePriority::Low, PagePriority::Normal, PagePriority::High];
    match rng.bounded_u64(10) {
        0 => DecisionEvent::GroupStart {
            scan,
            object: ObjectId(rng.bounded_u64(16)),
            candidates: (0..rng.bounded_u64(4))
                .map(|_| random_candidate(rng))
                .collect(),
            threshold_pages: rng.bounded_u64(64) as f64,
        },
        1 => DecisionEvent::GroupJoin {
            scan,
            object: ObjectId(rng.bounded_u64(16)),
            joined: if rng.bounded_u64(3) == 0 {
                None
            } else {
                Some(ScanId(rng.bounded_u64(100)))
            },
            location: Location::new(rng.bounded_u64(10_000) as i64, rng.bounded_u64(10_000)),
            back_up_pages: rng.bounded_u64(256),
            candidates: (1..=rng.bounded_u64(3) + 1)
                .map(|_| random_candidate(rng))
                .collect(),
            threshold_pages: rng.bounded_u64(64) as f64,
        },
        2 => DecisionEvent::Throttle {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            distance_pages: rng.bounded_u64(1_000),
            threshold_pages: 32,
            wait: SimDuration::from_micros(rng.bounded_u64(500_000)),
            accumulated_slowdown: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            slowdown_budget: SimDuration::from_micros(rng.bounded_u64(50_000_000) + 1),
            fairness_cap: 0.8,
            trailer: ScanId(rng.bounded_u64(100)),
            trailer_speed: (rng.bounded_u64(100_000) as f64) / 10.0,
        },
        3 => DecisionEvent::Unthrottle {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            distance_pages: rng.bounded_u64(32),
            threshold_pages: 32,
        },
        4 => DecisionEvent::SlowdownCapHit {
            scan,
            accumulated_slowdown: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            slowdown_budget: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            fairness_cap: 0.8,
        },
        5 => DecisionEvent::RoleChange {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            from: roles[rng.bounded_u64(4) as usize],
            to: roles[rng.bounded_u64(4) as usize],
            group_extent: rng.bounded_u64(2_000),
            members: rng.bounded_u64(6) as usize + 1,
        },
        6 => DecisionEvent::PageReprioritize {
            scan,
            role: roles[rng.bounded_u64(4) as usize],
            from: prios[rng.bounded_u64(3) as usize],
            to: prios[rng.bounded_u64(3) as usize],
        },
        // Lifecycle events, with free-form query names.
        7 => DecisionEvent::ScanStarted {
            scan,
            query: format!("Q{}", rng.bounded_u64(22) + 1),
            stream: rng.bounded_u64(8) as usize,
        },
        8 => DecisionEvent::ScanWrapped { scan },
        _ => DecisionEvent::ScanFinished { scan },
    }
}

#[test]
fn decision_jsonl_round_trips_random_records() {
    let mut rng = Rng::seed_from_u64(0xDECADE);
    for trial in 0..20 {
        let n = rng.bounded_u64(60) as usize + 1;
        let records: Vec<DecisionRecord> = (0..n)
            .map(|i| DecisionRecord {
                at: SimTime::from_micros(i as u64 * 1_000 + rng.bounded_u64(999)),
                event: random_decision_event(&mut rng),
            })
            .collect();
        let jsonl = decision::decisions_to_jsonl(&records);
        let back = decision::decisions_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, records, "trial {trial} lost data in the round trip");
    }
}

#[test]
fn capped_decision_log_drops_oldest_and_survivors_round_trip() {
    let mut rng = Rng::seed_from_u64(99);
    for trial in 0..10 {
        let cap = rng.bounded_u64(20) as usize + 1;
        let total = cap + rng.bounded_u64(50) as usize;
        let log = DecisionLog::new(cap);
        let mut all = Vec::new();
        for i in 0..total {
            let ev = random_decision_event(&mut rng);
            log.record(SimTime::from_micros(i as u64), ev.clone());
            all.push(ev);
        }
        let retained = log.records();
        assert_eq!(
            log.dropped() as usize + retained.len(),
            total,
            "trial {trial}: dropped + retained != recorded"
        );
        assert_eq!(retained.len(), cap.min(total));
        for (r, ev) in retained.iter().zip(&all[total - retained.len()..]) {
            assert_eq!(&r.event, ev);
        }
        let back = decision::decisions_from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back, retained);
    }
}

#[test]
fn malformed_lines_name_their_line_number() {
    let err = decision::decisions_from_jsonl("\n{\"at\":0}\n").unwrap_err();
    assert!(err.contains("decision line 2"), "got: {err}");
    let err = decision::decisions_from_jsonl("\n\n{nope}\n").unwrap_err();
    assert!(err.contains("decision line 3"), "got: {err}");
}
