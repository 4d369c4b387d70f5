//! Standalone replay of the sharing manager at a workload's concurrency.
//!
//! The traced driver's `exec.step` span holds pool, disk model, row
//! pipeline *and* the manager's location update, and cannot split them
//! from outside the engine. This replay drives `ScanSharingManager`
//! alone: `n` table scans over the workload's `lineitem` page count, each
//! advanced one extent per round-robin call and restarted when it
//! finishes, with a wall-clock timer around every public call.

use std::time::Instant;

use scanshare::{
    DecisionLog, Location, ObjectId, ScanDesc, ScanId, ScanKind, ScanSharingManager, SharingConfig,
    StartDecision,
};
use scanshare_engine::workload::DEFAULT_DECISION_CAP;
use scanshare_storage::{SimDuration, SimTime};

/// Virtual time one extent takes in the replay (16 pages at the disk
/// model's sequential rate is of this order).
const EXTENT_TIME: SimDuration = SimDuration::from_micros(2_000);

/// Scan starts the replay makes at least, so that `start_scan`'s p99 has
/// samples beyond it.
const MIN_STARTS: usize = 256;

/// Laps every scan slot completes at least.
const MIN_LAPS: usize = 3;

/// Host nanoseconds of each public manager call the replay made.
#[derive(Default)]
pub struct ReplayTimes {
    /// `start_scan` calls.
    pub start_scan: Vec<u64>,
    /// `update_location` calls.
    pub update_location: Vec<u64>,
    /// `end_scan` calls.
    pub end_scan: Vec<u64>,
    /// `probe` calls, one per round.
    pub probe: Vec<u64>,
}

struct Slot {
    id: ScanId,
    pos: u64,
    left: u64,
}

fn timed<T>(out: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    out.push(t0.elapsed().as_nanos() as u64);
    r
}

/// Replay `streams` concurrent table scans over a `pages`-page table with
/// a `pool_pages` pool and `extent_pages`-page extents.
pub fn replay(streams: usize, pages: u64, pool_pages: u64, extent_pages: u64) -> ReplayTimes {
    let mgr = ScanSharingManager::new(SharingConfig {
        pool_pages,
        extent_pages,
        ..SharingConfig::new(pool_pages)
    });
    mgr.attach_decision_log(DecisionLog::new(DEFAULT_DECISION_CAP));
    let desc = ScanDesc {
        kind: ScanKind::Table,
        object: ObjectId(0),
        start_key: 0,
        end_key: pages as i64 - 1,
        est_pages: pages,
        est_time: EXTENT_TIME.times(pages.div_ceil(extent_pages)),
        priority: Default::default(),
    };
    let mut times = ReplayTimes::default();
    let mut slots: Vec<Option<Slot>> = (0..streams).map(|_| None).collect();
    let mut laps = vec![0usize; streams];
    let mut now = SimTime::ZERO;
    let tick = SimDuration::from_micros(EXTENT_TIME.as_micros() / streams as u64);
    while times.start_scan.len() < MIN_STARTS || laps.iter().any(|&l| l < MIN_LAPS) {
        for (slot, lap) in slots.iter_mut().zip(&mut laps) {
            now += tick;
            let s = slot.get_or_insert_with(|| {
                let (id, decision) =
                    timed(&mut times.start_scan, || mgr.start_scan(desc.clone(), now));
                let pos = match decision {
                    StartDecision::FromStart => 0,
                    StartDecision::JoinAt {
                        location,
                        back_up_pages,
                        ..
                    } => location.pos.min(pages - 1).saturating_sub(back_up_pages),
                };
                Slot {
                    id,
                    pos,
                    left: pages,
                }
            });
            let step = extent_pages.min(s.left).min(pages - s.pos);
            s.pos += step;
            s.left -= step;
            if s.left == 0 {
                timed(&mut times.end_scan, || mgr.end_scan(s.id, now));
                *slot = None;
                *lap += 1;
                continue;
            }
            if s.pos == pages {
                s.pos = 0;
                mgr.wrap_scan(s.id, now, Location::new(0, 0));
            }
            let at = Location::new(s.pos as i64, s.pos);
            timed(&mut times.update_location, || {
                mgr.update_location(s.id, now, at, step)
            });
        }
        timed(&mut times.probe, || mgr.probe());
    }
    times
}
