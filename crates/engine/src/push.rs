//! Push-based shared-scan delivery: one pool fix per page per group.
//!
//! In pull mode every scan of a cohort steps its own cursor and fixes
//! its own pages — N scans over the same table cost ≈ N pool fixes per
//! shared page, and the sharing manager spends its effort keeping the
//! cursors close enough that those fixes are hits. Push mode removes
//! the N cursors altogether: per (table, range) cohort a single *group
//! driver* cursor performs `fetch_extent` → fix → unpin exactly once
//! per extent and hands a borrowed view of the fixed pages to every
//! attached consumer's compiled row pipeline before release.
//!
//! The driver is not a task of its own: the event loop stays one event
//! per stream, and the *owning* consumer's events advance the shared
//! cursor. Riders park on the driver's next wake-up and pay only their
//! CPU share. A late joiner replays the prefix it missed through a
//! private, unmanaged pull cursor (`Plan::prefix`) driven by its own
//! stream events, concurrently with riding the ongoing lap — push's
//! analogue of the pull executor's wrap phase.
//!
//! Throttling throttles the *driver*: each extent's `update_location`
//! calls report every consumer at the same location (so groups, roles
//! and provenance stay meaningful), but only the owner's returned wait
//! and release priority are applied — there is no leader-trailer drift
//! to arbitrate inside a cohort, because there is only one cursor.
//!
//! Fault handling mirrors pull's graceful degradation. A read fault on
//! the shared cursor evicts the owner (partial answer, same eviction
//! reason format) and hands the cursor to the first surviving rider —
//! recorded as a [`scanshare::DecisionEvent::DriverHandoff`] — so the
//! cohort keeps its single-fix property across the failure. A fault on
//! a private catch-up cursor evicts only that consumer.

use std::collections::HashMap;

use scanshare::{ObjectId, PagePriority, ScanId, ScanKind};
use scanshare_storage::{FileId, PageId, SimTime, StorageError};

use crate::cost::CpuClass;
use crate::db::Database;
use crate::error::EngineResult;
use crate::exec::ExecWorld;
use crate::metrics::PushSummary;
use crate::query::{QueryResult, ScanSpec};
use crate::scan_exec::{
    consume_all_rows, plan_scan, AggState, Plan, PlannedScan, RowPipeline, ScanMetrics,
};

/// Handle of one admitted push consumer (index into the engine's
/// registry). Handed back to the stream task in place of a pull
/// [`crate::scan_exec::ScanExec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerId(usize);

/// Identity of a shareable page stream: same object, access kind and
/// key range ⇒ same stream of extents. Like pull-mode grouping, one key
/// may have several live drivers (the policy can refuse late attaches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DriverKey {
    object: u64,
    kind: u8,
    start_key: i64,
    end_key: i64,
}

/// One shared cursor: the *advance the cursor* half of a whole cohort.
#[derive(Debug)]
struct GroupDriver {
    plan: Plan,
    file: FileId,
    object: ObjectId,
    /// Consumer whose stream events step the cursor.
    owner: usize,
    /// Riding consumers, in attach order (owner excluded).
    attached: Vec<usize>,
    /// When the cursor next advances — what parked riders wait on.
    next_wake: SimTime,
    /// The lap is over (or the cohort died out); consumers finalize at
    /// their next event.
    done: bool,
}

/// One admitted scan: the *consume rows* half, plus its catch-up state.
struct Consumer {
    scan: ScanId,
    driver: usize,
    pipeline: RowPipeline,
    width: usize,
    cpu: CpuClass,
    agg: AggState,
    metrics: ScanMetrics,
    /// When this consumer's share of the last delivered extent is
    /// processed; it cannot finish (or absorb the next extent) earlier.
    ready_at: SimTime,
    /// Private pull cursor over the prefix missed before attaching.
    catchup: Option<Plan>,
    /// Died to a fault: finished with a partial answer.
    aborted: bool,
}

/// The per-run push-delivery engine: driver registry, consumer registry
/// and the run-level [`PushSummary`] counters. Owned by the workload
/// driver; one instance serves every stream of the run.
#[derive(Default)]
pub struct PushEngine {
    drivers: Vec<GroupDriver>,
    consumers: Vec<Consumer>,
    by_key: HashMap<DriverKey, Vec<usize>>,
    summary: PushSummary,
    // Reusable step buffers (drivers and catch-up cursors never step
    // concurrently within one call).
    ids: Vec<PageId>,
    rids: Vec<(PageId, u16)>,
    pages: Vec<(PageId, u32)>,
    prefetch: Vec<PageId>,
    faults: Vec<crate::faults::FaultEvent>,
}

impl PushEngine {
    /// An engine with no drivers yet.
    pub fn new() -> PushEngine {
        PushEngine::default()
    }

    /// Run-level counters so far (stamped into the report at the end).
    pub fn summary(&self) -> PushSummary {
        self.summary.clone()
    }

    /// The manager id of an admitted consumer.
    pub fn scan_id(&self, id: ConsumerId) -> ScanId {
        self.consumers[id.0].scan
    }

    /// The finished consumer's answer and measurements.
    pub fn take_result(&mut self, id: ConsumerId) -> (QueryResult, ScanMetrics) {
        let c = &mut self.consumers[id.0];
        (c.agg.result(), std::mem::take(&mut c.metrics))
    }

    /// Try to admit `spec` into push delivery at time `now`. Returns
    /// `None` when the spec is not push-shareable — RID fetches (their
    /// page sets are per-predicate, not a shareable linear range),
    /// order-requiring scans, and kinds excluded by the scope toggles —
    /// in which case the caller falls back to a pull [`crate::scan_exec::ScanExec`].
    ///
    /// Placement is *not* consulted: attaching to a driver replaces the
    /// start-location decision (the driver's cursor is the location).
    /// The policy still arbitrates via
    /// [`scanshare::ScanSharingManager::attach_push`]: a joiner that
    /// missed too much of the ongoing lap founds a second driver
    /// instead, exactly like pull mode's multiple groups per table.
    pub fn admit(
        &mut self,
        db: &Database,
        world: &mut ExecWorld<'_>,
        spec: &ScanSpec,
        now: SimTime,
    ) -> EngineResult<Option<ConsumerId>> {
        let Some(mgr) = world.mgr.clone() else {
            return Ok(None);
        };
        let shareable = !spec.require_order
            && match &spec.access {
                crate::query::Access::FullTable => world.cfg.share_table_scans,
                crate::query::Access::IndexRange { .. } => world.cfg.share_index_scans,
                crate::query::Access::RidRange { .. } => false,
            };
        if !shareable {
            return Ok(None);
        }
        let PlannedScan {
            file,
            schema,
            plan,
            desc,
        } = plan_scan(db, world, spec)?;
        if plan.is_rid() {
            return Ok(None);
        }
        let key = DriverKey {
            object: desc.object.0,
            kind: match desc.kind {
                ScanKind::Table => 0,
                ScanKind::Index => 1,
            },
            start_key: desc.start_key,
            end_key: desc.end_key,
        };
        let object = desc.object;
        let (scan, _placement) = mgr.start_scan(desc, now);

        // First live driver on this stream the policy lets us attach to;
        // otherwise found another one.
        let cid = self.consumers.len();
        let mut joined = None;
        for &di in self.by_key.get(&key).into_iter().flatten() {
            let drv = &self.drivers[di];
            if drv.done {
                continue;
            }
            let missed = drv.plan.visited_pages();
            if mgr.attach_push(missed, drv.plan.total_pages()) {
                joined = Some((di, missed));
                break;
            }
        }
        let (driver, catchup) = match joined {
            Some((di, missed)) => {
                let drv = &mut self.drivers[di];
                drv.attached.push(cid);
                self.summary.attaches += 1;
                let owner_scan = self.consumers[drv.owner].scan;
                let catchup = (missed > 0).then(|| drv.plan.prefix());
                mgr.note_driver_attach(
                    scan,
                    owner_scan,
                    object,
                    now,
                    missed,
                    drv.attached.len() + 1,
                );
                (di, catchup)
            }
            None => {
                let di = self.drivers.len();
                self.drivers.push(GroupDriver {
                    plan,
                    file,
                    object,
                    owner: cid,
                    attached: Vec::new(),
                    next_wake: now,
                    done: false,
                });
                self.by_key.entry(key).or_default().push(di);
                self.summary.drivers += 1;
                mgr.note_driver_attach(scan, scan, object, now, 0, 1);
                (di, None)
            }
        };
        self.consumers.push(Consumer {
            scan,
            driver,
            pipeline: RowPipeline::compile(&spec.pred, &spec.agg, &schema),
            width: schema.row_width(),
            cpu: spec.cpu,
            agg: AggState::new(spec.agg.sum_cols.len()),
            metrics: ScanMetrics::default(),
            ready_at: now,
            catchup,
            aborted: false,
        });
        Ok(Some(ConsumerId(cid)))
    }

    /// Advance consumer `id` by one event. Mirrors
    /// [`crate::scan_exec::ScanExec::step`]'s contract: the time of the
    /// consumer's next event, or `None` once it has finished (the
    /// manager is deregistered at that point and
    /// [`PushEngine::take_result`] yields the answer).
    pub fn step_consumer(
        &mut self,
        world: &mut ExecWorld<'_>,
        id: ConsumerId,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        let ci = id.0;
        if self.consumers[ci].aborted {
            return Ok(None);
        }
        let di = self.consumers[ci].driver;
        let driving = self.drivers[di].owner == ci && !self.drivers[di].done;
        if driving {
            return self.step_driver(world, di, now);
        }
        // Catch-up first: the missed prefix replays while the lap goes
        // on (the owner interleaves its catch-up after the lap is done).
        if self.consumers[ci].catchup.is_some() {
            return self.step_catchup(world, ci, now);
        }
        let c = &self.consumers[ci];
        if self.drivers[di].done && now >= c.ready_at {
            return Ok(self.finish_consumer(world, ci, now));
        }
        // Parked: wake when the cursor next moves or our CPU share of
        // the last extent completes, whichever is later. The +1µs floor
        // guarantees forward progress on ties (heap order breaks the
        // tie by sequence, and the driver may advance at exactly
        // `next_wake`).
        let wake = self.drivers[di]
            .next_wake
            .max(c.ready_at)
            .max(now + scanshare_storage::SimDuration::from_micros(1));
        Ok(Some(wake))
    }

    /// One extent of the shared cursor, driven by the owner's event.
    fn step_driver(
        &mut self,
        world: &mut ExecWorld<'_>,
        di: usize,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        let oi = self.drivers[di].owner;
        if self.drivers[di].plan.done() {
            // Lap over: riders finalize at their next wake; the owner
            // replays its own catch-up (if it inherited one via a
            // handoff... no: via attach then promotion) before ending.
            self.drivers[di].done = true;
            return self.step_consumer(world, ConsumerId(oi), now);
        }

        // Gather + fetch once for the whole cohort.
        let mut ids = std::mem::take(&mut self.ids);
        let mut rids = std::mem::take(&mut self.rids);
        let mut pages = std::mem::take(&mut self.pages);
        ids.clear();
        rids.clear();
        let (work, location, units, _wrap) = self.drivers[di].plan.gather(
            self.drivers[di].file,
            world.cfg.extent_pages,
            &mut ids,
            &mut rids,
        );
        let fetched = world.fetch_extent(now, &ids, &mut pages);
        self.report_faults(world, oi, now);
        let fetch = match fetched {
            Ok(f) => f,
            Err(StorageError::ReadFault {
                device,
                addr,
                transient,
            }) => {
                self.ids = ids;
                self.rids = rids;
                self.pages = pages;
                self.abort_owner(world, di, now, device, addr, transient);
                return Ok(None);
            }
            Err(e) => {
                self.ids = ids;
                self.rids = rids;
                self.pages = pages;
                return Err(e.into());
            }
        };
        let n_pages = ids.len() as u64;
        self.summary.extents_delivered += 1;
        self.summary.pages_delivered += n_pages;
        {
            let o = &mut self.consumers[oi];
            o.metrics.io_wait += fetch.ready.since(now);
            o.metrics.logical_reads += n_pages;
            o.metrics.physical_reads += fetch.misses;
        }

        // Every attached consumer's pipeline runs over the fixed pages
        // before release: owner first, then riders in attach order. Each
        // pays its own CPU share; the shared pool fix is paid once above.
        let pages_advanced = self.drivers[di].plan.pages_advanced(work, units);
        let mgr = world.mgr.clone();
        let mut owner_next = fetch.ready;
        let mut priority = PagePriority::Normal;
        let n_attached = self.drivers[di].attached.len();
        for k in 0..=n_attached {
            let ci = if k == 0 {
                oi
            } else {
                self.drivers[di].attached[k - 1]
            };
            let c = &mut self.consumers[ci];
            let rows = consume_all_rows(&world.pool, &pages, c.width, &c.pipeline, &mut c.agg)?;
            let cost = c.cpu.extent_cost(n_pages, rows);
            let done = world.run_cpu(fetch.ready, cost);
            c.metrics.cpu += cost;
            c.ready_at = done;
            self.summary.consumer_pages += n_pages;
            // Lockstep location updates keep the manager's groups, roles
            // and provenance meaningful; distance stays 0 inside the
            // cohort, and only the owner's wait/priority are applied —
            // throttling throttles the driver.
            if let Some(mgr) = &mgr {
                let out = mgr.update_location(c.scan, done, location, pages_advanced);
                if k == 0 {
                    let wait = out.wait;
                    priority = out.priority;
                    owner_next = done + wait;
                    if wait > scanshare_storage::SimDuration::ZERO {
                        c.metrics.throttle_wait += wait;
                        world.throttle_hist.record(wait.as_micros());
                    }
                }
            } else if k == 0 {
                owner_next = done;
            }
        }
        world.release_pages(&pages, priority)?;

        // Advance and prefetch the next extent, exactly like pull.
        self.drivers[di].plan.advance(units);
        if self.drivers[di].plan.done() {
            self.drivers[di].done = true;
        } else if world.cfg.prefetch_extents > 0 {
            let mut pf = std::mem::take(&mut self.prefetch);
            pf.clear();
            self.drivers[di].plan.peek_next_pages(
                self.drivers[di].file,
                world.cfg.extent_pages,
                &mut pf,
            );
            if !pf.is_empty() {
                world.prefetch(fetch.ready, &pf)?;
            }
            self.prefetch = pf;
        }
        self.drivers[di].next_wake = owner_next;
        self.ids = ids;
        self.rids = rids;
        self.pages = pages;
        Ok(Some(owner_next))
    }

    /// One extent of a private catch-up cursor: a plain unmanaged pull
    /// step (no `update_location` — the consumer's managed location is
    /// the driver's, and a second moving location would corrupt the
    /// lockstep the cohort reports).
    fn step_catchup(
        &mut self,
        world: &mut ExecWorld<'_>,
        ci: usize,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        // The consumer cannot absorb catch-up work before its share of
        // the last delivered extent is processed.
        let ready = self.consumers[ci].ready_at;
        if now < ready {
            return Ok(Some(ready));
        }
        let plan = self.consumers[ci].catchup.as_mut().expect("catch-up plan");
        if plan.done() {
            self.consumers[ci].catchup = None;
            return self.step_consumer(world, ConsumerId(ci), now);
        }
        let mut ids = std::mem::take(&mut self.ids);
        let mut rids = std::mem::take(&mut self.rids);
        let mut pages = std::mem::take(&mut self.pages);
        ids.clear();
        rids.clear();
        let file = self.drivers[self.consumers[ci].driver].file;
        let plan = self.consumers[ci].catchup.as_mut().expect("catch-up plan");
        let (_work, _location, units, _wrap) =
            plan.gather(file, world.cfg.extent_pages, &mut ids, &mut rids);
        let fetched = world.fetch_extent(now, &ids, &mut pages);
        self.report_faults(world, ci, now);
        let fetch = match fetched {
            Ok(f) => f,
            Err(StorageError::ReadFault {
                device,
                addr,
                transient,
            }) => {
                self.ids = ids;
                self.rids = rids;
                self.pages = pages;
                self.abort_rider(world, ci, now, device, addr, transient);
                return Ok(None);
            }
            Err(e) => {
                self.ids = ids;
                self.rids = rids;
                self.pages = pages;
                return Err(e.into());
            }
        };
        let n_pages = ids.len() as u64;
        self.summary.catchup_pages += n_pages;
        let c = &mut self.consumers[ci];
        c.metrics.io_wait += fetch.ready.since(now);
        c.metrics.logical_reads += n_pages;
        c.metrics.physical_reads += fetch.misses;
        let rows = consume_all_rows(&world.pool, &pages, c.width, &c.pipeline, &mut c.agg)?;
        let cost = c.cpu.extent_cost(n_pages, rows);
        let done = world.run_cpu(fetch.ready, cost);
        c.metrics.cpu += cost;
        c.ready_at = done;
        c.catchup.as_mut().expect("catch-up plan").advance(units);
        world.release_pages(&pages, PagePriority::Normal)?;
        self.ids = ids;
        self.rids = rids;
        self.pages = pages;
        Ok(Some(done))
    }

    /// Deregister a consumer whose lap (and catch-up) is complete.
    fn finish_consumer(
        &mut self,
        world: &mut ExecWorld<'_>,
        ci: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        let scan = self.consumers[ci].scan;
        if let Some(mgr) = world.mgr.clone() {
            mgr.end_scan(scan, now);
        }
        None
    }

    /// The shared cursor's read died for good. Evict the owner (partial
    /// answer, same reason format as pull) and hand the cursor to the
    /// first surviving rider so the cohort keeps going; with no
    /// survivors the driver ends.
    fn abort_owner(
        &mut self,
        world: &mut ExecWorld<'_>,
        di: usize,
        now: SimTime,
        device: u32,
        addr: u64,
        transient: bool,
    ) {
        let oi = self.drivers[di].owner;
        self.evict_consumer(world, oi, now, device, addr, transient);
        match self.drivers[di].attached.first().copied() {
            Some(heir) => {
                self.drivers[di].attached.retain(|&c| c != heir);
                self.drivers[di].owner = heir;
                self.summary.handoffs += 1;
                let remaining =
                    self.drivers[di].plan.total_pages() - self.drivers[di].plan.visited_pages();
                if let Some(mgr) = &world.mgr {
                    mgr.note_driver_handoff(
                        self.consumers[heir].scan,
                        self.consumers[oi].scan,
                        self.drivers[di].object,
                        now,
                        remaining,
                        self.drivers[di].attached.len() + 1,
                    );
                }
                // The heir retries the extent at its next parked event.
                self.drivers[di].next_wake = now + scanshare_storage::SimDuration::from_micros(1);
            }
            None => self.drivers[di].done = true,
        }
    }

    /// A private catch-up read died for good: evict that consumer only;
    /// the driver and the other riders are untouched.
    fn abort_rider(
        &mut self,
        world: &mut ExecWorld<'_>,
        ci: usize,
        now: SimTime,
        device: u32,
        addr: u64,
        transient: bool,
    ) {
        self.evict_consumer(world, ci, now, device, addr, transient);
        let di = self.consumers[ci].driver;
        self.drivers[di].attached.retain(|&c| c != ci);
    }

    fn evict_consumer(
        &mut self,
        world: &mut ExecWorld<'_>,
        ci: usize,
        now: SimTime,
        device: u32,
        addr: u64,
        transient: bool,
    ) {
        let kind = if transient {
            "exhausted retries on a transient"
        } else {
            "permanent"
        };
        let reason = format!("{kind} read fault on device {device} at page {addr}");
        let scan = self.consumers[ci].scan;
        if let Some(mgr) = world.mgr.clone() {
            mgr.evict_scan(scan, now, &reason);
        }
        world.note_scan_aborted();
        self.consumers[ci].aborted = true;
        self.consumers[ci].catchup = None;
    }

    /// Attribute fault events observed during this consumer's I/O
    /// (including transient faults a retry absorbed) to the decision log.
    fn report_faults(&mut self, world: &mut ExecWorld<'_>, ci: usize, now: SimTime) {
        if !world.faults_enabled() {
            return;
        }
        self.faults.clear();
        let mut events = std::mem::take(&mut self.faults);
        world.take_fault_events(&mut events);
        if let Some(mgr) = &world.mgr {
            let scan = self.consumers[ci].scan;
            for e in events.iter() {
                mgr.note_fault(scan, now, e.device, e.addr, e.transient, e.attempt);
            }
        }
        self.faults = events;
    }
}
