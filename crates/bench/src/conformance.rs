//! The conformance wall: one [`Cell`] — a scheme on a layout behind one
//! air, frozen or churning — run through every execution driver and every
//! recorder, with every per-cell invariant checked.
//!
//! The drivers are the direct walker (plain, span-recording, and a fresh
//! stepped slot, which never fast-forwards), the slab engine (fast-forward
//! on, off, and a second batch on the same engine), the reference oracle,
//! and the sharded engine at [`SHARDS`] shards. Every engine runs once per
//! recorder: none, per-phase spans, and spans plus windowed time series.
//! Corruption and churn are pure functions of the bucket instant and their
//! seeds, so every driver must report the same outcome for every request;
//! a divergence is a program bug. [`Cell::run`] also checks:
//!
//! * engine counters match the outcomes, repeat batch to batch on one
//!   engine (whose arena does not grow), agree across recorders, and are
//!   the same at every shard count; fast-forward never adds events;
//! * spans add up to each query's access and tuning: `Retry` spans equal
//!   retries, `StaleRecovery` spans equal skews, `Doze` tuning is 0, and on
//!   frozen lossless air there is one `InitialProbe` per query;
//! * the span hub is the same with fast-forward on and off, at every shard
//!   count, and folded from the direct walker's recorded spans; windowing
//!   refines it without changing an aggregate; window totals equal the
//!   engine counters and per-window counters are the same at every shard
//!   count;
//! * no query aborts, an abandoned query is never found, only a bounded
//!   policy abandons, and on a frozen program every query that does not
//!   abandon finds exactly the keys in the dataset;
//!
//! [`Cell::check`] adds that a lossy cell corrupts at least one read and a
//! churning one skews at least one walk, so no agreement is vacuous. The
//! matrix test (`tests/conformance.rs`) checks a fixed table of cells, and
//! the per-axis tests beside it (`tests/*_equiv.rs`, and the workspace's
//! `tests/drivers_equiv.rs`) check the configurations of one axis each
//! with [`check_all`], some also asserting on the [`CellStats`] it
//! returns; the `chaos` soak draws random cells, runs them through the
//! same wall and checks that its grid as a whole corrupts reads.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bda_core::{
    AccessOutcome, ChannelModel, Dataset, DynSystem, Key, LossModel, Params, Phase, RetryPolicy,
    Ticks, WalkStep,
};
use bda_datagen::DatasetBuilder;
use bda_obs::{Completion, Histogram, MetricsHub, PhaseSpans, TimeSeries, WindowSpec};
use bda_sim::engine::reference::run_requests_reference_channel;
use bda_sim::{
    CompletedRequest, Engine, EngineStats, Layout, SchemeKind, ShardedEngine, UpdateSpec,
};

/// The shard counts every cell runs the sharded engine at.
pub const SHARDS: [usize; 4] = [1, 2, 3, 7];

/// SplitMix64: the deterministic stream cells draw their parameters and
/// request mixes from.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform below `n` (below 1 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Where a cell's requests tune in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Uniformly over the first this many ticks.
    Within(Ticks),
    /// Uniformly over the first this many broadcast cycles of the built
    /// program.
    Cycles(u64),
}

/// One conformance cell, fully determined by its fields.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Seeds the dataset, the request mix and the update stream.
    pub seed: u64,
    /// The access method.
    pub kind: SchemeKind,
    /// Records in the dataset.
    pub records: usize,
    /// Requests in the batch; every fifth asks for an absent key.
    pub requests: usize,
    /// Where the requests tune in.
    pub arrivals: Arrivals,
    /// The air every client sees.
    pub channel: ChannelModel,
    /// How clients recover from a corrupted read.
    pub policy: RetryPolicy,
    /// Percent of records churned per cycle (0 = frozen program).
    pub churn_pct: u32,
    /// The single channel, broadcast disks, a striped channel group or an
    /// indexed one.
    pub layout: Layout,
}

/// What a cell's queries went through, summed over the batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellStats {
    /// Corrupted reads.
    pub retries: u64,
    /// Queries the retry policy gave up on.
    pub abandoned: u64,
    /// Stale-machine restarts.
    pub stale_restarts: u64,
    /// Version-skewed reads.
    pub version_skews: u64,
    /// Scheduler events the slab engine spent with fast-forward on.
    pub fast_events: u64,
    /// Scheduler events it spent bucket by bucket.
    pub slow_events: u64,
}

/// Fail the check with a formatted reason unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

impl Cell {
    /// A frozen cell of flat records on one lossless channel; vary it with
    /// struct update syntax and [`Cell::across`].
    pub fn single(seed: u64, records: usize, requests: usize, arrivals: Arrivals) -> Cell {
        Cell {
            seed,
            kind: SchemeKind::Flat,
            records,
            requests,
            arrivals,
            channel: ChannelModel::NONE,
            policy: RetryPolicy::UNBOUNDED,
            churn_pct: 0,
            layout: Layout::Single,
        }
    }

    /// This cell for every kind in `kinds` behind every air in `airs`,
    /// air-major.
    pub fn across(&self, kinds: &[SchemeKind], airs: &[(ChannelModel, RetryPolicy)]) -> Vec<Cell> {
        airs.iter()
            .flat_map(|&(channel, policy)| {
                kinds.iter().map(move |&kind| Cell {
                    kind,
                    channel,
                    policy,
                    ..self.clone()
                })
            })
            .collect()
    }

    /// The fully decoded configuration, one `  # `-prefixed line per
    /// concern: sizes and layout depth, loss process, outage schedule,
    /// retry policy and channel group. Nothing (a degenerate burst, an
    /// implicit outage schedule) has to be reverse-engineered.
    pub fn describe(&self) -> String {
        let loss = match &self.channel.loss {
            LossModel::Iid(m) => format!("loss=iid p={:.6} seed=0x{:X}", m.loss_prob, m.seed),
            LossModel::Burst(b) => format!(
                "loss=burst g2b={:.6} b2g={:.6} loss_good={:.6} loss_bad={:.6} seed=0x{:X}",
                b.p_good_to_bad, b.p_bad_to_good, b.loss_good, b.loss_bad, b.seed
            ),
        };
        let o = &self.channel.outages;
        let outages = if self.channel.has_outages() {
            format!(
                "outages every={} len={} seed=0x{:X}",
                o.every, o.len, o.seed
            )
        } else {
            "outages=none".to_string()
        };
        let p = &self.policy;
        let policy = format!(
            "policy retries={:?} backoff={} cap={} jitter={:?} give_up={:?}",
            p.max_retries, p.backoff_cycles, p.backoff_cap_cycles, p.jitter_seed, p.give_up_after
        );
        let (disks, group) = match &self.layout {
            Layout::Single => (1, "channels=1".to_string()),
            Layout::Disks(d) => (d.disks(), "channels=1".to_string()),
            Layout::Striped {
                group: g,
                partition,
            } => {
                let mut s = format!("channels={} switch_cost={}", g.channels, g.switch_cost);
                if let Some(sizes) = partition {
                    let _ = write!(s, " partition={sizes:?}");
                }
                (1, s)
            }
            Layout::Indexed {
                group: g,
                placement,
            } => {
                let mut s = format!(
                    "channels={} switch_cost={} layout=indexed",
                    g.channels, g.switch_cost
                );
                if let Some(placement) = placement {
                    let mut per_channel = vec![0usize; g.channels as usize];
                    for &(ch, _) in placement {
                        per_channel[ch as usize] += 1;
                    }
                    let _ = write!(s, " placement={:?}", &per_channel[1..]);
                }
                (1, s)
            }
        };
        let arrivals = match self.arrivals {
            Arrivals::Within(t) => format!("within {t} ticks"),
            Arrivals::Cycles(c) => format!("over {c} cycles"),
        };
        format!(
            "  # scheme={} records={} requests={} arrivals={arrivals} churn={}% disks={disks}\n  \
             # {loss}\n  # {outages}\n  # {policy}\n  # {group}",
            self.kind.name(),
            self.records,
            self.requests,
            self.churn_pct,
        )
    }

    /// Build the cell and run it through the wall: `Err` names the first
    /// divergence or broken invariant.
    pub fn run(&self) -> Result<CellStats, String> {
        let (ds, pool) = DatasetBuilder::new(self.records, self.seed ^ 0xD5)
            .build_with_absent_pool(8)
            .map_err(|e| e.to_string())?;
        let churn = (self.churn_pct > 0).then(|| UpdateSpec {
            rate: f64::from(self.churn_pct) / 100.0,
            seed: self.seed ^ 0x0DD,
            horizon_cycles: 16,
        });
        let sys = self
            .kind
            .build_on(&ds, &Params::paper(), &self.layout, churn)
            .ok_or("the registry has no construction for this layout")?
            .map_err(|e| e.to_string())?;
        let width = sys.cycle_len();
        let mut rng = SplitMix64(self.seed ^ 0x9E9);
        let keys: Vec<Key> = ds.keys().collect();
        let requests: Vec<(Ticks, Key)> = (0..self.requests)
            .map(|i| {
                let t = match self.arrivals {
                    Arrivals::Within(t) => rng.below(t),
                    Arrivals::Cycles(c) => rng.below(c.saturating_mul(width)),
                };
                let key = if i % 5 == 0 {
                    pool[i % pool.len()]
                } else {
                    keys[rng.below(keys.len() as u64) as usize]
                };
                (t, key)
            })
            .collect();
        let wall = Wall {
            sys: sys.as_ref(),
            requests: &requests,
            channel: self.channel,
            policy: self.policy,
            width,
            windows: WindowSpec::new(width.div_ceil(4).max(1)).with_retain(16),
        };
        let (walker, walker_hub) = wall.walker()?;
        let oracle = run_requests_reference_channel(wall.sys, &requests, self.channel, self.policy);
        wall.same("direct walker", &walker, "reference oracle", &oracle)?;
        let (fast_events, slow_events) = wall.engines(&walker, &walker_hub)?;
        Ok(CellStats {
            fast_events,
            slow_events,
            ..self.outcomes(&ds, &walker)?
        })
    }

    /// The per-query invariants, and what the queries went through.
    fn outcomes(&self, ds: &Dataset, done: &[CompletedRequest]) -> Result<CellStats, String> {
        let mut stats = CellStats::default();
        for (i, r) in done.iter().enumerate() {
            let o = &r.outcome;
            ensure!(!o.aborted, "protocol aborted at request {i}");
            ensure!(!(o.abandoned && o.found), "request {i} abandoned yet found");
            ensure!(
                !o.abandoned || self.policy != RetryPolicy::UNBOUNDED,
                "request {i} abandoned under an unbounded policy"
            );
            ensure!(
                self.churn_pct > 0 || o.abandoned || o.found == ds.contains(r.key),
                "request {i} answered found={} for key {} on a frozen program",
                o.found,
                r.key
            );
            stats.retries += u64::from(o.retries);
            stats.abandoned += u64::from(o.abandoned);
            stats.stale_restarts += u64::from(o.stale_restarts);
            stats.version_skews += u64::from(o.version_skews);
        }
        Ok(stats)
    }

    /// [`Cell::run`], and fail a cell whose agreement is vacuous: lossy air
    /// that corrupted no read, or a churning program that skewed no walk.
    /// (A random soak cell may do either; the soak checks its grid as a
    /// whole.)
    pub fn check(&self) -> Result<CellStats, String> {
        let stats = self.run()?;
        ensure!(
            self.channel.is_lossless() || stats.retries > 0,
            "lossy air corrupted no read"
        );
        ensure!(
            self.churn_pct == 0 || stats.version_skews > 0,
            "a churning program skewed no walk"
        );
        Ok(stats)
    }
}

/// [`Cell::check`] every cell, on one worker per core, and panic naming the
/// first failing cell in order with its decoded configuration. Returns
/// each cell's stats, in order.
pub fn check_all(cells: &[Cell]) -> Vec<CellStats> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(cells.len()));
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(cells.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = panic::catch_unwind(|| cell.check()).unwrap_or_else(|p| {
                    let why = p.downcast_ref::<&str>().map(|s| s.to_string());
                    let why = why.or_else(|| p.downcast_ref::<String>().cloned());
                    Err(format!("a driver panicked: {}", why.unwrap_or_default()))
                });
                results
                    .lock()
                    .expect("workers catch panics")
                    .push((i, result));
            });
        }
    });
    let mut results = results.into_inner().expect("workers catch panics");
    results.sort_by_key(|&(i, _)| i);
    let failed = results.iter().filter(|(_, r)| r.is_err()).count();
    results
        .into_iter()
        .map(|(i, result)| {
            result.unwrap_or_else(|why| {
                panic!(
                    "{failed} of {} cells failed; the first, cell {i}: {why}\n{}",
                    cells.len(),
                    cells[i].describe()
                )
            })
        })
        .collect()
}

/// One cell's built system and request batch, and the air its clients see.
struct Wall<'a> {
    sys: &'a dyn DynSystem,
    requests: &'a [(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    /// Broadcast cycle length: the window width divergence reports use.
    width: Ticks,
    /// The windowed recorder's spec: quarter-cycle windows, retention
    /// tight enough that long batches evict.
    windows: WindowSpec,
}

/// What the wall observes on one engine run.
struct Run {
    done: Vec<CompletedRequest>,
    stats: EngineStats,
    hub: Option<MetricsHub>,
}

/// The recorders every engine runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recorder {
    Noop,
    Spans,
    Windowed,
}

/// Turn `$rec` on in a fresh (slab or sharded) engine.
macro_rules! arm {
    ($engine:expr, $rec:expr, $spec:expr) => {
        match $rec {
            Recorder::Noop => {}
            Recorder::Spans => $engine.enable_metrics(),
            Recorder::Windowed => $engine.enable_metrics_windowed($spec),
        }
    };
}

impl Wall<'_> {
    /// Fail with both drivers' windowed context unless their outcomes
    /// agree request for request.
    fn same(
        &self,
        a_label: &str,
        a: &[CompletedRequest],
        b_label: &str,
        b: &[CompletedRequest],
    ) -> Result<(), String> {
        if a == b {
            return Ok(());
        }
        let first = a.iter().zip(b).position(|(x, y)| x != y);
        Err(format!(
            "{a_label} ≠ {b_label} (first at request {first:?})\n{}",
            divergence_context(a_label, a, b_label, b, self.width)
        ))
    }

    /// The direct walker, its span-recording twin (folded into a hub) and
    /// a fresh stepped slot, which must agree and step forward in
    /// time.
    fn walker(&self) -> Result<(Vec<CompletedRequest>, MetricsHub), String> {
        let (channel, policy) = (self.channel, self.policy);
        let mut hub = MetricsHub::new();
        let mut done = Vec::with_capacity(self.requests.len());
        for (i, &(arrival, key)) in self.requests.iter().enumerate() {
            let outcome = self.sys.probe_with_channel(key, arrival, channel, policy);
            let (recorded, spans) = self
                .sys
                .probe_recorded_channel(key, arrival, channel, policy);
            ensure!(
                recorded == outcome,
                "recorded walker ≠ direct walker at request {i}"
            );
            let mut slot = self.sys.make_slot_channel(channel, policy);
            slot.start(key, arrival);
            let mut last = arrival;
            let stepped = loop {
                match slot.step() {
                    WalkStep::Read { from, until, .. } => {
                        ensure!(
                            from >= last && until > from,
                            "stepped walk read [{from}, {until}) after {last} at request {i}"
                        );
                        last = until;
                    }
                    WalkStep::Doze { until } => {
                        ensure!(
                            until >= last,
                            "stepped walk dozed back to {until} from {last} at request {i}"
                        );
                        last = until;
                    }
                    WalkStep::Done(out) => break out,
                }
            };
            ensure!(
                stepped == outcome,
                "stepped walk ≠ direct walker at request {i}"
            );
            let r = CompletedRequest {
                arrival,
                key,
                outcome,
            };
            hub.complete_at(&completion(&r), Some(&spans));
            done.push(r);
        }
        Ok((done, hub))
    }

    /// One slab-engine run; with `again`, a second batch on the same
    /// engine must repeat the first exactly without growing its arena.
    fn slab(&self, rec: Recorder, fast_forward: bool, again: bool) -> Result<Run, String> {
        let mut e = Engine::with_channel(self.sys, self.channel, self.policy);
        e.set_fast_forward(fast_forward);
        arm!(e, rec, self.windows);
        let done = e.run_batch(self.requests);
        let (stats, arena, hub) = (e.stats(), e.arena_len(), e.take_metrics());
        if again {
            arm!(e, rec, self.windows);
            let second = e.run_batch(self.requests);
            self.same("slab engine", &done, "its second batch", &second)?;
            ensure!(
                e.arena_len() == arena,
                "second batch grew the arena from {arena} to {} slots",
                e.arena_len()
            );
            let mut twice = stats;
            twice.merge(&stats);
            twice.peak_in_flight = stats.peak_in_flight;
            ensure!(
                e.stats() == twice,
                "second batch changed the counters: {stats:?} then {:?}",
                e.stats()
            );
            ensure!(
                e.take_metrics() == hub,
                "second batch recorded a different hub ({rec:?})"
            );
        }
        Ok(Run { done, stats, hub })
    }

    /// One sharded-engine run.
    fn sharded(&self, rec: Recorder, shards: usize) -> Run {
        let mut e = ShardedEngine::with_channel(self.sys, shards, self.channel, self.policy);
        arm!(e, rec, self.windows);
        let done = e.run_batch(self.requests);
        Run {
            done,
            stats: e.stats(),
            hub: e.take_metrics(),
        }
    }

    /// Every engine under every recorder against the direct walker's
    /// outcomes and the hub its recorded spans fold into. Returns the slab
    /// engine's events with fast-forward on and off.
    fn engines(
        &self,
        done: &[CompletedRequest],
        walker_hub: &MetricsHub,
    ) -> Result<(u64, u64), String> {
        let mut runs: Vec<Run> = Vec::with_capacity(3);
        let mut slow_events = 0;
        for rec in [Recorder::Noop, Recorder::Spans, Recorder::Windowed] {
            let fast = self.slab(rec, true, true)?;
            self.same(
                "direct walker",
                done,
                &format!("slab engine ({rec:?})"),
                &fast.done,
            )?;
            let slow = self.slab(rec, false, false)?;
            self.same(
                "fast-forward",
                &fast.done,
                &format!("bucket-by-bucket ({rec:?})"),
                &slow.done,
            )?;
            ensure!(
                slow.stats.events >= fast.stats.events
                    && slow.stats.outcome_counters()[1..] == fast.stats.outcome_counters()[1..],
                "fast-forward changed the counters ({rec:?}): {:?} vs {:?}",
                fast.stats,
                slow.stats
            );
            ensure!(
                view(fast.hub.as_ref()) == view(slow.hub.as_ref()),
                "fast-forward changed the hub ({rec:?})"
            );
            for shards in SHARDS {
                let sharded = self.sharded(rec, shards);
                self.same(
                    "slab engine",
                    &fast.done,
                    &format!("{shards} shards ({rec:?})"),
                    &sharded.done,
                )?;
                ensure!(
                    sharded.stats.outcome_counters() == fast.stats.outcome_counters(),
                    "{shards} shards changed the counters ({rec:?}): {:?} vs {:?}",
                    fast.stats,
                    sharded.stats
                );
                ensure!(
                    view(sharded.hub.as_ref()) == view(fast.hub.as_ref()),
                    "{shards} shards changed the hub ({rec:?})"
                );
            }
            if rec == Recorder::Noop {
                slow_events = slow.stats.events;
            }
            runs.push(fast);
        }
        let [noop, spans, windowed] = &runs[..] else {
            unreachable!("one run per recorder")
        };
        ensure!(
            noop.stats == spans.stats && spans.stats == windowed.stats,
            "recording changed the counters: {:?}, {:?}, {:?}",
            noop.stats,
            spans.stats,
            windowed.stats
        );
        let sum = |f: fn(&AccessOutcome) -> u64| done.iter().map(|r| f(&r.outcome)).sum::<u64>();
        let s = noop.stats;
        ensure!(
            [
                s.completed,
                s.corrupt_reads,
                s.abandoned,
                s.stale_restarts,
                s.version_skews
            ] == [
                done.len() as u64,
                sum(|o| u64::from(o.retries)),
                sum(|o| u64::from(o.abandoned)),
                sum(|o| u64::from(o.stale_restarts)),
                sum(|o| u64::from(o.version_skews)),
            ],
            "engine counters {s:?} do not match the outcomes"
        );
        let hub = spans.hub.as_ref().expect("the span recorder keeps a hub");
        let p = &hub.spans;
        ensure!(
            p.total_access() == sum(|o| o.access) && p.total_tuning() == sum(|o| o.tuning),
            "spans do not add up to access and tuning"
        );
        ensure!(
            p.get(Phase::Retry).count == sum(|o| u64::from(o.retries)),
            "Retry spans ≠ corrupted reads"
        );
        ensure!(
            p.get(Phase::StaleRecovery).count == sum(|o| u64::from(o.version_skews)),
            "StaleRecovery spans ≠ version skews"
        );
        ensure!(p.get(Phase::Doze).tuning == 0, "dozing cost tuning time");
        let initial = p.get(Phase::InitialProbe).count;
        let frozen_lossless = self.channel.is_lossless() && s.version_skews == 0;
        ensure!(
            initial <= done.len() as u64 && (!frozen_lossless || initial == done.len() as u64),
            "{initial} initial probes for {} queries",
            done.len()
        );
        ensure!(
            view(Some(walker_hub)) == view(spans.hub.as_ref()),
            "the walker's recorded spans fold into a different hub"
        );
        let mut refined = windowed
            .hub
            .clone()
            .expect("the windowed recorder keeps a hub");
        let series = refined
            .windows
            .take()
            .expect("the windowed recorder keeps windows");
        ensure!(&refined == hub, "windowing changed an aggregate of the hub");
        window_totals(&series, hub, &windowed.stats, done)?;
        Ok((noop.stats.events, slow_events))
    }
}

/// Window totals against the engine's counters and hub: every completion,
/// corrupted read, skew, wake batch, tick and span lands in exactly one
/// window (or the evicted fold), and busy time covers every walk.
fn window_totals(
    series: &TimeSeries,
    hub: &MetricsHub,
    stats: &EngineStats,
    done: &[CompletedRequest],
) -> Result<(), String> {
    let t = series.totals();
    ensure!(
        [
            t.completions,
            t.found,
            t.abandoned,
            t.corrupt_reads,
            t.stale_restarts,
            t.version_skews,
            t.wake_batches
        ] == [
            stats.completed,
            hub.found,
            stats.abandoned,
            stats.corrupt_reads,
            stats.stale_restarts,
            stats.version_skews,
            stats.wake_batches
        ] && t.in_flight_high as usize <= stats.peak_in_flight,
        "window totals {t:?} do not match the counters {stats:?}"
    );
    ensure!(
        u128::from(t.access_ticks) == hub.access.sum()
            && u128::from(t.tuning_ticks) == hub.tuning.sum()
            && t.spans == hub.spans,
        "window ticks and spans do not add up to the hub's"
    );
    // Abandoned walks charge their final, never-walked read to access, so
    // only the others are sure to be covered by busy time.
    let horizon = done.iter().map(|r| r.arrival + r.outcome.access).max();
    let longest = done
        .iter()
        .filter(|r| !r.outcome.abandoned)
        .map(|r| r.outcome.access)
        .max();
    ensure!(
        t.busy_ticks >= longest.unwrap_or(0) && t.busy_ticks <= horizon.unwrap_or(0),
        "{} busy ticks outside [{longest:?}, {horizon:?}]",
        t.busy_ticks
    );
    ensure!(
        series
            .windows()
            .all(|(_, w)| w.busy_ticks <= series.width()),
        "a window is busier than it is wide"
    );
    Ok(())
}

/// The part of a hub no driver's batching can change: the counters, the
/// three histograms, the span totals and, when windowed, each window's
/// outcome counters, the evicted fold's and the watermark.
type HubView = (
    [u64; 3],
    [Histogram; 3],
    PhaseSpans,
    Option<(Vec<(u64, [u64; 8])>, [u64; 8], u64)>,
);

fn view(hub: Option<&MetricsHub>) -> Option<HubView> {
    hub.map(|h| {
        (
            [h.completed, h.found, h.abandoned],
            [h.access.clone(), h.tuning.clone(), h.retry_depth.clone()],
            h.spans,
            h.windows.as_ref().map(|s| {
                (
                    s.windows()
                        .map(|(id, w)| (id, w.outcome_counters()))
                        .collect(),
                    s.evicted().outcome_counters(),
                    s.watermark(),
                )
            }),
        )
    })
}

/// A completed request as the metrics hub records it.
fn completion(r: &CompletedRequest) -> Completion {
    Completion {
        end_tick: r.arrival + r.outcome.access,
        access: r.outcome.access,
        tuning: r.outcome.tuning,
        retries: r.outcome.retries,
        stale_restarts: r.outcome.stale_restarts,
        version_skews: r.outcome.version_skews,
        found: r.outcome.found,
        abandoned: r.outcome.abandoned,
    }
}

/// Fold one driver's completion list into a windowed [`TimeSeries`] (one
/// window per broadcast cycle), so a divergence can be located in time.
fn completion_series(completed: &[CompletedRequest], width: Ticks) -> TimeSeries {
    let mut hub = MetricsHub::default();
    hub.enable_windows(WindowSpec::new(width));
    for r in completed {
        hub.complete_at(&completion(r), None);
    }
    hub.windows.expect("windows were just enabled")
}

/// Attribute a divergence in time: window both drivers' completions and
/// describe the first broadcast cycle whose outcome counters disagree,
/// with both drivers' counters side by side.
pub fn divergence_context(
    a_label: &str,
    a: &[CompletedRequest],
    b_label: &str,
    b: &[CompletedRequest],
    width: Ticks,
) -> String {
    let (sa, sb) = (completion_series(a, width), completion_series(b, width));
    let ids: BTreeSet<u64> = sa
        .windows()
        .map(|(id, _)| id)
        .chain(sb.windows().map(|(id, _)| id))
        .collect();
    let counters = |s: &TimeSeries, id| {
        s.window(id)
            .map(|w| w.outcome_counters())
            .unwrap_or_default()
    };
    let fmt = |label: &str, c: [u64; 8]| {
        let [completions, found, abandoned, corrupt_reads, stale_restarts, version_skews, access_ticks, tuning_ticks] =
            c;
        format!(
            "  {label:<22} completions={completions} found={found} abandoned={abandoned} \
             corrupt_reads={corrupt_reads} stale_restarts={stale_restarts} \
             version_skews={version_skews} access={access_ticks} tuning={tuning_ticks}"
        )
    };
    for id in ids {
        let (wa, wb) = (counters(&sa, id), counters(&sb, id));
        if wa != wb {
            return format!(
                "first divergent window {id} [ticks {}..{}):\n{}\n{}",
                id * width,
                (id + 1) * width,
                fmt(a_label, wa),
                fmt(b_label, wb),
            );
        }
    }
    // Outcomes differed but every windowed counter agrees: the
    // disagreement is in a field the counters do not project (e.g. probes
    // or false drops).
    "no window's outcome counters differ (divergence is outside the counter projection)".into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: Ticks, access: Ticks, found: bool) -> CompletedRequest {
        CompletedRequest {
            arrival,
            key: Key(1),
            outcome: AccessOutcome {
                found,
                access,
                tuning: access / 2,
                probes: 1,
                false_drops: 0,
                retries: 0,
                abandoned: !found,
                aborted: false,
                stale_restarts: 0,
                version_skews: 0,
            },
        }
    }

    #[test]
    fn divergence_context_names_the_first_differing_window() {
        // Window width 100. Both drivers agree in window 1; driver B
        // flips a request's outcome in window 3 (end_tick 350).
        let a = vec![req(100, 50, true), req(300, 50, true)];
        let b = vec![req(100, 50, true), req(300, 50, false)];
        let ctx = divergence_context("driver A", &a, "driver B", &b, 100);
        assert!(
            ctx.contains("first divergent window 3 [ticks 300..400)"),
            "{ctx}"
        );
        assert!(ctx.contains("driver A"), "{ctx}");
        assert!(ctx.contains("driver B"), "{ctx}");
        assert!(ctx.contains("found=1"), "{ctx}");
        assert!(ctx.contains("found=0"), "{ctx}");
        // Identical streams produce no locatable window.
        let same = divergence_context("driver A", &a, "driver B", &a.clone(), 100);
        assert!(same.contains("no window"), "{same}");
    }
}
