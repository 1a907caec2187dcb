//! Profile-guided dynamic page tiering: close the loop from SPE address
//! samples to page placement.
//!
//! PR 3's tiered topology *reports* where data lives and what each tier
//! costs; this module *acts* on it. A [`HotPageTracker`] aggregates SPE
//! samples into per-page access counts and tier-resolved latency (decayed
//! at every window close, so heat tracks the current phase rather than the
//! whole run; windows no batch named are never closed, so heat does not
//! decay across them), a pluggable [`TieringPolicy`] turns the per-page
//! view into [`MigrationDecision`]s at every window close, and the
//! decisions are
//! applied mid-run through [`arch_sim::Machine::migrate_page`] — the
//! simulated analogue of a tiered-memory daemon moving hot pages from a
//! CXL expander back into socket DDR with `move_pages(2)`.
//!
//! One path actuates: drive the workload in chunks and call
//! [`crate::session::ActiveSession::tiering_step`] between them. Each step
//! is the session's own delivery step, with the tracker fed the same
//! batches and window closes as the registered sinks — so drains, closes,
//! and migrations happen at fixed points of the *simulated* timeline, and
//! two identically configured runs reproduce the same decisions bit for
//! bit (see `tests/tiering.rs`). A window closes once every profiled core
//! has delivered a sample past it, so on several cores the slowest core
//! sets the pace.
//!
//! A tracker registered as a sink
//! ([`crate::session::ProfileSessionBuilder::sink`]) never actuates: on a
//! streaming session, a thread-less one and a trace replay alike it tracks
//! the stream, asks its policy at every close, and reports — what-if
//! decisions over an unchanged placement.
//!
//! The [`TieringReport`] records the applied migration log plus the
//! before/after per-tier latency distributions — the "remote p99 drops
//! toward local after promotion" figure of `examples/hot_page_migration.rs`.

use std::collections::BTreeMap;

use arch_sim::{Machine, MachineConfig, NodeId};

use crate::latency::LatencyProfile;
use crate::runtime::{AddressSample, Profile};
use crate::sink::{
    own_state, AnalysisReport, AnalysisSink, ShardState, ShardableSink, SinkShard, StreamContext,
};
use crate::stream::{BatchPayload, SampleBatch, Window};
use crate::NmoError;

/// One policy decision: move the page at `page_addr` to `dst_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Base virtual address of the page to move.
    pub page_addr: u64,
    /// The memory node to move it to (0 = local DDR).
    pub dst_node: NodeId,
}

/// One migration that was actually applied to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedMigration {
    /// Index of the closed window whose statistics triggered the decision.
    pub window: u64,
    /// Simulated time the migration was applied at, nanoseconds.
    pub time_ns: u64,
    /// Base virtual address of the moved page.
    pub page_addr: u64,
    /// Node the page lived on before.
    pub from: NodeId,
    /// Node the page lives on now.
    pub to: NodeId,
    /// Page size in bytes.
    pub bytes: u64,
    /// Whether the source node was on the remote tier.
    pub from_remote: bool,
    /// Whether the destination node is on the remote tier.
    pub to_remote: bool,
}

impl AppliedMigration {
    /// Remote → local move.
    pub fn is_promotion(&self) -> bool {
        self.from_remote && !self.to_remote
    }

    /// Local → remote move.
    pub fn is_demotion(&self) -> bool {
        !self.from_remote && self.to_remote
    }
}

/// Decayed per-page statistics, as exposed to policies via [`TieringView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageStats {
    /// Base virtual address of the page.
    pub page_addr: u64,
    /// Decayed count of *all* sampled accesses to the page (cache hits
    /// included — overall hotness).
    pub heat: f64,
    /// Decayed count of DRAM-class sampled accesses (the traffic a
    /// migration would actually move between nodes).
    pub dram_heat: f64,
    /// The node that served the page's most recent DRAM-class sample.
    pub node: NodeId,
    /// Whether that node is on the remote tier.
    pub remote: bool,
    /// Decayed mean latency of the page's DRAM-class samples, cycles.
    pub mean_dram_latency: f64,
    /// Total (undecayed) samples observed for the page over the run.
    pub samples: u64,
}

/// One page's record: the tracker's live (decaying) state, and one shard's
/// contribution to it from its slice of one window — the unit of the
/// tracker's deterministic window-close merge.
#[derive(Debug, Clone, Copy, Default)]
struct PageState {
    heat: f64,
    dram_heat: f64,
    /// Node/tier of the *last* DRAM-class sample seen for the page (only
    /// meaningful when `saw_dram`).
    node: NodeId,
    remote: bool,
    saw_dram: bool,
    lat_sum: f64,
    lat_count: f64,
    samples: u64,
}

/// Fold per-page contributions into `pages` (ascending by address): counts
/// add, and a contribution that saw a DRAM-class sample sets the page's
/// node/tier. Returns how many pages were new to `pages`.
fn merge_pages(pages: &mut BTreeMap<u64, PageState>, deltas: BTreeMap<u64, PageState>) -> u64 {
    let mut added = 0;
    for (page_addr, delta) in deltas {
        let entry = pages.entry(page_addr).or_insert_with(|| {
            added += 1;
            PageState::default()
        });
        entry.heat += delta.heat;
        entry.dram_heat += delta.dram_heat;
        entry.samples += delta.samples;
        entry.lat_sum += delta.lat_sum;
        entry.lat_count += delta.lat_count;
        if delta.saw_dram {
            (entry.node, entry.remote) = (delta.node, delta.remote);
            entry.saw_dram = true;
        }
    }
    added
}

impl PageState {
    /// Fold one sample in. A DRAM-class sample sets the page's node/tier.
    fn add(&mut self, s: &AddressSample) {
        self.heat += 1.0;
        self.samples += 1;
        if s.source.is_dram_class() {
            self.dram_heat += 1.0;
            (self.node, self.remote) = (s.source.node().unwrap_or(0), s.source.is_remote());
            self.saw_dram = true;
            self.lat_sum += s.latency as f64;
            self.lat_count += 1.0;
        }
    }

    fn stats(&self, page_addr: u64) -> PageStats {
        PageStats {
            page_addr,
            heat: self.heat,
            dram_heat: self.dram_heat,
            node: self.node,
            remote: self.remote,
            mean_dram_latency: if self.lat_count > 0.0 {
                self.lat_sum / self.lat_count
            } else {
                0.0
            },
            samples: self.samples,
        }
    }
}

/// The point-in-window view a [`TieringPolicy`] decides over.
#[derive(Debug)]
pub struct TieringView<'a> {
    pages: &'a BTreeMap<u64, PageState>,
}

impl TieringView<'_> {
    /// Number of pages currently tracked.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Every tracked page, ascending by address.
    pub fn pages(&self) -> impl Iterator<Item = PageStats> + '_ {
        self.pages.iter().map(|(addr, st)| st.stats(*addr))
    }

    /// The `k` hottest remote-tier pages by DRAM heat (ties broken by
    /// ascending address, so decisions are deterministic).
    pub fn hottest_remote(&self, k: usize) -> Vec<PageStats> {
        let mut remote: Vec<PageStats> = self.pages().filter(|p| p.remote).collect();
        remote.sort_by(|a, b| {
            b.dram_heat
                .partial_cmp(&a.dram_heat)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.page_addr.cmp(&b.page_addr))
        });
        remote.truncate(k);
        remote
    }
}

/// A pluggable hot-page tiering policy: turn the tracker's per-page view
/// into migration decisions at each window close.
///
/// # Worked example
///
/// A custom policy promoting every remote page whose decayed DRAM heat
/// crosses a fixed cutoff:
///
/// ```
/// use nmo::tiering::{MigrationDecision, TieringPolicy, TieringView};
///
/// struct HotterThan {
///     cutoff: f64,
/// }
///
/// impl TieringPolicy for HotterThan {
///     fn name(&self) -> &'static str {
///         "hotter-than"
///     }
///
///     fn decide(&mut self, _window: u64, view: &TieringView<'_>) -> Vec<MigrationDecision> {
///         view.hottest_remote(usize::MAX)
///             .into_iter()
///             .filter(|page| page.dram_heat > self.cutoff)
///             .map(|page| MigrationDecision { page_addr: page.page_addr, dst_node: 0 })
///             .collect()
///     }
/// }
///
/// // Plug it into a tracker exactly like the shipped policies:
/// let tracker = nmo::tiering::HotPageTracker::new(HotterThan { cutoff: 8.0 });
/// assert_eq!(tracker.policy_name(), "hotter-than");
/// ```
pub trait TieringPolicy: Send {
    /// Stable policy name (recorded in the [`TieringReport`]).
    fn name(&self) -> &'static str;

    /// Decide which pages to move after window `window_index` closed. The
    /// tracker applies the decisions (pages that are no-ops — already home,
    /// not resident — are skipped by the machine) and updates its own view.
    fn decide(&mut self, window_index: u64, view: &TieringView<'_>) -> Vec<MigrationDecision>;

    /// Feedback after the tracker applied this window's decisions: only the
    /// migrations the machine actually performed (no-ops are filtered out).
    /// Budgeted policies charge their budget here rather than in
    /// [`TieringPolicy::decide`], so skipped decisions cost nothing.
    fn on_applied(&mut self, _applied: &[AppliedMigration]) {}
}

impl TieringPolicy for Box<dyn TieringPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&mut self, window_index: u64, view: &TieringView<'_>) -> Vec<MigrationDecision> {
        (**self).decide(window_index, view)
    }

    fn on_applied(&mut self, applied: &[AppliedMigration]) {
        (**self).on_applied(applied)
    }
}

/// The null policy: track, report, never migrate (the control arm of the
/// example's comparison).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMigration;

impl TieringPolicy for NoMigration {
    fn name(&self) -> &'static str {
        "no-migration"
    }

    fn decide(&mut self, _window: u64, _view: &TieringView<'_>) -> Vec<MigrationDecision> {
        Vec::new()
    }
}

/// Every `interval` closed windows, promote the `k` hottest remote pages
/// (by decayed DRAM heat) to the local node.
#[derive(Debug, Clone, Copy)]
pub struct TopKHot {
    /// How many pages to promote per decision point.
    pub k: usize,
    /// Decide every this many closed windows (1 = every window).
    pub interval: u64,
    /// Ignore pages whose decayed DRAM heat is below this floor (avoids
    /// paying migration cost for pages that merely appeared once).
    pub min_dram_heat: f64,
    /// Total promotion budget in pages (`None` = unlimited) — the bounded
    /// migration bandwidth a real tiering daemon works under. Once spent,
    /// the policy stops deciding.
    pub budget: Option<u64>,
    /// Promotions actually applied so far (charged against `budget` via
    /// [`TieringPolicy::on_applied`], so no-op decisions cost nothing).
    spent: u64,
}

impl TopKHot {
    /// Promote the `k` hottest remote pages every `interval` windows, with
    /// the default heat floor of 1.0 and no promotion budget.
    pub fn new(k: usize, interval: u64) -> Self {
        TopKHot { k, interval, min_dram_heat: 1.0, budget: None, spent: 0 }
    }

    /// Cap the total number of pages this policy will ever promote.
    pub fn with_budget(mut self, pages: u64) -> Self {
        self.budget = Some(pages);
        self
    }
}

impl TieringPolicy for TopKHot {
    fn name(&self) -> &'static str {
        "top-k-hot"
    }

    fn decide(&mut self, window_index: u64, view: &TieringView<'_>) -> Vec<MigrationDecision> {
        let interval = self.interval.max(1);
        if !(window_index + 1).is_multiple_of(interval) {
            return Vec::new();
        }
        let take = match self.budget {
            Some(budget) => (budget.saturating_sub(self.spent) as usize).min(self.k),
            None => self.k,
        };
        if take == 0 {
            return Vec::new();
        }
        view.hottest_remote(take)
            .into_iter()
            .filter(|p| p.dram_heat >= self.min_dram_heat)
            .map(|p| MigrationDecision { page_addr: p.page_addr, dst_node: 0 })
            .collect()
    }

    fn on_applied(&mut self, applied: &[AppliedMigration]) {
        self.spent += applied.len() as u64;
    }
}

/// The output of a tiering run: what moved, and what it did to the per-tier
/// latency distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct TieringReport {
    /// Name of the policy that decided.
    pub policy: String,
    /// Distinct pages ever tracked over the run.
    pub pages_tracked: u64,
    /// Windows the tracker saw close.
    pub windows_closed: u64,
    /// The applied migration log, in application order.
    pub applied: Vec<AppliedMigration>,
    /// Latency distributions of samples observed *before* the first applied
    /// migration (the whole run when nothing migrated).
    pub before: LatencyProfile,
    /// Latency distributions of samples observed *after* the first applied
    /// migration (empty when nothing migrated). Includes the transition
    /// period while migrations were still being applied; use
    /// [`TieringReport::settled`] for the steady state.
    pub after: LatencyProfile,
    /// Latency distributions of samples observed after the *last* applied
    /// migration — the settled steady state the policy converged to (empty
    /// when nothing migrated).
    pub settled: LatencyProfile,
}

impl TieringReport {
    /// Whether the report carries any data at all.
    pub fn is_empty(&self) -> bool {
        self.applied.is_empty() && self.before.is_empty() && self.after.is_empty()
    }

    /// Applied migrations.
    pub fn migrations(&self) -> u64 {
        self.applied.len() as u64
    }

    /// Bytes moved remote → local.
    pub fn promoted_bytes(&self) -> u64 {
        self.applied.iter().filter(|m| m.is_promotion()).map(|m| m.bytes).sum()
    }

    /// Bytes moved local → remote.
    pub fn demoted_bytes(&self) -> u64 {
        self.applied.iter().filter(|m| m.is_demotion()).map(|m| m.bytes).sum()
    }
}

/// Heat below which a decayed page is dropped from the tracker (bounds the
/// tracked set to pages warm in the recent windows).
const EVICT_HEAT: f64 = 1.0 / 64.0;

/// Multiplier applied to every page's heat at each window close (a
/// one-window half-life).
const DECAY: f64 = 0.5;

/// The hot-page aggregator and actuator (see the module docs).
///
/// It folds `SpeSamples` batches into per-page counters, decays them at
/// every window close and asks its [`TieringPolicy`] for decisions there.
/// [`crate::session::ActiveSession::tiering_step`] drives it through
/// [`HotPageTracker::ingest`] and [`HotPageTracker::close_window`] and
/// applies the decisions via [`Machine::migrate_page`]; that is the one
/// path that migrates. Registered as an [`AnalysisSink`] it tracks and
/// reports only.
pub struct HotPageTracker {
    policy: Box<dyn TieringPolicy>,
    page_bytes: u64,
    pages: BTreeMap<u64, PageState>,
    pages_tracked: u64,
    windows_closed: u64,
    /// Latency profiles segmented by migration activity: a new segment
    /// opens whenever a window close applies at least one migration, so
    /// segment 0 is "before any migration" and the last segment is the
    /// settled state after the final one. Bounded by the number of
    /// migration-applying closes, not by run length.
    segments: Vec<LatencyProfile>,
    applied: Vec<AppliedMigration>,
    last_seen_ns: u64,
}

impl std::fmt::Debug for HotPageTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotPageTracker")
            .field("policy", &self.policy.name())
            .field("pages", &self.pages.len())
            .field("applied", &self.applied.len())
            .finish()
    }
}

impl HotPageTracker {
    /// A tracker deciding with `policy`, with a 64 KiB page size until
    /// configured from a machine (`tiering_step` and a stream's start
    /// configure it automatically).
    pub fn new(policy: impl TieringPolicy + 'static) -> Self {
        HotPageTracker {
            policy: Box::new(policy),
            page_bytes: 64 * 1024,
            pages: BTreeMap::new(),
            pages_tracked: 0,
            windows_closed: 0,
            segments: vec![LatencyProfile::new()],
            applied: Vec::new(),
            last_seen_ns: 0,
        }
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Migrations applied so far, in order.
    pub fn applied(&self) -> &[AppliedMigration] {
        &self.applied
    }

    /// Latch the page geometry from a machine configuration (the
    /// `tiering_step` path; a stream latches it at `on_stream_start`).
    pub(crate) fn configure(&mut self, cfg: &MachineConfig) {
        self.page_bytes = cfg.page_bytes;
    }

    /// Fold one decoded sample into the per-page state.
    pub fn observe(&mut self, s: &AddressSample) {
        let page_addr = s.vaddr & !(self.page_bytes - 1);
        let entry = self.pages.entry(page_addr).or_insert_with(|| {
            self.pages_tracked += 1;
            PageState::default()
        });
        entry.add(s);
        #[allow(clippy::expect_used, reason = "`segments` starts with one profile and only grows")]
        self.segments.last_mut().expect("segments never empty").record(s.source, s.latency);
        self.last_seen_ns = self.last_seen_ns.max(s.time_ns);
    }

    /// Fold every SPE sample of a batch into the tracker.
    pub fn ingest(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            for s in samples {
                self.observe(s);
            }
        }
    }

    /// Close one window: decide on the pre-decay heat, apply the decisions
    /// to `machine` (when present), then decay every page and evict the
    /// cold ones. Returns the migrations applied for this window.
    pub fn close_window(
        &mut self,
        window: Window,
        machine: Option<&Machine>,
    ) -> Vec<AppliedMigration> {
        self.windows_closed += 1;
        let decisions = {
            let view = TieringView { pages: &self.pages };
            self.policy.decide(window.index, &view)
        };
        let mut applied = Vec::new();
        if let Some(machine) = machine {
            // Timestamp migrations at the close watermark: never before the
            // newest sample that informed the decision.
            let now_ns = window.end_ns.max(self.last_seen_ns);
            let now_cycles = machine.config().ns_to_cycles(now_ns);
            for decision in decisions {
                // An Err means an unknown node — a policy bug, not a data
                // race — so treat it like the not-migratable no-op.
                let outcome = machine
                    .migrate_page(decision.page_addr, decision.dst_node, now_cycles)
                    .unwrap_or_default();
                let Some(migration) = outcome else { continue };
                let nodes = &machine.config().mem.nodes;
                let done = AppliedMigration {
                    window: window.index,
                    time_ns: now_ns,
                    page_addr: migration.page_addr,
                    from: migration.from,
                    to: migration.to,
                    bytes: migration.bytes,
                    from_remote: nodes[migration.from as usize].remote,
                    to_remote: nodes[migration.to as usize].remote,
                };
                if let Some(state) = self.pages.get_mut(&migration.page_addr) {
                    state.node = migration.to;
                    state.remote = done.to_remote;
                }
                applied.push(done);
            }
        }
        if !applied.is_empty() {
            self.policy.on_applied(&applied);
            // Open a new latency segment: samples from here on ran against
            // the updated placement.
            self.segments.push(LatencyProfile::new());
        }
        self.applied.extend_from_slice(&applied);
        // Decay after deciding: decisions see the freshest heat.
        self.pages.retain(|_, st| {
            st.heat *= DECAY;
            st.dram_heat *= DECAY;
            st.lat_sum *= DECAY;
            st.lat_count *= DECAY;
            st.heat >= EVICT_HEAT
        });
        applied
    }

    /// The report assembled from everything observed so far.
    pub fn report(&self) -> TieringReport {
        let before = self.segments[0].clone();
        let mut after = LatencyProfile::new();
        for segment in &self.segments[1..] {
            after.merge(segment);
        }
        let settled = match &self.segments[1..] {
            [.., last] => last.clone(),
            [] => LatencyProfile::new(),
        };
        TieringReport {
            policy: self.policy.name().to_string(),
            pages_tracked: self.pages_tracked,
            windows_closed: self.windows_closed,
            applied: self.applied.clone(),
            before,
            after,
            settled,
        }
    }
}

/// One shard's per-window digest of the sample stream: per-page deltas plus
/// the latency contributions the tracker folds into its segments at merge
/// time.
#[derive(Debug, Default)]
struct TrackerDigest {
    pages: BTreeMap<u64, PageState>,
    latency: LatencyProfile,
    last_seen_ns: u64,
}

impl TrackerDigest {
    fn observe(&mut self, s: &AddressSample, page_bytes: u64) {
        let page_addr = s.vaddr & !(page_bytes - 1);
        self.pages.entry(page_addr).or_default().add(s);
        self.latency.record(s.source, s.latency);
        self.last_seen_ns = self.last_seen_ns.max(s.time_ns);
    }

    /// Fold `other` into this digest (used for the shard's leftover windows
    /// at finish; ascending window order keeps it deterministic).
    fn absorb(&mut self, other: TrackerDigest) {
        merge_pages(&mut self.pages, other.pages);
        self.latency.merge(&other.latency);
        self.last_seen_ns = self.last_seen_ns.max(other.last_seen_ns);
    }
}

/// One shard's worker for a sharded [`HotPageTracker`]: it digests its
/// lane's samples *per window* and hands each window's digest back at the
/// window close, so the parent tracker merges the shards in ascending shard
/// index and decides over the globally merged heat — sharded decisions are
/// therefore a deterministic function of the per-window sample sets, not of
/// cross-lane arrival timing.
struct TrackerShard {
    page_bytes: u64,
    pending: BTreeMap<u64, TrackerDigest>,
}

impl SinkShard for TrackerShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            let digest = self.pending.entry(batch.window.index).or_default();
            for s in samples {
                digest.observe(s, self.page_bytes);
            }
        }
    }

    fn on_window_close(&mut self, window: Window) -> Option<ShardState> {
        Some(Box::new(self.pending.remove(&window.index).unwrap_or_default()))
    }

    fn finish(self: Box<Self>) -> ShardState {
        // Late windows that never saw a close: fold them into one leftover
        // digest, ascending by window index.
        let mut leftover = TrackerDigest::default();
        for (_, digest) in self.pending {
            leftover.absorb(digest);
        }
        Box::new(leftover)
    }
}

impl HotPageTracker {
    /// Merge one digest into the tracker's live per-page state.
    fn absorb_digest(&mut self, digest: TrackerDigest) {
        self.pages_tracked += merge_pages(&mut self.pages, digest.pages);
        #[allow(clippy::expect_used, reason = "`segments` starts with one profile and only grows")]
        self.segments.last_mut().expect("segments never empty").merge(&digest.latency);
        self.last_seen_ns = self.last_seen_ns.max(digest.last_seen_ns);
    }
}

impl ShardableSink for HotPageTracker {
    fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(TrackerShard { page_bytes: self.page_bytes, pending: BTreeMap::new() })
    }

    fn merge_window(&mut self, window: Window, states: Vec<ShardState>) {
        // The shards' digests in, then the window closes: a sink decides
        // but never actuates.
        self.merge_final(states);
        self.close_window(window, None);
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        for state in states {
            self.absorb_digest(own_state::<TrackerDigest>(state));
        }
    }
}

impl AnalysisSink for HotPageTracker {
    fn name(&self) -> &'static str {
        "tiering"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        _profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Tiering(self.report()))
    }

    fn on_stream_start(&mut self, ctx: &StreamContext) {
        // The stream geometry's page size is the machine's on a live run and
        // the recorded one on a replay, so page aggregation is the same.
        self.page_bytes = ctx.page_bytes;
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WindowClock;
    use arch_sim::{DataSource, MachineConfig, PlacementPolicy};

    fn sample(vaddr: u64, source: DataSource, latency: u16, time_ns: u64) -> AddressSample {
        AddressSample { time_ns, vaddr, core: 0, is_store: false, latency, source }
    }

    fn fill_tracker(tracker: &mut HotPageTracker) {
        // Page 0x10000: very hot, remote, slow. Page 0x20000: lukewarm,
        // remote. Page 0x30000: hot but local. Page 0x40000: cache-served.
        for i in 0..32u64 {
            tracker.observe(&sample(0x10000 + i * 8, DataSource::RemoteDram(1), 900, i));
        }
        for i in 0..4u64 {
            tracker.observe(&sample(0x20000 + i * 8, DataSource::RemoteDram(1), 880, 100 + i));
        }
        for i in 0..16u64 {
            tracker.observe(&sample(0x30000 + i * 8, DataSource::Dram(0), 120, 200 + i));
        }
        for i in 0..8u64 {
            tracker.observe(&sample(0x40000 + i * 8, DataSource::L1, 4, 300 + i));
        }
    }

    #[test]
    fn tracker_aggregates_per_page_heat_and_latency() {
        let mut tracker = HotPageTracker::new(NoMigration);
        fill_tracker(&mut tracker);
        let view = TieringView { pages: &tracker.pages };
        assert_eq!(view.len(), 4);
        let pages: Vec<PageStats> = view.pages().collect();
        assert_eq!(pages[0].page_addr, 0x10000);
        assert_eq!(pages[0].heat, 32.0);
        assert_eq!(pages[0].dram_heat, 32.0);
        assert!(pages[0].remote);
        assert!((pages[0].mean_dram_latency - 900.0).abs() < 1e-9);
        assert!(!pages[2].remote);
        assert_eq!(pages[3].dram_heat, 0.0, "cache hits carry no DRAM heat");
        let hottest = view.hottest_remote(1);
        assert_eq!(hottest.len(), 1);
        assert_eq!(hottest[0].page_addr, 0x10000);
    }

    #[test]
    fn decay_cools_and_evicts_pages() {
        let mut tracker = HotPageTracker::new(NoMigration);
        fill_tracker(&mut tracker);
        let clock = WindowClock::new(1000);
        tracker.close_window(clock.window(0), None);
        assert!((tracker.pages[&0x10000].heat - 16.0).abs() < 1e-9);
        // Ten more closes decay the lukewarm page below the eviction floor.
        for w in 1..12 {
            tracker.close_window(clock.window(w), None);
        }
        assert!(!tracker.pages.contains_key(&0x20000), "cold page evicted");
        assert_eq!(tracker.report().pages_tracked, 4, "tracked count is historical");
        assert_eq!(tracker.report().windows_closed, 12);
    }

    #[test]
    fn top_k_hot_promotes_hottest_remote_pages_on_its_interval() {
        let mut policy = TopKHot::new(1, 2);
        let mut tracker = HotPageTracker::new(NoMigration);
        fill_tracker(&mut tracker);
        let view = TieringView { pages: &tracker.pages };
        assert!(policy.decide(0, &view).is_empty(), "window 0 is off-interval");
        let decisions = policy.decide(1, &view);
        assert_eq!(decisions, vec![MigrationDecision { page_addr: 0x10000, dst_node: 0 }]);
        // The heat floor suppresses barely-seen pages.
        let mut strict = TopKHot { min_dram_heat: 16.0, ..TopKHot::new(8, 1) };
        let decisions = strict.decide(0, &view);
        assert_eq!(decisions.len(), 1, "only the hot page clears the floor");
        // A budget caps the total promotions ever *applied*; decisions the
        // machine no-ops cost nothing.
        let mut frugal = TopKHot::new(8, 1).with_budget(1);
        assert_eq!(frugal.decide(0, &view).len(), 1, "budget caps how many are proposed");
        assert_eq!(frugal.decide(1, &view).len(), 1, "un-applied decisions are free");
        frugal.on_applied(&[AppliedMigration {
            window: 1,
            time_ns: 0,
            page_addr: 0x10000,
            from: 1,
            to: 0,
            bytes: 4096,
            from_remote: true,
            to_remote: false,
        }]);
        assert!(frugal.decide(2, &view).is_empty(), "budget spent once applied");
    }

    #[test]
    fn close_window_applies_decisions_to_the_machine() {
        let machine = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.0,
        }));
        let page = machine.config().page_bytes;
        let region = machine.alloc("data", 4 * page).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for p in 0..4u64 {
                e.store(region.start + p * page, 8);
            }
        }
        let mut tracker = HotPageTracker::new(TopKHot::new(2, 1));
        tracker.configure(machine.config());
        for i in 0..16u64 {
            tracker.observe(&sample(region.start + i % 8, DataSource::RemoteDram(1), 700, i));
            tracker.observe(&sample(
                region.start + page + (i % 8),
                DataSource::RemoteDram(1),
                700,
                i,
            ));
        }
        let clock = WindowClock::new(1000);
        let applied = tracker.close_window(clock.window(0), Some(&machine));
        assert_eq!(applied.len(), 2);
        assert!(applied.iter().all(|m| m.is_promotion() && !m.is_demotion()));
        assert_eq!(machine.migration_stats().promoted_pages, 2);
        assert_eq!(machine.node_of(region.start), Some(0));
        assert_eq!(machine.node_of(region.start + page), Some(0));
        // The tracker's own view follows the move: nothing remote remains
        // above the floor, so the next close applies nothing.
        let applied = tracker.close_window(clock.window(1), Some(&machine));
        assert!(applied.is_empty());
        // Samples after the first migration land in the `after` profile.
        tracker.observe(&sample(region.start, DataSource::Dram(0), 120, 5000));
        let report = tracker.report();
        assert_eq!(report.migrations(), 2);
        assert_eq!(report.promoted_bytes(), 2 * page);
        assert_eq!(report.demoted_bytes(), 0);
        assert_eq!(report.after.total_count(), 1);
        assert_eq!(report.settled, report.after, "one migration epoch: settled == after");
        assert!(report.before.total_count() > 0);
        assert!(!report.is_empty());
    }

    /// The sharded tracker contract: partitioning a per-window sample
    /// stream over N shards and merging digests in shard order at each
    /// window close must reproduce the serial tracker's state — the same
    /// per-page view after every close (decay and eviction included), and
    /// the same latency segments.
    #[test]
    fn sharded_tracker_merge_matches_serial_ingestion() {
        use crate::stream::SampleBatch;

        let page = MachineConfig::small_test_tiered(PlacementPolicy::Interleave).page_bytes;
        let base = 16 * page;
        let clock = WindowClock::new(1000);
        let shards = 4usize;

        // A deterministic windowed stream over 8 cores and 6 pages, each
        // page with its own latency.
        let mut batches = Vec::new();
        for window in 0..4u64 {
            for core in 0..8usize {
                let samples: Vec<AddressSample> = (0..12u64)
                    .map(|i| {
                        let p = (i + core as u64) % 6;
                        let s = sample(
                            base + p * page + (i % 8) * 64,
                            DataSource::RemoteDram(1),
                            700 + (p * 10) as u16,
                            window * 1000 + i * 80,
                        );
                        AddressSample { core, ..s }
                    })
                    .collect();
                batches.push(SampleBatch::new(
                    "spe",
                    Some(core),
                    clock.window(window),
                    BatchPayload::SpeSamples { samples, loss: Default::default() },
                ));
            }
        }
        let view = |t: &HotPageTracker| TieringView { pages: &t.pages }.pages().collect::<Vec<_>>();

        // Serial reference: ingest in stream order, close each window.
        let mut serial = HotPageTracker::new(TopKHot::new(2, 1));
        serial.page_bytes = page;
        let mut serial_views = Vec::new();
        for window in 0..4u64 {
            for b in batches.iter().filter(|b| b.window.index == window) {
                serial.ingest(b);
            }
            assert!(serial.close_window(clock.window(window), None).is_empty());
            serial_views.push(view(&serial));
        }

        // Sharded: per-core lanes, window digests merged in shard order.
        let mut sharded = HotPageTracker::new(TopKHot::new(2, 1));
        let ctx = StreamContext::for_replay(1 << 30, 1000, 2, page);
        sharded.on_stream_start(&ctx);
        let mut workers: Vec<Box<dyn SinkShard>> =
            (0..shards).map(|s| ShardableSink::make_shard(&mut sharded, s, &ctx)).collect();
        for b in &batches {
            workers[b.core.unwrap() % shards].on_batch(b);
        }
        let mut sharded_views = Vec::new();
        for window in 0..4u64 {
            let states: Vec<ShardState> = workers
                .iter_mut()
                .map(|w| w.on_window_close(clock.window(window)).expect("tracker digests"))
                .collect();
            sharded.merge_window(clock.window(window), states);
            sharded_views.push(view(&sharded));
        }

        assert_eq!(serial_views[0].len(), 6, "every page is tracked");
        assert_eq!(sharded_views, serial_views, "identical per-page views at every close");
        assert!(sharded.applied().is_empty(), "a sink never actuates");
        let (s, m) = (serial.report(), sharded.report());
        assert_eq!(s.before, m.before);
        assert_eq!(s.after, m.after);
        assert_eq!(s.settled, m.settled);
        assert_eq!(s.pages_tracked, m.pages_tracked);
        assert_eq!(s.windows_closed, m.windows_closed);
    }

    #[test]
    fn no_migration_policy_never_decides() {
        let mut tracker = HotPageTracker::new(NoMigration);
        fill_tracker(&mut tracker);
        let machine = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::Interleave));
        let applied = tracker.close_window(WindowClock::new(1000).window(0), Some(&machine));
        assert!(applied.is_empty());
        assert_eq!(machine.migration_stats().migrations, 0);
        assert_eq!(tracker.report().policy, "no-migration");
    }
}
