//! Structured event tracing: compact per-core ring buffers, a periodic
//! stat-sampling time-series, and Chrome trace-event / Perfetto JSON export.
//!
//! Every claim the simulator makes from end-of-run counters (filterDir
//! contention, engine scheduling overhead, home-node queueing) aggregates
//! away *when and where* the pressure built up.  This module is the
//! first-class observability layer that keeps the timeline: hardware models
//! record [`TraceEvent`]s into fixed-capacity per-core [`EventRing`]s
//! (overflow drops the oldest events, never the run), a sampling hook
//! snapshots counter deltas into a [`StatTimeSeries`], and [`ChromeTrace`]
//! renders both — plus any caller-supplied duration spans — as a Chrome
//! trace-event JSON document via [`crate::json`], openable directly in
//! Perfetto or `chrome://tracing`.
//!
//! The tracer is strictly an observer: recording never touches simulated
//! time or any statistic, and a disabled tracer costs the hot loop exactly
//! one `Option` discriminant check (the same contract value tracking has).
//!
//! # Example
//!
//! ```
//! use simkernel::trace::{CategoryMask, TraceCategory, TraceKind, Tracer, TraceSettings};
//!
//! let mut settings = TraceSettings::enabled();
//! settings.ring_capacity = 4;
//! let mut tracer = Tracer::new(2, &settings);
//! tracer.record(0, 100, TraceKind::DmaGet, [140, 8]);
//! tracer.record(1, 120, TraceKind::Park, [300, 0]);
//! assert_eq!(tracer.ring(0).len(), 1);
//! assert!(tracer.wants(TraceCategory::Dma));
//! ```

use crate::json::Json;

/// The coarse subsystems a trace event can belong to; each is one bit of a
/// [`CategoryMask`] so `--trace-categories` can select any subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Engine scheduling: kernel segments, parks/resumes, per-core kernel
    /// reports, barriers.
    Engine,
    /// Coherence-protocol transitions: map/unmap, guarded-access routing,
    /// chunk-loop ends.
    Protocol,
    /// DMA engine activity: get/put issues (with completion), synchs.
    Dma,
    /// NoC link and home-node activity (sampled counter tracks).
    Noc,
    /// The periodic stat-sampling time-series itself.
    Sample,
}

impl TraceCategory {
    /// Every category, in bit order.
    pub const ALL: [TraceCategory; 5] = [
        TraceCategory::Engine,
        TraceCategory::Protocol,
        TraceCategory::Dma,
        TraceCategory::Noc,
        TraceCategory::Sample,
    ];

    /// Stable identifier used by `--trace-categories` and the JSON export.
    pub fn id(self) -> &'static str {
        match self {
            TraceCategory::Engine => "engine",
            TraceCategory::Protocol => "protocol",
            TraceCategory::Dma => "dma",
            TraceCategory::Noc => "noc",
            TraceCategory::Sample => "sample",
        }
    }

    /// Parses a category identifier (the inverse of [`TraceCategory::id`]).
    pub fn from_id(id: &str) -> Option<TraceCategory> {
        Self::ALL.into_iter().find(|c| c.id() == id)
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// A set of [`TraceCategory`]s, packed into one word so the hot-path filter
/// is a single AND.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CategoryMask(u32);

impl CategoryMask {
    /// The empty set.
    pub const NONE: CategoryMask = CategoryMask(0);

    /// Every category.
    pub fn all() -> CategoryMask {
        TraceCategory::ALL
            .into_iter()
            .fold(CategoryMask::NONE, CategoryMask::with)
    }

    /// This set plus `category`.
    pub fn with(self, category: TraceCategory) -> CategoryMask {
        CategoryMask(self.0 | category.bit())
    }

    /// Whether `category` is in the set.
    #[inline]
    pub fn contains(self, category: TraceCategory) -> bool {
        self.0 & category.bit() != 0
    }

    /// Returns `true` when no category is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated category list (`"engine,dma"`); `"all"`
    /// selects everything.  Unknown names fail the whole list.
    pub fn parse(list: &str) -> Result<CategoryMask, String> {
        if list.trim() == "all" {
            return Ok(CategoryMask::all());
        }
        let mut mask = CategoryMask::NONE;
        for part in list.split(',').filter(|s| !s.trim().is_empty()) {
            let category = TraceCategory::from_id(part.trim())
                .ok_or_else(|| format!("unknown trace category '{}'", part.trim()))?;
            mask = mask.with(category);
        }
        Ok(mask)
    }

    /// The selected categories, in bit order.
    pub fn iter(self) -> impl Iterator<Item = TraceCategory> {
        TraceCategory::ALL
            .into_iter()
            .filter(move |c| self.contains(*c))
    }
}

impl std::fmt::Display for CategoryMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(TraceCategory::id).collect();
        f.write_str(&names.join(","))
    }
}

/// What one [`TraceEvent`] records.  The payload meaning is per-kind;
/// [`TraceKind::label`] and [`TraceKind::category`] give every kind a stable
/// name and a filter bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A core entered a new kernel segment; payload `[segment code, tile]`.
    SegmentBegin,
    /// A core parked on a `dma-synch` wait; payload `[wake cycle, 0]`.
    Park,
    /// A parked core resumed; payload `[resume cycle, 0]`.
    Resume,
    /// Per-core end-of-kernel report; payload `[work cycles, stall cycles]`
    /// at the core's final clock.
    CoreReport,
    /// A buffer was mapped at the protocol (dma-get); payload
    /// `[buffer, chunk base]`.
    Map,
    /// A buffer was unmapped (dma-put); payload `[buffer, 0]`.
    Unmap,
    /// A guarded access was routed to global memory; payload
    /// `[address, latency]`.
    GuardedGm,
    /// A guarded access hit the local SPM; payload `[address, latency]`.
    GuardedLocalSpm,
    /// A guarded access was diverted to a remote SPM; payload
    /// `[address, latency]`.
    GuardedRemoteSpm,
    /// A chunk loop ended at the protocol; payload `[0, 0]`.
    LoopEnd,
    /// A dma-get was issued; payload `[completion cycle, bytes]`.
    DmaGet,
    /// A dma-put was issued; payload `[completion cycle, bytes]`.
    DmaPut,
    /// A dma-synch completed or began waiting; payload
    /// `[done cycle, tags waited on]`.
    DmaSync,
}

impl TraceKind {
    /// The category this kind belongs to (its filter bit).
    pub fn category(self) -> TraceCategory {
        match self {
            TraceKind::SegmentBegin
            | TraceKind::Park
            | TraceKind::Resume
            | TraceKind::CoreReport => TraceCategory::Engine,
            TraceKind::Map
            | TraceKind::Unmap
            | TraceKind::GuardedGm
            | TraceKind::GuardedLocalSpm
            | TraceKind::GuardedRemoteSpm
            | TraceKind::LoopEnd => TraceCategory::Protocol,
            TraceKind::DmaGet | TraceKind::DmaPut | TraceKind::DmaSync => TraceCategory::Dma,
        }
    }

    /// Stable event name used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SegmentBegin => "segment-begin",
            TraceKind::Park => "park",
            TraceKind::Resume => "resume",
            TraceKind::CoreReport => "core-report",
            TraceKind::Map => "map",
            TraceKind::Unmap => "unmap",
            TraceKind::GuardedGm => "guarded-gm",
            TraceKind::GuardedLocalSpm => "guarded-local-spm",
            TraceKind::GuardedRemoteSpm => "guarded-remote-spm",
            TraceKind::LoopEnd => "loop-end",
            TraceKind::DmaGet => "dma-get",
            TraceKind::DmaPut => "dma-put",
            TraceKind::DmaSync => "dma-sync",
        }
    }
}

/// One compact structured event: 32 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The issuing core's clock when the event fired.
    pub cycle: u64,
    /// The core (ring index) the event belongs to.
    pub core: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Two kind-specific payload words (see [`TraceKind`]).
    pub payload: [u64; 2],
}

/// A fixed-capacity ring of [`TraceEvent`]s: overflow drops the *oldest*
/// events, so the buffer always holds the most recent window and recording
/// never allocates after construction.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event when the ring is full.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Appends an event, evicting the oldest one when full.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when no event is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by overflow since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, oldest first (recording order).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// A time-series of sampled statistics: named tracks, one value per track
/// per sample.  Counter tracks store the *delta* since the previous sample
/// (the interval's activity); gauge tracks store the instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct StatTimeSeries {
    tracks: Vec<Track>,
    /// `(cycle, value per present track)`; tracks registered after a sample
    /// are absent from it (`None`).
    samples: Vec<(u64, Vec<Option<f64>>)>,
}

#[derive(Debug, Clone)]
struct Track {
    name: String,
    /// Counter tracks remember the previous cumulative value to form deltas.
    previous: Option<f64>,
}

impl StatTimeSeries {
    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The registered track names, in registration order.
    pub fn track_names(&self) -> impl Iterator<Item = &str> {
        self.tracks.iter().map(|t| t.name.as_str())
    }

    /// The samples: `(cycle, per-track values)` in time order.
    pub fn samples(&self) -> impl Iterator<Item = (u64, &[Option<f64>])> {
        self.samples.iter().map(|(cycle, v)| (*cycle, v.as_slice()))
    }

    fn track_index(&mut self, name: &str) -> usize {
        match self.tracks.iter().position(|t| t.name == name) {
            Some(i) => i,
            None => {
                self.tracks.push(Track {
                    name: name.to_owned(),
                    previous: None,
                });
                self.tracks.len() - 1
            }
        }
    }
}

/// One in-progress sample: push values, then drop to commit.
#[derive(Debug)]
pub struct SampleBuilder<'a> {
    series: &'a mut StatTimeSeries,
    cycle: u64,
    values: Vec<Option<f64>>,
}

impl SampleBuilder<'_> {
    /// Records an instantaneous (gauge) value on `name`'s track.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let idx = self.series.track_index(name);
        if idx >= self.values.len() {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(value);
    }

    /// Records a cumulative counter on `name`'s track; the stored value is
    /// the delta against the previous sample of the same track.
    ///
    /// The delta is clamped at zero: near `u64::MAX` consecutive cumulative
    /// readings can stop growing (a saturated count) — or, after the `f64`
    /// cast rounds near 2^64, even appear to shrink — and a negative
    /// "activity" sample would be nonsense.
    pub fn counter(&mut self, name: &str, cumulative: f64) {
        let idx = self.series.track_index(name);
        let delta = (cumulative - self.series.tracks[idx].previous.unwrap_or(0.0)).max(0.0);
        self.series.tracks[idx].previous = Some(cumulative);
        if idx >= self.values.len() {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(delta);
    }
}

impl Drop for SampleBuilder<'_> {
    fn drop(&mut self) {
        self.series
            .samples
            .push((self.cycle, std::mem::take(&mut self.values)));
    }
}

/// Configuration of the tracer: the `SystemConfig.trace` knob.
///
/// Pure presentation — no setting here may change a simulation's timing,
/// traffic or statistics (pinned by the hot-loop equivalence wall and the
/// `tracing_leaves_timing_untouched` test).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSettings {
    /// Master switch; off costs the hot loop one `Option` check.
    pub enabled: bool,
    /// Which categories are recorded (`--trace-categories`).
    pub categories: CategoryMask,
    /// Per-core ring capacity in events (32 bytes each); overflow drops the
    /// oldest events.
    pub ring_capacity: usize,
    /// Stat-sampling period in cycles (`--sample-interval`); `0` disables
    /// the time-series.
    pub sample_interval: u64,
}

impl TraceSettings {
    /// Tracing enabled with every category, the default ring capacity and
    /// the default sampling period.
    pub fn enabled() -> TraceSettings {
        TraceSettings {
            enabled: true,
            ..TraceSettings::default()
        }
    }
}

impl Default for TraceSettings {
    /// Tracing off; when switched on, all categories, 8192-event rings and
    /// a 5000-cycle sampling period.
    fn default() -> Self {
        TraceSettings {
            enabled: false,
            categories: CategoryMask::all(),
            ring_capacity: 8192,
            sample_interval: 5_000,
        }
    }
}

/// The live tracer: per-core event rings plus the sampling time-series.
#[derive(Debug, Clone)]
pub struct Tracer {
    mask: CategoryMask,
    rings: Vec<EventRing>,
    series: StatTimeSeries,
    sample_interval: u64,
    next_sample: u64,
}

impl Tracer {
    /// A tracer for `cores` cores with the given settings.
    pub fn new(cores: usize, settings: &TraceSettings) -> Self {
        Tracer {
            mask: settings.categories,
            rings: (0..cores.max(1))
                .map(|_| EventRing::new(settings.ring_capacity))
                .collect(),
            series: StatTimeSeries::default(),
            sample_interval: settings.sample_interval,
            next_sample: 0,
        }
    }

    /// Whether `category` is being recorded — the hot-path filter.
    #[inline]
    pub fn wants(&self, category: TraceCategory) -> bool {
        self.mask.contains(category)
    }

    /// Records one event on `core`'s ring, if its category is selected.
    #[inline]
    pub fn record(&mut self, core: usize, cycle: u64, kind: TraceKind, payload: [u64; 2]) {
        if !self.mask.contains(kind.category()) {
            return;
        }
        self.rings[core].push(TraceEvent {
            cycle,
            core: core as u32,
            kind,
            payload,
        });
    }

    /// Whether a sample is due at `cycle`.
    ///
    /// Sampling is keyed off the stepping core's clock; under a globally
    /// clocked scheduler that clock *is* simulation time.  The next sample
    /// point is re-anchored at `cycle + interval` (not incremented), so a
    /// large clock jump triggers one sample, not a catch-up burst.
    #[inline]
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.sample_interval != 0
            && self.mask.contains(TraceCategory::Sample)
            && cycle >= self.next_sample
    }

    /// Opens a sample at `cycle`; committing (dropping) the builder appends
    /// it to the time-series and schedules the next sample point.
    pub fn begin_sample(&mut self, cycle: u64) -> SampleBuilder<'_> {
        self.next_sample = cycle.saturating_add(self.sample_interval.max(1));
        SampleBuilder {
            series: &mut self.series,
            cycle,
            values: Vec::new(),
        }
    }

    /// The recorded rings, one per core.
    pub fn rings(&self) -> &[EventRing] {
        &self.rings
    }

    /// One core's ring.
    pub fn ring(&self, core: usize) -> &EventRing {
        &self.rings[core]
    }

    /// The sampled time-series.
    pub fn series(&self) -> &StatTimeSeries {
        &self.series
    }

    /// Total events currently held over all rings.
    pub fn events(&self) -> usize {
        self.rings.iter().map(EventRing::len).sum()
    }

    /// Total events evicted by ring overflow over all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }
}

/// A Chrome trace-event JSON document under construction.
///
/// Produces the `{"traceEvents": [...]}` object format; timestamps are
/// simulation cycles (one "microsecond" per cycle as far as the viewer is
/// concerned — only relative placement matters for a simulator timeline).
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names thread `tid` (a per-core track) of process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
    }

    /// A complete-duration (`"X"`) span on a per-core track.
    #[allow(clippy::too_many_arguments)] // mirrors the Chrome event fields
    pub fn duration(
        &mut self,
        pid: u64,
        tid: u64,
        category: &str,
        name: &str,
        start: u64,
        duration: u64,
        args: Json,
    ) {
        self.events.push(Json::obj([
            ("name", Json::str(name)),
            ("cat", Json::str(category)),
            ("ph", Json::str("X")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("ts", Json::from(start)),
            ("dur", Json::from(duration)),
            ("args", args),
        ]));
    }

    /// A thread-scoped instant (`"i"`) event.
    pub fn instant(&mut self, pid: u64, tid: u64, category: &str, name: &str, ts: u64, args: Json) {
        self.events.push(Json::obj([
            ("name", Json::str(name)),
            ("cat", Json::str(category)),
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("ts", Json::from(ts)),
            ("args", args),
        ]));
    }

    /// A counter (`"C"`) sample: one counter track named `name` with the
    /// given series values at `ts`.
    pub fn counter(&mut self, pid: u64, name: &str, ts: u64, value: f64) {
        self.events.push(Json::obj([
            ("name", Json::str(name)),
            ("ph", Json::str("C")),
            ("pid", Json::from(pid)),
            ("ts", Json::from(ts)),
            ("args", Json::obj([("value", Json::num(value))])),
        ]));
    }

    /// Renders every event of `tracer` (instants; DMA issues become spans to
    /// their completion) and its sampled time-series (counter tracks).
    ///
    /// `pid` is the process track; counter tracks live on `counter_pid` so
    /// the timeline groups them separately from the per-core threads.
    pub fn add_tracer(&mut self, tracer: &Tracer, pid: u64, counter_pid: u64) {
        for ring in tracer.rings() {
            for e in ring.iter() {
                let cat = e.kind.category().id();
                let name = e.kind.label();
                let (tid, ts) = (e.core as u64, e.cycle);
                match e.kind {
                    // DMA issues know their completion: render the transfer
                    // as a span from issue to completion.
                    TraceKind::DmaGet | TraceKind::DmaPut => {
                        let dur = e.payload[0].saturating_sub(ts);
                        let args = Json::obj([("bytes", Json::from(e.payload[1]))]);
                        self.duration(pid, tid, cat, name, ts, dur, args);
                    }
                    // A park is a wait span until the recorded wake cycle.
                    TraceKind::Park => {
                        let dur = e.payload[0].saturating_sub(ts);
                        self.duration(pid, tid, cat, name, ts, dur, Json::empty_obj());
                    }
                    _ => {
                        let args = Json::obj([
                            ("p0", Json::from(e.payload[0])),
                            ("p1", Json::from(e.payload[1])),
                        ]);
                        self.instant(pid, tid, cat, name, ts, args);
                    }
                }
            }
        }
        let names: Vec<String> = tracer.series().track_names().map(str::to_owned).collect();
        for (cycle, values) in tracer.series().samples() {
            for (name, value) in names.iter().zip(values.iter()) {
                if let Some(v) = value {
                    self.counter(counter_pid, name, cycle, *v);
                }
            }
        }
    }

    /// Finishes the document: `{"traceEvents": [...], ...metadata}`.
    pub fn finish(self, metadata: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let mut members: Vec<(String, Json)> = metadata
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        members.push(("traceEvents".to_owned(), Json::Arr(self.events)));
        Json::obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_round_trip_and_mask_filters() {
        for c in TraceCategory::ALL {
            assert_eq!(TraceCategory::from_id(c.id()), Some(c));
        }
        assert_eq!(TraceCategory::from_id("warp"), None);
        let mask = CategoryMask::parse("engine, dma").unwrap();
        assert!(mask.contains(TraceCategory::Engine));
        assert!(mask.contains(TraceCategory::Dma));
        assert!(!mask.contains(TraceCategory::Protocol));
        assert_eq!(mask.to_string(), "engine,dma");
        assert_eq!(CategoryMask::parse("all").unwrap(), CategoryMask::all());
        assert!(CategoryMask::parse("engine,bogus").is_err());
        assert!(CategoryMask::parse("").unwrap().is_empty());
    }

    #[test]
    fn every_kind_has_a_category_and_label() {
        use TraceKind::*;
        for kind in [
            SegmentBegin,
            Park,
            Resume,
            CoreReport,
            Map,
            Unmap,
            GuardedGm,
            GuardedLocalSpm,
            GuardedRemoteSpm,
            LoopEnd,
            DmaGet,
            DmaPut,
            DmaSync,
        ] {
            assert!(!kind.label().is_empty());
            assert!(CategoryMask::all().contains(kind.category()));
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut ring = EventRing::new(3);
        let ev = |cycle| TraceEvent {
            cycle,
            core: 0,
            kind: TraceKind::LoopEnd,
            payload: [0, 0],
        };
        for cycle in 0..5 {
            ring.push(ev(cycle));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn tracer_respects_the_category_mask() {
        let mut settings = TraceSettings::enabled();
        settings.categories = CategoryMask::NONE.with(TraceCategory::Dma);
        let mut tracer = Tracer::new(2, &settings);
        tracer.record(0, 10, TraceKind::DmaGet, [20, 4]);
        tracer.record(0, 11, TraceKind::Park, [30, 0]); // engine: filtered
        assert_eq!(tracer.events(), 1);
        assert_eq!(
            tracer.ring(0).iter().next().unwrap().kind,
            TraceKind::DmaGet
        );
        assert!(!tracer.wants(TraceCategory::Engine));
    }

    #[test]
    fn sampling_anchors_forward_and_records_deltas() {
        let mut settings = TraceSettings::enabled();
        settings.sample_interval = 100;
        let mut tracer = Tracer::new(1, &settings);
        assert!(tracer.sample_due(0));
        {
            let mut s = tracer.begin_sample(0);
            s.counter("hits", 10.0);
            s.gauge("depth", 3.0);
        }
        assert!(!tracer.sample_due(99));
        assert!(tracer.sample_due(100));
        {
            let mut s = tracer.begin_sample(250); // a jump: one sample, no catch-up
            s.counter("hits", 25.0);
        }
        assert!(!tracer.sample_due(349));
        assert!(tracer.sample_due(350));
        let series = tracer.series();
        assert_eq!(series.len(), 2);
        let samples: Vec<_> = series.samples().collect();
        assert_eq!(samples[0].0, 0);
        assert_eq!(samples[0].1, &[Some(10.0), Some(3.0)]);
        // Second sample: delta 15 on the counter, gauge absent.
        assert_eq!(samples[1].0, 250);
        assert_eq!(samples[1].1, &[Some(15.0)]);
    }

    /// A counter that saturates at `u64::MAX` must produce clamped deltas,
    /// never negative ones: after saturation the cumulative value stops
    /// growing (and the `f64` cast can round it), so later samples read 0
    /// activity instead of wrapping below zero.
    #[test]
    fn saturated_counter_deltas_clamp_at_zero() {
        let mut settings = TraceSettings::enabled();
        settings.sample_interval = 10;
        let mut tracer = Tracer::new(1, &settings);
        let saturated = u64::MAX as f64;
        {
            let mut s = tracer.begin_sample(0);
            s.counter("hits", saturated - 1024.0);
        }
        {
            let mut s = tracer.begin_sample(10);
            s.counter("hits", saturated); // the counter just saturated
        }
        {
            let mut s = tracer.begin_sample(20);
            s.counter("hits", saturated); // pinned at the ceiling: delta 0
        }
        {
            // A reading below the previous one (rounding near 2^64, or a
            // reconstructed cumulative) clamps instead of going negative.
            let mut s = tracer.begin_sample(30);
            s.counter("hits", saturated - 2048.0);
        }
        let samples: Vec<f64> = tracer
            .series()
            .samples()
            .map(|(_, v)| v[0].unwrap())
            .collect();
        assert!(samples[0] > 0.0);
        assert!(samples[1] >= 0.0);
        assert_eq!(samples[2], 0.0, "saturated counter: no phantom activity");
        assert_eq!(samples[3], 0.0, "shrinking cumulative clamps, not wraps");
        assert!(samples.iter().all(|&d| d >= 0.0), "{samples:?}");
    }

    #[test]
    fn disabled_sampling_is_never_due() {
        let mut settings = TraceSettings::enabled();
        settings.sample_interval = 0;
        let tracer = Tracer::new(1, &settings);
        assert!(!tracer.sample_due(u64::MAX));
    }

    #[test]
    fn chrome_export_parses_back() {
        let mut settings = TraceSettings::enabled();
        settings.sample_interval = 10;
        let mut tracer = Tracer::new(2, &settings);
        tracer.record(0, 5, TraceKind::DmaGet, [25, 8]);
        tracer.record(1, 7, TraceKind::Map, [1, 0x1000]);
        {
            let mut s = tracer.begin_sample(10);
            s.gauge("noc.home_backlog.0", 2.0);
        }
        let mut chrome = ChromeTrace::new();
        chrome.thread_name(0, 0, "core 0");
        chrome.duration(0, 0, "engine", "kernel", 0, 40, Json::empty_obj());
        chrome.add_tracer(&tracer, 0, 1);
        let doc = chrome.finish([("displayTimeUnit", Json::str("ms"))]);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        // metadata + kernel span + dma span + map instant + counter sample
        assert_eq!(events.len(), 5);
        let dma = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("dma-get"))
            .unwrap();
        assert_eq!(dma.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(dma.get("dur").and_then(Json::as_u64), Some(20));
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .unwrap();
        assert_eq!(
            counter.get("name").and_then(Json::as_str),
            Some("noc.home_backlog.0")
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Overflow keeps exactly the newest `capacity` events, in push
            /// order, and counts every eviction — the ring can lose history
            /// but never corrupt it.
            #[test]
            fn ring_overflow_keeps_the_newest_suffix_in_order(
                capacity in 1usize..16,
                cycles in proptest::collection::vec(any::<u64>(), 0..64)
            ) {
                let mut ring = EventRing::new(capacity);
                for (i, &cycle) in cycles.iter().enumerate() {
                    ring.push(TraceEvent {
                        cycle,
                        core: i as u32,
                        kind: TraceKind::LoopEnd,
                        payload: [i as u64, 0],
                    });
                }
                let held: Vec<(u64, u32)> = ring.iter().map(|e| (e.cycle, e.core)).collect();
                let start = cycles.len().saturating_sub(capacity);
                let expected: Vec<(u64, u32)> = cycles[start..]
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (c, (start + i) as u32))
                    .collect();
                prop_assert_eq!(held, expected);
                prop_assert_eq!(ring.dropped(), start as u64);
                prop_assert_eq!(ring.len(), cycles.len().min(capacity));
            }
        }
    }
}
