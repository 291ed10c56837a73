//! In-memory spans of the traced run, written out once the benchmark ends.

use std::time::Instant;

use simkernel::Json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

/// Every span of one benchmark process, in the order they were opened.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        self.push(name, parent, start, start, 0)
    }

    /// Closes `id` now, recording `count` units of work done inside it.
    pub fn close(&mut self, id: SpanId, count: u64) {
        let end = self.offset_ns(Instant::now());
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
        span.count = count;
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> SpanId {
        let start_ns = self.offset_ns(start);
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns,
            dur_ns: self.offset_ns(end) - start_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Seconds covered by span `id`.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans[id].dur_ns as f64 * 1e-9
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Renders the spans as a Chrome trace-event document (opens in
    /// Perfetto); `args` carry each span's id, parent and work count.
    pub fn to_chrome(&self, metadata: Vec<(&str, Json)>) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str("perfbench")),
                    ("ph", Json::str("X")),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    ("ts", Json::num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::num(s.dur_ns as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("count", Json::from(s.count)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", Json::obj(metadata)),
        ])
    }
}
