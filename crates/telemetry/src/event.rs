//! The trace event model: tracks, span classes and events.
//!
//! Times are absolute seconds from the start of the traced run (`f64`, the
//! unit everything above the cycle level already uses). Span events store
//! their *end* time rather than a duration so that adjacent spans sharing
//! a boundary value stay bitwise-adjacent through export — no `start +
//! dur` round-off can reorder them.

/// The lane a track represents inside one replica: either an accelerator
/// module of the CTA unit pool (Fig. 7) or one of the two host-side lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Module {
    /// The systolic array — the mapping-schedule timeline itself.
    Sa,
    /// The Cluster Index Module (hash-to-cluster lookups).
    Cim,
    /// Centroid aggregation (CACC accumulate + CAVG average).
    Cag,
    /// The Probability Aggregation module.
    Pag,
    /// Host link: weight uploads and activation transfers.
    Host,
    /// The serving runtime: request lifecycle events and queue counters.
    Runtime,
    /// The failure lane: replica outages, slowdown bubbles, retry markers.
    Fault,
    /// The brownout lane: operating-point intervals and quality-loss
    /// counters from the overload controller.
    Brownout,
    /// The circuit-breaker lane: open / half-open intervals and state
    /// transitions.
    Breaker,
    /// The hedging lane: hedge issue / win / cancel markers and hedged
    /// request intervals.
    Hedge,
    /// A harness thread-pool worker lane: one task-execution interval per
    /// scheduled task, used by the `--pool-trace` occupancy export.
    Worker,
    /// The event-core lane: sampled pending-event counters from the
    /// fleet driver.
    Events,
    /// The tenancy lane: quota-shed markers, fair-queue backlog counters,
    /// and autoscaler decisions.
    Tenancy,
    /// The chaos/detector lane: failure-detector quarantine intervals,
    /// probe re-admissions, and partition markers.
    Chaos,
}

impl Module {
    /// All lanes, in display order.
    pub const ALL: [Module; 14] = [
        Module::Sa,
        Module::Cim,
        Module::Cag,
        Module::Pag,
        Module::Host,
        Module::Runtime,
        Module::Fault,
        Module::Brownout,
        Module::Breaker,
        Module::Hedge,
        Module::Worker,
        Module::Events,
        Module::Tenancy,
        Module::Chaos,
    ];

    /// Human-readable lane name (the Chrome trace thread name).
    pub fn label(self) -> &'static str {
        match self {
            Module::Sa => "SA",
            Module::Cim => "CIM",
            Module::Cag => "CAG",
            Module::Pag => "PAG",
            Module::Host => "host-link",
            Module::Runtime => "runtime",
            Module::Fault => "fault",
            Module::Brownout => "brownout",
            Module::Breaker => "breaker",
            Module::Hedge => "hedge",
            Module::Worker => "worker",
            Module::Events => "events",
            Module::Tenancy => "tenancy",
            Module::Chaos => "chaos",
        }
    }

    /// Stable per-replica thread id (Chrome trace `tid`); also the sort
    /// order of the lanes inside a replica's track group.
    pub fn lane_index(self) -> u32 {
        match self {
            Module::Sa => 0,
            Module::Cim => 1,
            Module::Cag => 2,
            Module::Pag => 3,
            Module::Host => 4,
            Module::Runtime => 5,
            Module::Fault => 6,
            Module::Brownout => 7,
            Module::Breaker => 8,
            Module::Hedge => 9,
            Module::Worker => 10,
            Module::Events => 11,
            Module::Tenancy => 12,
            Module::Chaos => 13,
        }
    }
}

/// One track: a (replica, lane) pair. Chrome trace maps `replica` to the
/// process id and the lane to the thread id, so Perfetto shows one track
/// group per replica with one row per module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId {
    /// Replica index (0 for single-unit / per-head traces).
    pub replica: u32,
    /// Lane within the replica.
    pub module: Module,
}

impl TrackId {
    /// Builds a track id.
    pub fn new(replica: u32, module: Module) -> Self {
        Self { replica, module }
    }
}

/// What a span's time is spent on — the paper's three latency categories
/// (Fig. 12 right) plus the host-side and runtime classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanClass {
    /// LSH hashing, cluster indexing, centroid aggregation.
    Compression,
    /// Q/K/V linear transformations.
    Linear,
    /// Score, probability aggregation, output (PAG stalls included).
    Attention,
    /// Host-link activation transfer.
    Transfer,
    /// One-time weight upload.
    Upload,
    /// Serving-runtime lifecycle (queueing, batching).
    Lifecycle,
    /// Fault intervals: replica outages and injected slowdown stalls.
    Fault,
    /// Overload-control intervals: brownout operating points, breaker
    /// open / half-open windows, hedge lifetimes.
    Control,
    /// Thread-pool task execution (worker-lane occupancy intervals).
    Pool,
}

impl SpanClass {
    /// Category label (the Chrome trace `cat` field).
    pub fn label(self) -> &'static str {
        match self {
            SpanClass::Compression => "compression",
            SpanClass::Linear => "linear",
            SpanClass::Attention => "attention",
            SpanClass::Transfer => "transfer",
            SpanClass::Upload => "upload",
            SpanClass::Lifecycle => "lifecycle",
            SpanClass::Fault => "fault",
            SpanClass::Control => "control",
            SpanClass::Pool => "pool",
        }
    }
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A closed interval of module activity `[t_s, end_s)` on the event's
    /// track. `bubble` marks time the lane was *occupied but idle*
    /// (pipeline fills, PAG stalls, CAVG drains) — the bubble-attribution
    /// report and SA-occupancy figures key off it.
    Span {
        /// Absolute end time, seconds.
        end_s: f64,
        /// Latency category.
        class: SpanClass,
        /// Whether the interval is a bubble (occupied-but-idle).
        bubble: bool,
    },
    /// An asynchronous (request-scoped) interval `[t_s, end_s)`; async
    /// spans may overlap on a track, so they are exported as Chrome `b`/`e`
    /// pairs keyed by `id` instead of thread-scoped `B`/`E` pairs.
    Async {
        /// Correlation id (the request id).
        id: u64,
        /// Absolute end time, seconds.
        end_s: f64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (e.g. queue depth).
    Counter {
        /// The counter's value at `t_s`.
        value: f64,
    },
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The track the event belongs to.
    pub track: TrackId,
    /// Event name. `&'static str` keeps the ring buffer allocation-free.
    pub name: &'static str,
    /// Start (or occurrence) time, absolute seconds.
    pub t_s: f64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// The event's end time: `end_s` for spans and async spans, `t_s` for
    /// instants and counters.
    pub fn end_s(&self) -> f64 {
        match self.kind {
            EventKind::Span { end_s, .. } | EventKind::Async { end_s, .. } => end_s,
            EventKind::Instant | EventKind::Counter { .. } => self.t_s,
        }
    }

    /// Span duration in seconds (zero for non-span events).
    pub fn dur_s(&self) -> f64 {
        self.end_s() - self.t_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_indices_are_distinct_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, m) in Module::ALL.iter().enumerate() {
            assert_eq!(m.lane_index() as usize, i);
            assert!(seen.insert(m.lane_index()));
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn event_end_and_duration() {
        let span = Event {
            track: TrackId::new(0, Module::Sa),
            name: "s",
            t_s: 1.0,
            kind: EventKind::Span { end_s: 3.5, class: SpanClass::Linear, bubble: false },
        };
        assert_eq!(span.end_s(), 3.5);
        assert_eq!(span.dur_s(), 2.5);
        let instant = Event { track: span.track, name: "i", t_s: 2.0, kind: EventKind::Instant };
        assert_eq!(instant.end_s(), 2.0);
        assert_eq!(instant.dur_s(), 0.0);
    }
}
