//! One clock per timed interval.
//!
//! A pipeline stage is seen through three views: a metrics sink's timer
//! slot (`--stats`), a trace span (`--trace`) and a registry histogram
//! (`--metrics`). A [`StageClock`] measures the interval once and hands
//! that same `(start, duration)` to the span and the histogram, and the
//! duration back to the caller for its sink slot, so the three views
//! agree to the nanosecond.
//!
//! The clock is read only when at least one view is enabled: with a
//! disabled sink, a disabled (or [`Lane::Off`]) span lane and an inert
//! histogram, starting and stopping a `StageClock` costs a few branches.
//! An interval that is started but never [stopped](StageClock::stop) —
//! a stage whose body failed — reaches no view at all.

use std::time::Instant;

use crate::obs::Histogram;
use crate::trace::Lane;

/// A started interval on its way to the span lane, the histogram and
/// the caller's sink. See the [module docs](self).
#[must_use = "a started clock records nothing until stopped"]
pub struct StageClock<'t> {
    lane: Lane<'t>,
    name: &'static str,
    cat: &'static str,
    histogram: Histogram,
    started: Option<Instant>,
}

impl<'t> StageClock<'t> {
    /// Starts an interval whose span is `name`/`cat` on `lane` and
    /// whose duration is sampled into `histogram` (pass
    /// `Histogram::default()` for none). `sink_enabled` is the caller's
    /// `MetricsSink::ENABLED`. The clock is read only if the sink, the
    /// lane or the histogram is enabled.
    pub fn start(
        lane: impl Into<Lane<'t>>,
        name: &'static str,
        cat: &'static str,
        histogram: Histogram,
        sink_enabled: bool,
    ) -> Self {
        let lane = lane.into();
        let enabled = sink_enabled || lane.is_enabled() || histogram.is_enabled();
        StageClock {
            lane,
            name,
            cat,
            histogram,
            started: enabled.then(Instant::now),
        }
    }

    /// Ends the interval: records the span and the histogram sample and
    /// returns the duration in nanoseconds for the caller's sink slot.
    /// `None` — with no clock read — when no view is enabled.
    pub fn stop(self) -> Option<u64> {
        let started = self.started?;
        let nanos = started.elapsed().as_nanos() as u64;
        self.lane.record(self.name, self.cat, started, nanos);
        self.histogram.observe(nanos);
        Some(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Registry;
    use crate::telemetry::Stage;
    use crate::trace::Tracer;

    #[test]
    fn disabled_views_read_no_clock() {
        let tracer = Tracer::disabled();
        let reg = Registry::disabled();
        let clock = StageClock::start(
            &tracer,
            "prune",
            "miner",
            reg.stage_latency(Stage::Prune),
            false,
        );
        assert!(clock.started.is_none(), "no clock read when disabled");
        assert_eq!(clock.stop(), None);
        let off = StageClock::start(Lane::Off, "x", "y", Histogram::default(), false);
        assert!(off.started.is_none());
    }

    #[test]
    fn any_enabled_view_starts_the_clock() {
        let sink_only = StageClock::start(Lane::Off, "x", "y", Histogram::default(), true);
        assert!(sink_only.stop().is_some());
        let tracer = Tracer::new();
        assert!(
            StageClock::start(&tracer, "x", "y", Histogram::default(), false)
                .stop()
                .is_some()
        );
        let reg = Registry::new();
        let h = reg.stage_latency(Stage::Reduce);
        assert!(StageClock::start(Lane::Off, "x", "y", h, false)
            .stop()
            .is_some());
    }

    #[test]
    fn one_interval_feeds_every_view() {
        let tracer = Tracer::new();
        let reg = Registry::new();
        let clock = StageClock::start(
            &tracer,
            "count_pairs",
            "miner",
            reg.stage_latency(Stage::CountPairs),
            true,
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
        let nanos = clock.stop().unwrap();
        assert!(nanos >= 1_000_000);
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].name, records[0].cat), ("count_pairs", "miner"));
        assert_eq!(records[0].dur_ns, nanos);
        let snap = reg.stage_latency(Stage::CountPairs).snapshot();
        assert_eq!((snap.count, snap.sum), (1, nanos));
    }

    #[test]
    fn worker_lane_spans_flush_with_the_buffer() {
        let tracer = Tracer::new();
        let buf = tracer.worker();
        let nanos = StageClock::start(&buf, "w", "miner", Histogram::default(), false)
            .stop()
            .unwrap();
        assert!(tracer.records().is_empty());
        drop(buf);
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert!(records[0].tid >= 1);
        assert_eq!(records[0].dur_ns, nanos);
    }

    #[test]
    fn unstopped_clock_records_nothing() {
        let tracer = Tracer::new();
        let reg = Registry::new();
        drop(StageClock::start(
            &tracer,
            "prune",
            "miner",
            reg.stage_latency(Stage::Prune),
            true,
        ));
        assert!(tracer.records().is_empty());
        assert_eq!(reg.stage_latency(Stage::Prune).snapshot().count, 0);
    }
}
