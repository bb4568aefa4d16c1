//! The mining session: one place to carry *how* a pipeline run should
//! execute — metrics sink, tracer, resource limits, and thread count —
//! so the miners themselves only describe *what* each stage computes.
//!
//! A [`MineSession`] is the single way to configure instrumentation
//! (the retired twin entry points hand-threaded `(sink, tracer)`
//! through every call instead). The convenience miners
//! (`mine_general_dag(log, &options)` etc.) build a default session
//! internally; instrumented callers build one explicitly:
//!
//! ```
//! use procmine_core::{mine_general_dag_in, MineSession, MinerMetrics, MinerOptions, Tracer};
//! use procmine_log::WorkflowLog;
//!
//! let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
//! let mut metrics = MinerMetrics::new();
//! let tracer = Tracer::new();
//! let mut session = MineSession::new()
//!     .with_tracer(tracer.clone())
//!     .with_sink(&mut metrics);
//! let model = mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
//! assert_eq!(metrics.edges_final, model.edge_count() as u64);
//! assert!(!tracer.records().is_empty());
//! ```
//!
//! Sessions also carry the execution strategy: [`with_threads`]
//! (MineSession::with_threads) turns the heavy stages (pair counting,
//! the marking pass, SCC dissolution, global transitive reduction) into
//! fan-out/join barriers over scoped threads, while the cheap stages
//! keep their serial bodies — the parallel miner is a per-stage
//! strategy, not a fork of the pipeline.
//!
//! Deadlines compose: a session-level deadline (started when
//! [`with_limits`](MineSession::with_limits) is called) and the
//! per-run clock started from `options.limits.deadline` at miner entry
//! are combined with [`Deadline::earliest`] — whichever fires first
//! aborts the run.

use crate::clock::StageClock;
use crate::limits::Deadline;
use crate::obs::Registry;
use crate::telemetry::{MetricsSink, MinerMetrics, NullSink, Stage};
use crate::trace::Tracer;
use crate::{Limits, MineError};

/// A configured pipeline run: metrics sink, tracer, limits with a
/// started deadline, and thread count. See the [module docs](self) for
/// the builder idiom; `S` defaults to [`NullSink`], so
/// `MineSession::new()` is the fully disabled (zero-cost) session.
///
/// The sink is held by value. To record into caller-owned metrics,
/// pass a mutable reference — `&mut M` is itself a
/// [`MetricsSink`] — and read the metrics after the run.
#[derive(Debug)]
pub struct MineSession<S = NullSink> {
    pub(crate) sink: S,
    pub(crate) tracer: Tracer,
    pub(crate) obs: Registry,
    pub(crate) limits: Limits,
    pub(crate) deadline: Deadline,
    pub(crate) threads: usize,
}

impl MineSession<NullSink> {
    /// A fully disabled session: no metrics, no tracing, no limits,
    /// serial execution. The convenience miners use this internally.
    pub fn new() -> Self {
        MineSession {
            sink: NullSink,
            tracer: Tracer::disabled(),
            obs: Registry::disabled(),
            limits: Limits::default(),
            deadline: Limits::default().start_clock(),
            threads: 1,
        }
    }
}

impl Default for MineSession<NullSink> {
    fn default() -> Self {
        MineSession::new()
    }
}

impl<S> MineSession<S> {
    /// Replaces the metrics sink, changing the session's sink type.
    /// Pass `&mut metrics` to keep ownership of the metrics value.
    pub fn with_sink<S2>(self, sink: S2) -> MineSession<S2> {
        MineSession {
            sink,
            tracer: self.tracer,
            obs: self.obs,
            limits: self.limits,
            deadline: self.deadline,
            threads: self.threads,
        }
    }

    /// Replaces the tracer. [`Tracer`] clones share their span store,
    /// so the caller can keep a handle for export.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the metrics registry. [`Registry`] clones share their
    /// store, so the caller can keep a handle for export; every stage
    /// run in this session samples its wall latency into
    /// `procmine_stage_latency_ns{stage=…}`.
    pub fn with_obs(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the resource limits and (re)starts the session
    /// deadline from `limits.deadline`, measured from this call. Runs
    /// additionally honor `options.limits` per miner call — the sooner
    /// of the two deadlines wins.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.deadline = limits.start_clock();
        self.limits = limits;
        self
    }

    /// Sets the thread count for the parallelizable stages. `0` and
    /// `1` both mean serial; with `threads > 1` the heavy stages fan
    /// out over scoped threads and merge at join barriers, producing
    /// output identical to the serial strategy.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The session's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The session's metrics registry.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The session's resource limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The configured thread count (at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sink and tracer as a borrowed pair — the handles
    /// instrumented code records into. Splitting the borrow lets stage
    /// bodies hold the sink mutably while spans are open on the tracer.
    pub fn handles(&mut self) -> (&mut S, &Tracer) {
        (&mut self.sink, &self.tracer)
    }

    /// The deadline governing a run started now: the sooner of the
    /// session deadline and a fresh clock from `options_limits`.
    pub(crate) fn run_deadline(&self, options_limits: &Limits) -> Deadline {
        self.deadline.earliest(options_limits.start_clock())
    }
}

/// Runs one pipeline stage as a named, traced, metered, budgeted unit:
/// checks the deadline once at entry, then times the body with one
/// [`StageClock`] whose interval becomes the `miner`-category span
/// named [`Stage::span_name`], the sample in the registry's per-stage
/// histogram, and the stage's [`MinerMetrics`](crate::MinerMetrics)
/// timer. A body that fails records into none of them. Stage bodies
/// that loop over executions re-check the deadline themselves, once per
/// execution.
pub(crate) fn run_stage<S: MetricsSink, T>(
    stage: Stage,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    obs: &Registry,
    body: impl FnOnce(&mut S) -> Result<T, MineError>,
) -> Result<T, MineError> {
    clocked_stage(
        stage,
        MinerMetrics::add_stage_nanos,
        deadline,
        sink,
        tracer,
        obs,
        body,
    )
}

/// [`run_stage`] for a fan-out/join barrier: the body spawns workers
/// that credit their own intervals to the stage timer, so the barrier's
/// interval is credited to the stage's wall-clock timer instead.
pub(crate) fn run_barrier<S: MetricsSink, T>(
    stage: Stage,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    obs: &Registry,
    body: impl FnOnce(&mut S) -> Result<T, MineError>,
) -> Result<T, MineError> {
    clocked_stage(
        stage,
        MinerMetrics::add_wall_nanos,
        deadline,
        sink,
        tracer,
        obs,
        body,
    )
}

fn clocked_stage<S: MetricsSink, T>(
    stage: Stage,
    slot: fn(&mut MinerMetrics, Stage, u64),
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    obs: &Registry,
    body: impl FnOnce(&mut S) -> Result<T, MineError>,
) -> Result<T, MineError> {
    deadline.check()?;
    let clock = StageClock::start(
        tracer,
        stage.span_name(),
        "miner",
        obs.stage_latency(stage),
        S::ENABLED,
    );
    let out = body(sink)?;
    if let Some(nanos) = clock.stop() {
        sink.record(|m| slot(m, stage, nanos));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_session_is_disabled_and_serial() {
        let session = MineSession::new();
        assert!(!session.tracer().is_enabled());
        assert_eq!(session.threads(), 1);
        assert_eq!(session.limits(), &Limits::default());
        assert!(session.run_deadline(&Limits::default()).check().is_ok());
    }

    #[test]
    fn builders_compose_and_preserve_configuration() {
        let mut metrics = MinerMetrics::new();
        let tracer = Tracer::new();
        let mut session = MineSession::new()
            .with_threads(4)
            .with_tracer(tracer.clone())
            .with_limits(Limits {
                max_events: Some(10),
                ..Limits::default()
            })
            .with_sink(&mut metrics);
        assert_eq!(session.threads(), 4);
        assert_eq!(session.limits().max_events, Some(10));
        let (sink, tracer_ref) = session.handles();
        assert!(tracer_ref.is_enabled());
        sink.record(|m| m.edges_final += 1);
        drop(session);
        assert_eq!(metrics.edges_final, 1);
    }

    #[test]
    fn zero_threads_means_serial() {
        assert_eq!(MineSession::new().with_threads(0).threads(), 1);
    }

    #[test]
    fn session_deadline_combines_with_run_limits() {
        let session = MineSession::new().with_limits(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        // The expired session deadline dominates unlimited run limits.
        assert!(session.run_deadline(&Limits::default()).check().is_err());

        let roomy = MineSession::new();
        let tight = Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        };
        let deadline = roomy.run_deadline(&tight);
        std::thread::sleep(Duration::from_millis(2));
        assert!(deadline.check().is_err());
    }

    #[test]
    fn run_stage_times_and_traces_the_body() {
        let mut metrics = MinerMetrics::new();
        let tracer = Tracer::new();
        let out = run_stage(
            Stage::Prune,
            Deadline::unlimited(),
            &mut metrics,
            &tracer,
            &Registry::disabled(),
            |sink| {
                sink.record(|m| m.edges_final += 7);
                Ok(7u32)
            },
        )
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(metrics.edges_final, 7);
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "prune");
        assert_eq!(records[0].cat, "miner");
    }

    #[test]
    fn run_stage_samples_the_registry_histogram() {
        let obs = Registry::new();
        run_stage(
            Stage::Reduce,
            Deadline::unlimited(),
            &mut NullSink,
            &Tracer::disabled(),
            &obs,
            |_| Ok(()),
        )
        .unwrap();
        let snap = obs.stage_latency(Stage::Reduce).snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(obs.stage_latency(Stage::Prune).snapshot().count, 0);
    }

    #[test]
    fn with_obs_is_carried_across_with_sink() {
        let obs = Registry::new();
        let session = MineSession::new().with_obs(obs.clone()).with_sink(NullSink);
        assert!(session.obs().is_enabled());
        drop(session);
        assert!(
            !MineSession::new().obs().is_enabled(),
            "default session has the disabled registry"
        );
    }

    #[test]
    fn run_stage_aborts_on_expired_deadline() {
        let deadline = Deadline::already_expired();
        std::thread::sleep(Duration::from_millis(2));
        let err = run_stage(
            Stage::CountPairs,
            deadline,
            &mut NullSink,
            &Tracer::disabled(),
            &Registry::disabled(),
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MineError::LimitExceeded {
                kind: crate::LimitKind::Deadline,
                ..
            }
        ));
    }
}
