//! Spans the benchmark records around its calls into the program.
//!
//! The program's own `Tracer` and `Registry` stay disabled; these spans
//! sit at the public-call boundaries, in the benchmark's code. A span's
//! self time is its duration minus the part its child spans cover. Spans
//! are folded into per-layer totals as they close, so a follow pass of a
//! million events keeps a fixed amount of memory.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The traced layers: one span kind per public call (or group of calls)
/// the benchmark makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `codec::flowmark::read_log_with`.
    Codec,
    /// `mine_auto_in`.
    Mine,
    /// Edge listing and DOT/JSON rendering of the model.
    Render,
    /// `count_paths`, `longest_path`, `mandatory_activities`.
    Paths,
    /// `splits::analyze_gateways`.
    Splits,
    /// `conformance::check_conformance_in`.
    Conformance,
    /// `FlowmarkSource::next_event`.
    Source,
    /// `CaseAssembler::on_event` / `finish` (absorb and snapshot calls
    /// made from inside are its children).
    Assembler,
    /// `OnlineMiner::absorb`.
    Absorb,
    /// `OnlineMiner::snapshot_in`.
    Snapshot,
    /// `FollowCheckpoint::save`, with the state export it needs.
    Checkpoint,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Codec,
        Layer::Mine,
        Layer::Render,
        Layer::Paths,
        Layer::Splits,
        Layer::Conformance,
        Layer::Source,
        Layer::Assembler,
        Layer::Absorb,
        Layer::Snapshot,
        Layer::Checkpoint,
    ];

    /// The metric-name prefix of the layer's busy and self times.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Codec => "log.codec",
            Layer::Mine => "core.mine",
            Layer::Render => "core.model.render",
            Layer::Paths => "graph.paths",
            Layer::Splits => "core.splits",
            Layer::Conformance => "core.conformance",
            Layer::Source => "log.stream.source",
            Layer::Assembler => "log.stream.assembler",
            Layer::Absorb => "core.online.absorb",
            Layer::Snapshot => "core.online.snapshot",
            Layer::Checkpoint => "core.checkpoint.save",
        }
    }
}

/// Per-layer totals of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub busy: Duration,
    pub self_time: Duration,
    pub calls: u64,
}

#[derive(Default)]
struct State {
    /// Open spans: start instant and the time their children covered.
    stack: Vec<(Instant, Duration)>,
    totals: [LayerTotals; Layer::ALL.len()],
    /// Time covered by outermost spans.
    covered: Duration,
}

/// A span recorder; disabled, it reads no clock.
pub struct Trace {
    enabled: bool,
    state: RefCell<State>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            state: RefCell::default(),
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.span_from(layer, self.now(), f).0
    }

    /// The clock, read only when enabled.
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Runs `f` inside a span of `layer` that starts at `start` (`None`:
    /// untraced) and returns the span's end. A hot loop chains its spans
    /// through this, reading the clock once per boundary instead of twice.
    pub fn span_from<T>(
        &self,
        layer: Layer,
        start: Option<Instant>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<Instant>) {
        let Some(start) = start else {
            return (f(), None);
        };
        self.state.borrow_mut().stack.push((start, Duration::ZERO));
        let out = f();
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        let (start, children) = st
            .stack
            .pop()
            .expect("span stack is balanced by construction");
        let took = end - start;
        let t = &mut st.totals[layer as usize];
        t.busy += took;
        t.self_time += took.saturating_sub(children);
        t.calls += 1;
        match st.stack.last_mut() {
            Some(parent) => parent.1 += took,
            None => st.covered += took,
        }
        (out, Some(end))
    }

    /// Takes the pass's totals and the time its outermost spans covered,
    /// and resets the recorder for the next pass.
    pub fn take(&self) -> ([LayerTotals; Layer::ALL.len()], Duration) {
        let st = std::mem::take(&mut *self.state.borrow_mut());
        debug_assert!(st.stack.is_empty());
        (st.totals, st.covered)
    }
}
