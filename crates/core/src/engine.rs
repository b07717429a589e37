//! The routing-engine interface shared by DFSSSP and all baselines.

use fabric::{Network, Routes};
use telemetry::{counters, hists, phases, Recorder, RecorderHandle};

/// Errors a routing engine can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The network is not strongly connected; no routing can serve it.
    Disconnected,
    /// Deadlock-free layer assignment needs more virtual layers than the
    /// engine was allowed to use (`required` is a lower-bound hint: the
    /// layer count reached when the budget ran out).
    NeedMoreLayers {
        /// Layers the run would have needed at minimum.
        required: usize,
        /// Layers the engine was allowed.
        allowed: usize,
    },
    /// The engine only supports a topology family this network is not a
    /// member of (e.g. DOR needs coordinates, fat-tree routing needs
    /// levels). Mirrors OpenSM engines falling back / failing — the
    /// "missing bars" of the paper's Fig 4.
    UnsupportedTopology(String),
    /// A [`crate::Budget`] axis ran out mid-run (`resource` is the axis:
    /// `deadline_ms`, `nodes` or `cdg_edges`; `limit` the configured
    /// bound). The run stopped promptly instead of hanging.
    BudgetExceeded {
        /// Which budget axis tripped.
        resource: &'static str,
        /// The configured bound on that axis.
        limit: u64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Disconnected => write!(f, "network is not strongly connected"),
            RouteError::NeedMoreLayers { required, allowed } => write!(
                f,
                "deadlock-free assignment needs >= {required} virtual layers, only {allowed} allowed"
            ),
            RouteError::UnsupportedTopology(why) => write!(f, "unsupported topology: {why}"),
            RouteError::BudgetExceeded { resource, limit } => {
                write!(f, "routing budget exceeded: {resource} limit {limit}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The compute request an engine carries in its [`EngineConfig`]: the
/// balanced sweep's chunk width. Route computation is sequential; the
/// chunk is the one schedule parameter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeOpts {
    /// Destinations per chunk of the balanced SSSP sweep (DESIGN.md
    /// §15); `0` is read as `1`, the paper's schedule.
    pub chunk: usize,
}

impl ComputeOpts {
    /// The paper's schedule (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// No-op: route computation is sequential. Kept only because
    /// `crates/perf/src/stack.rs:152` spells `.threads(1)`; delete it
    /// with that call.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Set the chunk width.
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The context this request asks for (`chunk` 0 read as 1). Kept
    /// only because `crates/perf` spells it (`stack.rs:161`); delete it
    /// with that call and [`RoutingEngine::route_in`].
    pub fn resolve(&self) -> ComputeCtx {
        ComputeCtx {
            chunk: self.chunk.max(1),
        }
    }
}

/// A resolved [`ComputeOpts`]. Kept only because `crates/perf` spells
/// it (`stack.rs:10,160`, `shadow.rs:13,75`); delete it with those
/// calls and [`RoutingEngine::route_in`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComputeCtx {
    /// Chunk width of the balanced sweep (≥ 1).
    pub chunk: usize,
}

/// Uniform configuration for configurable routing engines: the
/// virtual-layer budget, the post-assignment balancing toggle, the
/// telemetry sink, and the compute request (the sweep's chunk width).
/// One struct instead of one setter per knob, so the subnet manager's
/// escalation ladder, the CLIs and the benches all tune engines the same
/// way ([`RoutingEngine::with_config`]).
///
/// Engines apply the fields they understand and ignore the rest (a
/// balancing toggle means nothing to LASH); [`RoutingEngine::config`]
/// reports the engine's current view.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Virtual-layer budget. InfiniBand hardware allows 8 data VLs.
    pub max_layers: usize,
    /// Spread paths over unused layers after assignment.
    pub balance: bool,
    /// Telemetry sink; defaults to the shared no-op.
    pub recorder: RecorderHandle,
    /// Resource bounds for each `route()` call; unlimited by default.
    pub budget: crate::Budget,
    /// Chunk width of the balanced sweep; the paper's `1` by default.
    pub compute: ComputeOpts,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_layers: 8,
            balance: true,
            recorder: telemetry::noop(),
            budget: crate::Budget::default(),
            compute: ComputeOpts::default(),
        }
    }
}

impl EngineConfig {
    /// The paper's defaults: 8 layers, balancing on, no telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the virtual-layer budget.
    pub fn max_layers(mut self, layers: usize) -> Self {
        self.max_layers = layers;
        self
    }

    /// Toggle post-assignment balancing.
    pub fn balance(mut self, on: bool) -> Self {
        self.balance = on;
        self
    }

    /// Attach a telemetry sink.
    pub fn recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Bound each `route()` call by `budget`.
    pub fn budget(mut self, budget: crate::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Set the compute request.
    pub fn compute(mut self, compute: ComputeOpts) -> Self {
        self.compute = compute;
        self
    }
}

/// A routing algorithm: consumes a network, produces forwarding tables
/// plus a virtual-layer assignment.
///
/// An engine is configured once ([`RoutingEngine::set_config`]) and
/// then routes with [`RoutingEngine::route`]: every schedule, budget and
/// telemetry choice is read from the [`EngineConfig`] it holds.
pub trait RoutingEngine {
    /// Engine name, as reported in tables/figures (e.g. `"DFSSSP"`).
    fn name(&self) -> &'static str;

    /// Compute routes for `net`.
    ///
    /// Determinism contract: the routes are a function of `net` and the
    /// engine's configuration and nothing else.
    fn route(&self, net: &Network) -> Result<Routes, RouteError>;

    /// [`RoutingEngine::route`], given the context the engine's own
    /// configuration resolves to (anything else panics). Kept only
    /// because `crates/perf` spells it (`stack.rs:297`,
    /// `shadow.rs:169,310`); delete it with those calls.
    fn route_in(&self, net: &Network, cx: &ComputeCtx) -> Result<Routes, RouteError> {
        assert_eq!(*cx, self.config().compute.resolve());
        self.route(net)
    }

    /// Whether the routes this engine produces are guaranteed
    /// deadlock-free on arbitrary topologies.
    fn deadlock_free(&self) -> bool;

    /// Whether this engine has a layer budget the widen-VLs rung can
    /// raise. Engines without one (MinHop, plain SSSP, DOR) report
    /// `false`; the subnet manager's escalation ladder then skips that
    /// rung *intentionally* instead of silently.
    fn tunables(&self) -> bool {
        false
    }

    /// The engine's current configuration. Total: engines without a
    /// configuration report the defaults they effectively run with.
    fn config(&self) -> EngineConfig {
        EngineConfig::default()
    }

    /// Apply a configuration. Total: engines accept it and ignore the
    /// fields they have no use for.
    fn set_config(&mut self, _config: EngineConfig) {}

    /// Builder form of [`RoutingEngine::set_config`].
    fn with_config(mut self, config: EngineConfig) -> Self
    where
        Self: Sized,
    {
        self.set_config(config);
        self
    }
}

/// Boxed engines route too, so runtime-selected engines (CLI flags,
/// fallback ladders) can drive generic consumers like `SmLoop`.
impl<T: RoutingEngine + ?Sized> RoutingEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        (**self).route(net)
    }

    fn deadlock_free(&self) -> bool {
        (**self).deadlock_free()
    }

    fn tunables(&self) -> bool {
        (**self).tunables()
    }

    fn config(&self) -> EngineConfig {
        (**self).config()
    }

    fn set_config(&mut self, config: EngineConfig) {
        (**self).set_config(config)
    }
}

/// Wraps any engine so every `route` call is measured: wall-clock as
/// the `route_total` phase plus the standard route-quality metrics
/// ([`record_route_metrics`]). This is what makes baseline comparisons
/// apples-to-apples — MinHop and DFSSSP go through the identical
/// measurement path. Costs nothing when the recorder is disabled.
#[derive(Clone, Debug)]
pub struct Recorded<E> {
    /// The measured engine.
    pub inner: E,
    recorder: RecorderHandle,
}

impl<E: RoutingEngine> Recorded<E> {
    /// Measure `inner` through `recorder`.
    pub fn new(inner: E, recorder: RecorderHandle) -> Self {
        Recorded { inner, recorder }
    }

    /// Unwrap the measured engine.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: RoutingEngine> RoutingEngine for Recorded<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        let routes = telemetry::timed(&*self.recorder, phases::ROUTE_TOTAL, || {
            self.inner.route(net)
        })?;
        record_route_metrics(net, &routes, &*self.recorder);
        Ok(routes)
    }

    fn deadlock_free(&self) -> bool {
        self.inner.deadlock_free()
    }

    fn tunables(&self) -> bool {
        self.inner.tunables()
    }

    fn config(&self) -> EngineConfig {
        self.inner.config()
    }

    fn set_config(&mut self, config: EngineConfig) {
        self.inner.set_config(config)
    }
}

/// Record the standard quality metrics of a finished routing: the
/// `paths_routed` / `vls_used` counters and the `path_length` /
/// `vl_channels` / `edge_load` histograms. A no-op (not even a table
/// walk) when the recorder is disabled.
pub fn record_route_metrics(net: &Network, routes: &Routes, rec: &dyn Recorder) {
    if !rec.enabled() {
        return;
    }
    let num_layers = routes.num_layers() as usize;
    rec.add(counters::VLS_USED, num_layers as u64);
    let mut layer_channels = vec![vec![false; net.num_channels()]; num_layers];
    let mut loads = vec![0u64; net.num_channels()];
    let mut paths = 0u64;
    // Destination-major, as the tables are stored.
    for (dst_t, &dst) in net.terminals().iter().enumerate() {
        for (src_t, &src) in net.terminals().iter().enumerate() {
            if src == dst {
                continue;
            }
            let Ok(channels) = routes.path_channels(net, src, dst) else {
                continue;
            };
            paths += 1;
            rec.observe(hists::PATH_LENGTH, channels.len() as u64);
            let layer = routes.layer(src_t, dst_t) as usize;
            for c in &channels {
                loads[c.idx()] += 1;
                if layer < num_layers {
                    layer_channels[layer][c.idx()] = true;
                }
            }
        }
    }
    rec.add(counters::PATHS_ROUTED, paths);
    for used in &layer_channels {
        let distinct = used.iter().filter(|&&u| u).count() as u64;
        rec.observe(hists::VL_CHANNELS, distinct);
    }
    for &load in &loads {
        rec.observe(hists::EDGE_LOAD, load);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cross_thread_boundaries() {
        // The route server hands engine configs (and the recorders
        // inside them) to background writer threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineConfig>();
        assert_send_sync::<RouteError>();
        let config = EngineConfig::new().max_layers(4);
        let moved = std::thread::spawn(move || config.max_layers)
            .join()
            .unwrap();
        assert_eq!(moved, 4);
    }

    #[test]
    fn compute_opts_resolve_to_the_chunk_alone() {
        // The default is the paper's schedule, and 0 reads as 1.
        assert_eq!(EngineConfig::default().compute.resolve().chunk, 1);
        assert_eq!(ComputeOpts::new().chunk(0).resolve().chunk, 1);
        assert_eq!(ComputeOpts::new().chunk(5).resolve().chunk, 5);
        // `threads` is the pinned no-op: it changes nothing.
        assert_eq!(
            ComputeOpts::new().threads(4).chunk(5),
            ComputeOpts::new().chunk(5)
        );
    }

    #[test]
    fn route_in_is_route_under_the_engines_own_context() {
        let net = fabric::topo::torus(&[3, 3], 1);
        let compute = ComputeOpts::new().chunk(4);
        let engine = crate::Sssp::new().with_config(EngineConfig::new().compute(compute));
        let own = compute.resolve();
        assert_eq!(engine.route_in(&net, &own), engine.route(&net));
        let foreign = std::panic::catch_unwind(|| engine.route_in(&net, &ComputeCtx { chunk: 1 }));
        assert!(foreign.is_err(), "a foreign context must panic");
    }

    #[test]
    fn errors_format_usefully() {
        let e = RouteError::NeedMoreLayers {
            required: 9,
            allowed: 8,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('8'));
        assert!(RouteError::Disconnected.to_string().contains("connected"));
        assert!(RouteError::UnsupportedTopology("no coords".into())
            .to_string()
            .contains("no coords"));
    }
}
