//! The measurement loop shared by every workload: pinned application
//! config, setup phases, per-op two-clock timing, the benchmark's own
//! trace spans, and the closed-loop host run over an open-loop model
//! schedule.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::{SchedulerConfig, SwitchlessConfig};
use montsalvat_core::exec::world::ExecModel;
use montsalvat_core::image_builder::NativeImage;
use montsalvat_core::{ProviderKind, VmError};
use rmi::HashScheme;
use runtime_sim::heap::{CollectorKind, HeapConfig};
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::enclave::EnclaveConfig;
use telemetry::trace::{self, Lane, Tracer};

use crate::stats::Reservoir;

/// Samples kept for host-time percentiles.
const RESERVOIR: usize = 1 << 16;

/// Wall time per throughput block of a measured loop. The median block
/// rate is robust to a contended second or two on a shared host.
pub const BLOCK: Duration = Duration::from_secs(1);

/// Host run time of each reference-kernel sample a timed loop takes at
/// its start and after every [`BLOCK`].
const REFERENCE_SLICE: Duration = Duration::from_millis(10);

/// Host ns per iteration of [`reference_ns`]'s kernel on the host the
/// host metrics are normalized to (a quiet period of a 2-vCPU VM).
pub const REFERENCE_NS: f64 = 280.0;

/// Runs the reference kernel for about `slice` and returns its host ns
/// per iteration. The kernel is a fixed mix of the host work the
/// simulator itself does — ~100-byte allocations, byte hashing, and
/// ordered-map inserts and lookups — so it slows down with the host the
/// way the simulator does, and nothing the program under test does can
/// change it.
pub fn reference_ns(slice: Duration) -> f64 {
    let started = Instant::now();
    let mut map = BTreeMap::new();
    let mut hash = FNV_OFFSET;
    let mut iters = 0u64;
    while started.elapsed() < slice {
        for i in iters..iters + 1024 {
            let key = i % 4096;
            let value = vec![key as u8; 96];
            fnv(&mut hash, &value);
            map.insert(key, value);
            if let Some(v) = map.get(&(key * 7 % 4096)) {
                fnv(&mut hash, &v[..8]);
            }
        }
        iters += 1024;
    }
    std::hint::black_box(hash);
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Every [`AppConfig`] field a workload's numbers depend on, pinned so
/// that no environment variable can change them. Both isolates run the
/// semispace reference collector with `gc_threshold_bytes` between
/// automatic collections. `switchless_workers`
/// selects the work-stealing scheduler engine with that many executors
/// per side; `None` means classic crossings.
pub fn pinned_config(
    workdir: &Path,
    switchless_workers: Option<usize>,
    gc_threshold_bytes: u64,
    tracer: Arc<Tracer>,
) -> AppConfig {
    AppConfig {
        cost_params: CostParams::paper_defaults(),
        clock_mode: ClockMode::Virtual,
        enclave_config: EnclaveConfig::default(),
        heap_config: HeapConfig { gc_threshold_bytes, ..HeapConfig::default() },
        hash_scheme: HashScheme::Wide,
        gc_helper_interval: None,
        exec_model: ExecModel::native_image(),
        workdir: Some(workdir.to_path_buf()),
        switchless: switchless_workers.map(|workers| SwitchlessConfig {
            autotune: None,
            scheduler: Some(SchedulerConfig::default()),
            ..SwitchlessConfig::fixed(workers)
        }),
        telemetry: Some(telemetry::Recorder::new()),
        trace: Some(tracer),
        serde_fastpath: Some(true),
        provider: Some(ProviderKind::SimSgx),
        collector: Some(CollectorKind::Semispace),
    }
}

/// Host time of each setup phase of one application instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupTimes {
    /// `transform` of the annotated program.
    pub transform_ns: u64,
    /// `build_partitioned_images` (reachability + image builder).
    pub build_ns: u64,
    /// `PartitionedApp::launch`.
    pub launch_ns: u64,
    /// The workload's fixed warm-up prefix.
    pub warmup_ns: u64,
}

impl SetupTimes {
    /// Whole setup, seconds.
    pub fn total_s(&self) -> f64 {
        (self.transform_ns + self.build_ns + self.launch_ns + self.warmup_ns) as f64 * 1e-9
    }
}

/// Runs `f` as one timed setup phase, traced as a cat-`bench` span
/// when `tracer` is given. Returns `f`'s output and the phase's host ns.
pub fn setup_phase<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let wall = tracer.map(|t| t.wall_now_ns()).unwrap_or(0);
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    if let Some(t) = tracer {
        t.span_at(Lane::Untrusted, "bench", None, 0, 0, wall, || format!("setup:{name}"));
    }
    (out, ns)
}

/// Builds and launches a partitioned app, timing (and optionally
/// tracing) each phase into `times`.
pub fn launch(
    program: &montsalvat_core::Program,
    entries: Vec<montsalvat_core::MethodRef>,
    config: AppConfig,
    tracer: Option<&Tracer>,
    times: &mut SetupTimes,
) -> Result<PartitionedApp, VmError> {
    use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
    let (tp, ns) = setup_phase(tracer, "transform", || montsalvat_core::transform(program));
    times.transform_ns = ns;
    let options = ImageOptions::with_entry_points(entries);
    let (images, ns): (Result<(NativeImage, NativeImage), _>, _) =
        setup_phase(tracer, "image_build", || build_partitioned_images(&tp, &options, &options));
    times.build_ns = ns;
    let (trusted, untrusted) = images.map_err(|e| VmError::App(e.to_string()))?;
    let (app, ns) =
        setup_phase(tracer, "launch", || PartitionedApp::launch(&trusted, &untrusted, config));
    times.launch_ns = ns;
    app
}

/// Runs the warm-up prefix `f` with capture paused (its ops are setup,
/// not measured load, and would only fill the rings), then records the
/// phase as one cat-`bench` span. Returns `f`'s output and host ns.
pub fn warmup_phase<R>(tracer: Option<&Tracer>, f: impl FnOnce() -> R) -> (R, u64) {
    if let Some(t) = tracer {
        t.disable();
    }
    let wall = tracer.map(|t| t.wall_now_ns()).unwrap_or(0);
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    if let Some(t) = tracer {
        t.enable();
        t.span_at(Lane::Untrusted, "bench", None, 0, 0, wall, || "setup:warmup".to_owned());
    }
    (out, ns)
}

/// Runs `f` under a cat-`cat` span named `name` that becomes the trace
/// parent of every program span `f` produces. A no-op wrapper when
/// `tracer` is `None`.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    cost: &CostModel,
    cat: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let Some(t) = tracer else { return f() };
    let span = t.start(Lane::Untrusted, cat, trace::current(), cost.now_ns(), || name.to_owned());
    let out = {
        let _scope = span.as_ref().map(|s| trace::set_current(s.context()));
        f()
    };
    if let Some(span) = span {
        t.finish(span, cost.now_ns());
    }
    out
}

/// Two-clock reading of one call into the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timed {
    /// Host ns of the call.
    pub host_ns: u64,
    /// Charged (model) ns of the call.
    pub model_ns: u64,
}

/// Times `f` on both clocks.
pub fn timed<R>(cost: &CostModel, f: impl FnOnce() -> R) -> (R, Timed) {
    let charged = cost.charged();
    let started = Instant::now();
    let out = f();
    let host_ns = started.elapsed().as_nanos() as u64;
    let model_ns = cost.charged().saturating_sub(charged).as_nanos() as u64;
    (out, Timed { host_ns, model_ns })
}

/// One named call into the program with its two-clock timing.
pub type Call = (&'static str, Timed);

/// Calls of one name: how many, and their summed timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Calls made.
    pub count: u64,
    /// Summed host and model ns.
    pub sum: Timed,
}

impl CallTotals {
    /// Mean host ms per call (0 with no calls).
    pub fn host_ms(&self) -> f64 {
        self.sum.host_ns as f64 / self.count.max(1) as f64 / 1e6
    }

    /// Mean model ms per call (0 with no calls).
    pub fn model_ms(&self) -> f64 {
        self.sum.model_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

/// What one op reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpOutcome {
    /// The op's calls into the program, in order.
    pub calls: Vec<Call>,
    /// Whether the op returned without error and its response matched
    /// the oracle (checks deferred to [`Driver::verify`] count later).
    pub ok: bool,
    /// Digest of the response, folded into the run checksum.
    pub digest: u64,
}

/// A workload's live op source, bound to a launched app.
pub trait Driver {
    /// Issues the next op of the seeded stream.
    fn step(&mut self, tracer: Option<&Tracer>) -> OpOutcome;

    /// Deferred oracle checks over every op issued so far; returns how
    /// many ops failed them.
    fn verify(&mut self) -> Result<u64, String>;
}

/// Everything one measured loop recorded.
#[derive(Debug)]
pub struct Meter {
    /// Ops completed.
    pub ops: u64,
    /// Ops that errored or gave a wrong response.
    pub failed: u64,
    /// Host ns spent inside the program's calls, summed over ops.
    pub host_ns: u64,
    /// Ops per host second inside the program's calls, one entry per
    /// [`BLOCK`] of the loop's wall time.
    pub block_rates: Vec<f64>,
    /// Reference-kernel samples (host ns per iteration) taken at the
    /// start of a timed loop and after every block; empty for a loop of
    /// a fixed op count.
    pub reference_ns: Vec<f64>,
    /// Host ns per op (sampled).
    pub op_host: Reservoir,
    /// Host ns per individual call into the program (sampled).
    pub call_host: Reservoir,
    /// Charged service cost of each op of the model window.
    pub window_service: Vec<u64>,
    /// Host ns of each op of the model window.
    pub window_host: Vec<u64>,
    /// FNV-1a over the model window's response digests.
    pub window_checksum: u64,
    /// Calls by name (GraphChi's shard and engine calls).
    pub per_call: BTreeMap<&'static str, CallTotals>,
}

/// How long a measured loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Exactly this many ops.
    Ops(u64),
    /// The whole model window and at least this much host time.
    Timed(Duration),
}

/// Runs ops for `budget`. The first ops, one per entry of `due`, form
/// the model window: op `i` is due at `due[i]` on the open-loop model
/// schedule. Every op contributes host samples. `progress` is called
/// every 4096 ops.
pub fn measure(
    driver: &mut dyn Driver,
    tracer: Option<&Tracer>,
    due: &[u64],
    budget: Budget,
    seed: u64,
    progress: &mut dyn FnMut(u64),
) -> Meter {
    let window = due.len();
    let mut m = Meter {
        ops: 0,
        failed: 0,
        host_ns: 0,
        block_rates: Vec::new(),
        reference_ns: match budget {
            Budget::Timed(_) => vec![reference_ns(REFERENCE_SLICE)],
            Budget::Ops(_) => Vec::new(),
        },
        op_host: Reservoir::new(RESERVOIR, seed),
        call_host: Reservoir::new(RESERVOIR, seed ^ 1),
        window_service: Vec::with_capacity(window),
        window_host: Vec::with_capacity(window),
        window_checksum: FNV_OFFSET,
        per_call: BTreeMap::new(),
    };
    let started = Instant::now();
    let (mut block_start, mut block_ops, mut block_ns) = (started, 0u64, 0u64);
    loop {
        if block_start.elapsed() >= BLOCK {
            m.block_rates.push(block_ops as f64 * 1e9 / block_ns.max(1) as f64);
            if matches!(budget, Budget::Timed(_)) {
                m.reference_ns.push(reference_ns(REFERENCE_SLICE));
            }
            (block_start, block_ops, block_ns) = (Instant::now(), 0, 0);
        }
        let done_window = m.ops >= window as u64;
        let done = match budget {
            Budget::Ops(max) => m.ops >= max,
            Budget::Timed(time) => done_window && started.elapsed() >= time,
        };
        if done {
            break;
        }
        let op = driver.step(tracer);
        let host: u64 = op.calls.iter().map(|(_, c)| c.host_ns).sum();
        let model: u64 = op.calls.iter().map(|(_, c)| c.model_ns).sum();
        m.host_ns += host;
        block_ops += 1;
        block_ns += host;
        m.op_host.push(host);
        for &(name, c) in &op.calls {
            m.call_host.push(c.host_ns);
            let slot = m.per_call.entry(name).or_default();
            slot.count += 1;
            slot.sum.host_ns += c.host_ns;
            slot.sum.model_ns += c.model_ns;
        }
        if !done_window {
            m.window_service.push(model);
            m.window_host.push(host);
            fnv(&mut m.window_checksum, &op.digest.to_le_bytes());
        }
        if !op.ok {
            m.failed += 1;
        }
        m.ops += 1;
        if m.ops.is_multiple_of(4096) {
            progress(m.ops);
        }
    }
    m
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A fresh scratch directory inside `root`, removed on drop.
#[derive(Debug)]
pub struct Workdir(PathBuf);

impl Workdir {
    /// Creates `root/run-<pid>-<n>`.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
