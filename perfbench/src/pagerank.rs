//! The `pagerank-part` workload: a stream of seeded R-MAT PageRank jobs
//! on the partitioned GraphChi application (untrusted sharder, trusted
//! engine). As GraphChi does, a job shards its graph only when no
//! shards exist for it yet; every job then runs the engine, which makes
//! one ecall and many shim ocalls.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use experiments::progs::{graphchi_entries, graphchi_program};
use graphchi::{engine, programs::PageRank, rmat, sharder, Backend};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::{Ctx, VmError};
use runtime_sim::value::Value;
use sgx_sim::cost::CostModel;
use telemetry::trace::Tracer;

use crate::harness::{self, timed, traced, Call, Driver, OpOutcome, SetupTimes};
use crate::inputs::{GraphJob, JobStream, JOB_POOL};

/// Jobs run as the warm-up prefix of each session.
pub const WARMUP_JOBS: usize = 16;

/// The sharder and engine objects and where graphs are sharded.
struct Graphs {
    sharder: Value,
    engine: Value,
    root: PathBuf,
    sharded: Vec<bool>,
}

impl Graphs {
    fn new(ctx: &mut Ctx<'_>, root: PathBuf) -> Result<Self, VmError> {
        Ok(Graphs {
            sharder: ctx.new_object("FastSharder", &[])?,
            engine: ctx.new_object("GraphChiEngine", &[])?,
            root,
            sharded: vec![false; JOB_POOL],
        })
    }

    /// Runs one job: shard the graph (untrusted, a local call) unless
    /// it already is, then run the engine (one ecall). Returns the
    /// engine's rank sum and the calls made.
    fn run(
        &mut self,
        ctx: &mut Ctx<'_>,
        cost: &CostModel,
        tracer: Option<&Tracer>,
        job: GraphJob,
    ) -> (Result<f64, VmError>, Vec<Call>) {
        let dir = Value::from(self.root.join(job.id.to_string()).to_string_lossy().as_ref());
        let mut calls = Vec::with_capacity(2);
        traced(tracer, cost, "bench", "op:job", || {
            let mut ready = Ok(());
            if !self.sharded[job.id as usize] {
                let args = [
                    dir.clone(),
                    Value::Int(job.vertices as i64),
                    Value::Int(job.edges as i64),
                    Value::Int(job.shards as i64),
                    Value::Int(job.rmat_seed as i64),
                ];
                let (edges, t) = traced(tracer, cost, "graphchi", "graphchi:shard", || {
                    timed(cost, || ctx.call(&self.sharder, "shard", &args))
                });
                calls.push(("shard", t));
                ready = edges.and_then(|n| match n.as_int() {
                    Some(n) if n == job.edges as i64 => Ok(()),
                    other => Err(VmError::App(format!("sharder stored {other:?} edges"))),
                });
                self.sharded[job.id as usize] = ready.is_ok();
            }
            let args = [dir, Value::Int(job.iterations as i64)];
            let (sum, t) = traced(tracer, cost, "graphchi", "graphchi:engine", || {
                timed(cost, || ready.and_then(|()| ctx.call(&self.engine, "run", &args)))
            });
            calls.push(("engine", t));
            let sum = sum.and_then(|v| {
                v.as_float()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| VmError::App(format!("engine returned {v:?}")))
            });
            (sum, calls)
        })
    }
}

/// The rank sum `graphchi::engine::run` gives for `job` when called
/// directly on the host, outside the simulator.
pub fn direct_rank_sum(job: GraphJob, dir: &Path) -> Result<f64, String> {
    let edges = rmat::generate(
        job.vertices,
        job.edges as usize,
        rmat::RmatParams::default(),
        job.rmat_seed,
    );
    let graph = sharder::shard(&Backend::Host, dir, job.vertices, &edges, job.shards as usize)
        .map_err(|e| e.to_string())?;
    let result = engine::run(&Backend::Host, &graph, &PageRank::default(), job.iterations)
        .map_err(|e| e.to_string())?;
    Ok(result.values.iter().sum())
}

struct JobDriver<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    graphs: Graphs,
    cost: Arc<CostModel>,
    stream: JobStream,
    oracle_dir: PathBuf,
    /// Direct rank sums by pool index, computed once per graph.
    expected: BTreeMap<u32, f64>,
    /// The first failure of the oracle itself.
    oracle_error: Option<String>,
}

impl JobDriver<'_, '_> {
    /// The direct rank sum for `job`'s graph, computed on first use.
    fn expected(&mut self, job: GraphJob) -> Option<f64> {
        if let Some(&want) = self.expected.get(&job.id) {
            return Some(want);
        }
        match direct_rank_sum(job, &self.oracle_dir) {
            Ok(want) => Some(*self.expected.entry(job.id).or_insert(want)),
            Err(e) => {
                self.oracle_error.get_or_insert(e);
                None
            }
        }
    }
}

impl Driver for JobDriver<'_, '_> {
    fn step(&mut self, tracer: Option<&Tracer>) -> OpOutcome {
        let job = self.stream.next_job();
        let (sum, calls) = self.graphs.run(self.ctx, &self.cost, tracer, job);
        let sum = sum.unwrap_or(f64::NAN);
        let ok = self.expected(job).is_some_and(|want| (sum - want).abs() <= 1e-9 * want.abs());
        OpOutcome { calls, ok, digest: sum.to_bits() }
    }

    fn verify(&mut self) -> Result<u64, String> {
        // Every rank sum was checked inline against the direct engine.
        self.oracle_error.clone().map_or(Ok(0), Err)
    }
}

/// Runs one pagerank session: build and launch the app, create the
/// sharder and engine, run [`WARMUP_JOBS`] jobs of a separate warm-up
/// stream, then hand a [`Driver`] over the seeded job stream to `body`.
pub fn session<R>(
    seed: u64,
    config: AppConfig,
    workdir: &Path,
    tracer: Option<&Tracer>,
    times: &mut SetupTimes,
    body: impl FnOnce(&mut dyn Driver, &PartitionedApp) -> R,
) -> Result<R, VmError> {
    let app = harness::launch(&graphchi_program(true), graphchi_entries(), config, tracer, times)?;
    let cost = Arc::clone(&app.shared.cost);
    app.enter_untrusted(|ctx| {
        let (warm, ns) = harness::warmup_phase(tracer, || {
            let mut graphs = Graphs::new(ctx, workdir.join("warmup"))?;
            let mut stream = JobStream::new(seed ^ 0x57A9_7E11);
            for _ in 0..WARMUP_JOBS {
                graphs.run(ctx, &cost, None, stream.next_job()).0?;
            }
            Ok::<_, VmError>(graphs)
        });
        times.warmup_ns = ns;
        let warm = warm?;
        let mut driver = JobDriver {
            ctx,
            graphs: Graphs { root: workdir.join("graphs"), sharded: vec![false; JOB_POOL], ..warm },
            cost: Arc::clone(&cost),
            stream: JobStream::new(seed),
            oracle_dir: workdir.join("oracle"),
            expected: BTreeMap::new(),
            oracle_error: None,
        };
        Ok(body(&mut driver, &app))
    })
}

/// Crossings a session makes before its measured jobs: the engine
/// constructor plus one engine call per warm-up job.
pub fn setup_crossings() -> u64 {
    1 + WARMUP_JOBS as u64
}
