//! The key-value workloads: a trusted `KvService` whose `put` keeps each
//! value as a managed object in the enclave heap (releasing the key's
//! previous value, so overwrites leave enclave garbage), driven over
//! classic ecalls or the work-stealing switchless scheduler.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::{Ctx, Trust, VmError};
use runtime_sim::value::{ClassId, ObjId, Value};
use sgx_sim::cost::CostModel;
use telemetry::trace::Tracer;

use crate::harness::{self, fnv, timed, traced, Driver, OpOutcome, SetupTimes, FNV_OFFSET};
use crate::inputs::{fill_ops, key_bytes, value_bytes, KvOp, KvShape, KvStream};

/// Modelled service compute of a get, ns (the trusted body's own work),
/// plus one ns per 8 value bytes copied out.
const GET_SERVICE_NS: u64 = 1_500;
/// Modelled service compute of a put, ns, plus one ns per 8 value bytes.
const PUT_SERVICE_NS: u64 = 2_500;

/// Key → handle of the managed object holding its current value.
type Index = Arc<Mutex<BTreeMap<Vec<u8>, ObjId>>>;

fn bytes_arg(args: &[Value], i: usize) -> Result<&[u8], VmError> {
    match args.get(i) {
        Some(Value::Bytes(b)) => Ok(b),
        other => Err(VmError::Type(format!("argument {i} must be bytes, got {other:?}"))),
    }
}

fn lock(index: &Index) -> std::sync::MutexGuard<'_, BTreeMap<Vec<u8>, ObjId>> {
    index.lock().expect("kv index lock: a service body panicked")
}

/// The annotated program: `@Trusted KvService { get, put }` over
/// managed value objects, and an untrusted `Main`.
pub fn program(index: &Index) -> Program {
    let get_index = Arc::clone(index);
    let put_index = Arc::clone(index);
    let service = ClassDef::new("KvService")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "get",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(move |ctx: &mut Ctx<'_>, _this, args: &[Value]| {
                let key = bytes_arg(args, 0)?;
                let id = lock(&get_index).get(key).copied();
                let value = match id {
                    Some(id) => ctx
                        .with_heap(|h| h.field(id, 0).cloned())
                        .ok_or_else(|| VmError::BadRef(format!("value object {id:?} died")))?,
                    None => Value::Int(-1),
                };
                let len = if let Value::Bytes(b) = &value { b.len() as u64 } else { 0 };
                ctx.charge_compute_ns(GET_SERVICE_NS + len / 8);
                Ok(value)
            }),
        ))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(move |ctx: &mut Ctx<'_>, _this, args: &[Value]| {
                let key = bytes_arg(args, 0)?.to_vec();
                let value = bytes_arg(args, 1)?.to_vec();
                let len = value.len() as i64;
                ctx.charge_compute_ns(PUT_SERVICE_NS + value.len() as u64 / 8);
                let mut index = lock(&put_index);
                ctx.with_heap(|h| {
                    let id = h.alloc(ClassId(u32::MAX), vec![Value::Bytes(value)])?;
                    h.add_root(id);
                    if let Some(old) = index.insert(key, id) {
                        h.remove_root(old);
                    }
                    Ok::<_, runtime_sim::heap::OutOfMemory>(())
                })?;
                Ok(Value::Int(len))
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![service, main], MethodRef::new("Main", "main"))
        .expect("kv service program is well-formed")
}

fn entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("KvService", CTOR),
        MethodRef::new("KvService", "get"),
        MethodRef::new("KvService", "put"),
        MethodRef::new("Main", "main"),
    ]
}

/// The plain-map oracle: key → `(tag, len)` of its current value.
#[derive(Debug, Default)]
struct Oracle(BTreeMap<u32, (u64, u32)>);

impl Oracle {
    /// Applies `op` and reports whether `response` is what a plain map
    /// would have answered.
    fn check(&mut self, op: KvOp, response: &Value) -> bool {
        match op {
            KvOp::Get { key } => match (self.0.get(&key), response) {
                (Some(&(tag, len)), Value::Bytes(got)) => *got == value_bytes(tag, len),
                (None, Value::Int(-1)) => true,
                _ => false,
            },
            KvOp::Put { key, len, tag } => {
                self.0.insert(key, (tag, len));
                matches!(response, Value::Int(n) if *n == len as i64)
            }
        }
    }
}

fn digest(response: &Value) -> u64 {
    let mut h = FNV_OFFSET;
    match response {
        Value::Bytes(b) => fnv(&mut h, b),
        Value::Int(i) => fnv(&mut h, &i.to_le_bytes()),
        _ => {}
    }
    h
}

/// Issues one op against `service`, checking it against `oracle`.
fn issue(
    ctx: &mut Ctx<'_>,
    service: &Value,
    cost: &CostModel,
    tracer: Option<&Tracer>,
    oracle: &mut Oracle,
    op: KvOp,
) -> (bool, u64, harness::Timed) {
    let args = match op {
        KvOp::Get { key } => vec![Value::Bytes(key_bytes(key))],
        KvOp::Put { key, len, tag } => {
            vec![Value::Bytes(key_bytes(key)), Value::Bytes(value_bytes(tag, len))]
        }
    };
    let method = if matches!(op, KvOp::Get { .. }) { "get" } else { "put" };
    let name = if matches!(op, KvOp::Get { .. }) { "op:get" } else { "op:put" };
    let (result, t) =
        traced(tracer, cost, "bench", name, || timed(cost, || ctx.call(service, method, &args)));
    match result {
        Ok(response) => (oracle.check(op, &response), digest(&response), t),
        Err(_) => {
            // The op's effect is unknown; keep the oracle in step with
            // what the service should now hold.
            oracle.check(op, &Value::Unit);
            (false, 0, t)
        }
    }
}

struct KvDriver<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    service: Value,
    cost: Arc<CostModel>,
    stream: KvStream,
    oracle: Oracle,
}

impl Driver for KvDriver<'_, '_> {
    fn step(&mut self, tracer: Option<&Tracer>) -> OpOutcome {
        let op = self.stream.next_op();
        let (ok, digest, t) =
            issue(self.ctx, &self.service, &self.cost, tracer, &mut self.oracle, op);
        OpOutcome { calls: vec![("kv", t)], ok, digest }
    }

    fn verify(&mut self) -> Result<u64, String> {
        // Every response was checked inline against the oracle.
        Ok(0)
    }
}

/// Runs one kv session: build and launch the app, fill every key once
/// (the warm-up prefix), then hand a [`Driver`] over the seeded stream
/// to `body`. Setup phases are timed into `times`; warm-up failures
/// are returned as an error.
pub fn session<R>(
    shape: &KvShape,
    seed: u64,
    config: AppConfig,
    tracer: Option<&Tracer>,
    times: &mut SetupTimes,
    body: impl FnOnce(&mut dyn Driver, &PartitionedApp) -> R,
) -> Result<R, VmError> {
    let index: Index = Arc::default();
    let app = harness::launch(&program(&index), entries(), config, tracer, times)?;
    let cost = Arc::clone(&app.shared.cost);
    app.enter_untrusted(|ctx| {
        let mut oracle = Oracle::default();
        let warm = |ctx: &mut Ctx<'_>, oracle: &mut Oracle| -> Result<Value, VmError> {
            let service = ctx.new_object("KvService", &[])?;
            for op in fill_ops(shape, seed) {
                let (ok, _, _) = issue(ctx, &service, &cost, None, oracle, op);
                if !ok {
                    return Err(VmError::App(format!("warm-up op {op:?} failed")));
                }
            }
            Ok(service)
        };
        let (service, ns) = harness::warmup_phase(tracer, || warm(ctx, &mut oracle));
        times.warmup_ns = ns;
        let service = service?;
        let mut driver = KvDriver {
            ctx,
            service,
            cost: Arc::clone(&cost),
            stream: KvStream::new(*shape, seed),
            oracle,
        };
        Ok(body(&mut driver, &app))
    })
}

/// Crossings a session makes before its measured ops: the service
/// constructor plus one put per key.
pub fn setup_crossings(shape: &KvShape) -> u64 {
    1 + shape.key_space as u64
}
