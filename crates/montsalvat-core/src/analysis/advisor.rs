//! The partition advisor: from a captured causal trace to a ranked
//! re-annotation plan.
//!
//! Montsalvat leaves choosing the `@Trusted`/`@Untrusted` partition to
//! the developer. This module closes that loop for the *performance*
//! half of the decision: it replays a `--trace-out` capture (schema
//! `montsalvat.trace/v1`), prices every proxied class's boundary
//! crossings with [`CostParams`], and recommends the annotation moves
//! whose predicted model-time savings clear a configurable threshold.
//! Security placement stays with the developer — classes named in
//! [`AdvisorConfig::pinned`] are never moved, and every suggestion is
//! advisory output, not an applied transformation.
//!
//! # The cost equations
//!
//! For each cat-`"rmi"` span (one per boundary crossing) the advisor
//! walks the span's subtree, stopping at nested `"rmi"` spans, and
//! splits the crossing region into *overhead that exists only because
//! the class lives on the other side* and *work that moves with the
//! class*:
//!
//! ```text
//! X(call) = n_sgx  · (transition_ns + relay_overhead_ns)   crossings
//!         + n_sw   · switchless_call_ns                    switchless hand-offs
//!         + n_shim · transition_ns                         shim I/O relays
//!         + payload_bytes · copy_ns_per_byte               boundary copies
//!         + serde_ns                                       observed serde spans
//!         + queue_ns                                       observed queue waits
//!
//! W(call) = exclusive model time of "exec"/"gc" spans in the region
//! ```
//!
//! Moving a class across the boundary removes `X`, removes the
//! overhead of the crossings its methods make to classes on the
//! destination side (the first-level nested `"rmi"` spans —
//! [`ClassCosts::nested_crossing_ns`]), and rescales `W` by the MEE
//! compute factor (`×1/mee_compute_factor` leaving the enclave,
//! `×mee_compute_factor` entering it):
//!
//! ```text
//! predicted_savings = X + nested_X + W·(1 − move_factor)
//! ```
//!
//! Every term maps to a [`CostParams`] field with a `MONTSALVAT_*`
//! override; `docs/PARTITIONING.md` documents the contract term by
//! term, including the decision rule, its thresholds, and the
//! tolerance band the gated `partition_advisor` experiment checks.
//!
//! # Example
//!
//! Price a synthetic capture of a crossing-heavy trusted class and
//! check the advisor recommends moving it out:
//!
//! ```
//! use montsalvat_core::analysis::advisor::{advise, AdvisorConfig, Verdict};
//! use montsalvat_core::annotation::Trust;
//! use sgx_sim::cost::CostParams;
//! use telemetry::trace::{parse_chrome_trace, Lane, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.enable_with_capacity(1024);
//! for i in 0..16u64 {
//!     let t0 = i * 100_000;
//!     // The proxy call, recorded on the caller's (untrusted) lane …
//!     let call = tracer
//!         .start(Lane::Untrusted, "rmi", None, t0, || "Store.relay$put".into())
//!         .expect("tracing enabled");
//!     let ctx = call.context();
//!     // … its marshalling, the enclave transition, and the remote serve.
//!     tracer.span_at(Lane::Untrusted, "serde", Some(ctx), t0, t0 + 1_000, 0, || {
//!         "marshal:fast b=128".into()
//!     });
//!     let ecall = tracer
//!         .start(Lane::Trusted, "sgx", Some(ctx), t0 + 1_000, || "ecall:relay".into())
//!         .expect("tracing enabled");
//!     tracer.span_at(Lane::Trusted, "exec", Some(ecall.context()), t0 + 2_000, t0 + 3_000, 0, || {
//!         "serve:Store.relay$put".into()
//!     });
//!     tracer.finish(ecall, t0 + 4_000);
//!     tracer.finish(call, t0 + 5_000);
//! }
//! let trace = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
//! let plan = advise(&trace, &CostParams::paper_defaults(), &AdvisorConfig::default());
//! let store = &plan.recommendations[0];
//! assert_eq!(store.class, "Store");
//! assert_eq!(store.verdict, Verdict::Move);
//! assert_eq!(store.suggested, Trust::Untrusted);
//! assert!(store.predicted_savings_ns > 0);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sgx_sim::cost::CostParams;
use telemetry::trace::ParsedTrace;

use crate::annotation::{Side, Trust};
use crate::class::{ClassDef, ClassRole, CTOR};

/// Thresholds and pins governing the decision rule.
///
/// The defaults are deliberately relative (fractions, sample counts)
/// rather than absolute nanoseconds, so scaling every cost parameter by
/// a common factor never flips a verdict (the property pinned by the
/// `advisor_properties` proptest suite).
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorConfig {
    /// Minimum traced crossings of a class before the advisor will
    /// recommend moving it (fewer → [`Verdict::Hold`]).
    pub min_samples: u64,
    /// Minimum predicted savings as a fraction of the class's total
    /// boundary-attributed time `X + nested_X + W`.
    pub min_savings_frac: f64,
    /// Sample count at which confidence reaches 0.5: `confidence =
    /// n / (n + confidence_halfway)`.
    pub confidence_halfway: u64,
    /// Minimum confidence for a [`Verdict::Move`].
    pub min_confidence: f64,
    /// Relative tolerance band for prediction-vs-observed verification
    /// (echoed into exports; asserted by the `partition_advisor`
    /// experiment, see `docs/PARTITIONING.md`).
    pub tolerance: f64,
    /// Classes that must keep their annotation regardless of cost —
    /// the security half of the partitioning decision.
    pub pinned: BTreeSet<String>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            min_samples: 8,
            min_savings_frac: 0.05,
            confidence_halfway: 16,
            min_confidence: 0.25,
            tolerance: 0.25,
            pinned: BTreeSet::new(),
        }
    }
}

/// Per-class costs extracted from a trace: the inputs of the decision
/// rule, aggregated over every crossing of the class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCosts {
    /// Class name (the prefix of its `Class.relay$method` rmi spans).
    pub class: String,
    /// The side the class currently lives on, inferred from the caller
    /// lane of its rmi spans (a crossing recorded on the untrusted lane
    /// targets a trusted class, and vice versa).
    pub home: Side,
    /// Traced crossings (rmi spans) targeting this class.
    pub calls: u64,
    /// Crossings served over a classic transition (an `"sgx"` span in
    /// the region; includes switchless fallbacks).
    pub classic_crossings: u64,
    /// Crossings served switchlessly (no `"sgx"` span in the region).
    pub switchless_crossings: u64,
    /// Shim I/O relays (`"shim"` spans) issued while serving.
    pub shim_relays: u64,
    /// Serde payload bytes (the `b=<n>` suffix of `"serde"` spans).
    pub payload_bytes: u64,
    /// Observed model time inside `"serde"` spans of the regions.
    pub serde_ns: u64,
    /// Observed model time inside `"queue"` wait spans of the regions.
    pub queue_ns: u64,
    /// Exclusive model time of `"exec"` and `"gc"` spans in the
    /// regions — the in-world work `W` that moves with the class.
    pub exec_ns: u64,
    /// Crossing overhead of first-level nested rmi spans (crossings
    /// *made by* this class's methods). If the class moves, those
    /// calls become local, so their overhead is saved too.
    pub nested_crossing_ns: u64,
}

impl ClassCosts {
    /// The modelled crossing overhead `X + nested_X` in nanoseconds:
    /// transition and relay charges priced from `params`, plus the
    /// observed serde and queue-wait time, plus the overhead of nested
    /// crossings that a move would make local.
    pub fn crossing_overhead_ns(&self, params: &CostParams) -> f64 {
        let transition = params.transition_ns() as f64;
        self.classic_crossings as f64 * (transition + params.relay_overhead_ns as f64)
            + self.switchless_crossings as f64 * params.switchless_call_ns as f64
            + self.shim_relays as f64 * transition
            + self.payload_bytes as f64 * params.copy_ns_per_byte
            + self.serde_ns as f64
            + self.queue_ns as f64
            + self.nested_crossing_ns as f64
    }

    /// The multiplier `W` picks up when the class changes side:
    /// `1/mee_compute_factor` moving out of the enclave,
    /// `mee_compute_factor` moving in.
    pub fn move_factor(&self, params: &CostParams) -> f64 {
        match self.home {
            Side::Trusted => 1.0 / params.mee_compute_factor,
            Side::Untrusted => params.mee_compute_factor,
        }
    }
}

/// What the advisor recommends for one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Re-annotate: predicted savings clear every threshold.
    Move,
    /// Keep the current annotation (see the recommendation rationale).
    Hold,
}

impl Verdict {
    /// Lower-case label used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            Verdict::Move => "move",
            Verdict::Hold => "hold",
        }
    }
}

/// Output of the pure decision rule [`decide_raw`].
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Move or hold.
    pub verdict: Verdict,
    /// `X + nested_X + W·(1 − move_factor)`, nanoseconds (negative
    /// when moving would slow the class down).
    pub predicted_savings_ns: f64,
    /// Predicted savings over the class's total boundary-attributed
    /// time `X + nested_X + W` (0 when that total is 0).
    pub savings_frac: f64,
    /// `calls / (calls + confidence_halfway)` — how much evidence the
    /// trace holds for this class.
    pub confidence: f64,
    /// Why the verdict came out this way.
    pub rationale: &'static str,
}

/// The pure decision rule over already-priced aggregates.
///
/// `crossing_ns` is `X + nested_X` ([`ClassCosts::crossing_overhead_ns`]),
/// `exec_ns` is `W`, `move_factor` is [`ClassCosts::move_factor`].
/// Every threshold in `cfg` is relative, so scaling `crossing_ns` and
/// `exec_ns` by a common positive factor leaves the verdict unchanged.
///
/// ```
/// use montsalvat_core::analysis::advisor::{decide_raw, AdvisorConfig, Verdict};
///
/// let cfg = AdvisorConfig::default();
/// // Crossing-dominated: 44 µs of overhead per call, trivial work.
/// let d = decide_raw(64.0 * 44_000.0, 64.0 * 500.0, 64, 1.0 / 1.8, false, &cfg);
/// assert_eq!(d.verdict, Verdict::Move);
/// // Two samples are not evidence.
/// let d = decide_raw(2.0 * 44_000.0, 0.0, 2, 1.0 / 1.8, false, &cfg);
/// assert_eq!(d.verdict, Verdict::Hold);
/// assert_eq!(d.rationale, "insufficient samples");
/// ```
pub fn decide_raw(
    crossing_ns: f64,
    exec_ns: f64,
    calls: u64,
    move_factor: f64,
    pinned: bool,
    cfg: &AdvisorConfig,
) -> Decision {
    let predicted = crossing_ns + exec_ns * (1.0 - move_factor);
    let total = crossing_ns + exec_ns;
    let savings_frac = if total > 0.0 { predicted / total } else { 0.0 };
    let confidence = calls as f64 / (calls + cfg.confidence_halfway) as f64;
    let hold = |rationale| Decision {
        verdict: Verdict::Hold,
        predicted_savings_ns: predicted,
        savings_frac,
        confidence,
        rationale,
    };
    if pinned {
        return hold("pinned: security placement overrides the cost model");
    }
    if calls < cfg.min_samples {
        return hold("insufficient samples");
    }
    if confidence < cfg.min_confidence {
        return hold("low confidence");
    }
    if predicted <= 0.0 {
        return hold("predicted loss: the move would slow in-world execution more than it saves");
    }
    if savings_frac < cfg.min_savings_frac {
        return hold("below savings threshold");
    }
    Decision {
        verdict: Verdict::Move,
        predicted_savings_ns: predicted,
        savings_frac,
        confidence,
        rationale: "crossing overhead outweighs the re-homed execution cost",
    }
}

/// Program-level metadata that refines a recommendation (built by
/// [`class_meta`] from the pre-transform class definitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMeta {
    /// The declared annotation.
    pub declared: Trust,
    /// No fields and no constructor: the class can be `@Neutral`
    /// (copied into both images, every call local) instead of merely
    /// swapping sides.
    pub stateless: bool,
}

/// Extracts [`ClassMeta`] from pre-transform class definitions
/// (generated proxies are skipped).
pub fn class_meta(classes: &[ClassDef]) -> BTreeMap<String, ClassMeta> {
    classes
        .iter()
        .filter(|c| c.role == ClassRole::Concrete)
        .map(|c| {
            let stateless = c.fields.is_empty() && c.find_method(CTOR).is_none();
            (c.name.clone(), ClassMeta { declared: c.trust, stateless })
        })
        .collect()
}

/// One ranked entry of an [`AdvicePlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Class name.
    pub class: String,
    /// Current annotation (declared, or inferred from the trace).
    pub current: Trust,
    /// Suggested annotation (`current` again on a hold).
    pub suggested: Trust,
    /// Move or hold.
    pub verdict: Verdict,
    /// Traced crossings backing this recommendation.
    pub calls: u64,
    /// `X + nested_X`, rounded to whole nanoseconds.
    pub crossing_overhead_ns: u64,
    /// `W`, the in-world execution time that would move.
    pub exec_ns: u64,
    /// Predicted model-time saving of the move (negative = loss).
    pub predicted_savings_ns: i64,
    /// Savings as a fraction of boundary-attributed time.
    pub savings_frac: f64,
    /// Sample-count confidence, `calls / (calls + halfway)`.
    pub confidence: f64,
    /// Why.
    pub rationale: String,
}

/// Applies the decision rule to one class's extracted costs.
///
/// With `meta`, the declared annotation is used as `current`, and
/// stateless classes are promoted to an `@Neutral` suggestion (both
/// images get a copy; every call becomes local) instead of a plain
/// side swap.
pub fn decide(
    costs: &ClassCosts,
    params: &CostParams,
    cfg: &AdvisorConfig,
    meta: Option<&ClassMeta>,
) -> Recommendation {
    let current = meta.map(|m| m.declared).unwrap_or(match costs.home {
        Side::Trusted => Trust::Trusted,
        Side::Untrusted => Trust::Untrusted,
    });
    let crossing_ns = costs.crossing_overhead_ns(params);
    let decision = decide_raw(
        crossing_ns,
        costs.exec_ns as f64,
        costs.calls,
        costs.move_factor(params),
        cfg.pinned.contains(&costs.class),
        cfg,
    );
    let suggested = match decision.verdict {
        Verdict::Hold => current,
        Verdict::Move => {
            if meta.is_some_and(|m| m.stateless) {
                Trust::Neutral
            } else {
                match costs.home {
                    Side::Trusted => Trust::Untrusted,
                    Side::Untrusted => Trust::Trusted,
                }
            }
        }
    };
    Recommendation {
        class: costs.class.clone(),
        current,
        suggested,
        verdict: decision.verdict,
        calls: costs.calls,
        crossing_overhead_ns: crossing_ns.round() as u64,
        exec_ns: costs.exec_ns,
        predicted_savings_ns: decision.predicted_savings_ns.round() as i64,
        savings_frac: decision.savings_frac,
        confidence: decision.confidence,
        rationale: decision.rationale.to_owned(),
    }
}

/// A ranked re-annotation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvicePlan {
    /// Recommendations, moves first, by predicted savings descending.
    pub recommendations: Vec<Recommendation>,
    /// Sum of predicted savings over [`Verdict::Move`] entries.
    pub total_predicted_savings_ns: i64,
    /// Crossings observed in the trace (rmi spans).
    pub rmi_spans: u64,
    /// Telemetry's `rmi.calls`, when the capture carried it in
    /// `otherData` — reconciles trace coverage against telemetry.
    pub rmi_calls: Option<u64>,
    /// Events the capture dropped (full ring): sample counts are a
    /// lower bound when nonzero.
    pub dropped: u64,
    /// The tolerance band (from [`AdvisorConfig::tolerance`]) that
    /// verification of this plan should be held to.
    pub tolerance: f64,
}

impl AdvicePlan {
    /// The recommendations with a [`Verdict::Move`].
    pub fn moves(&self) -> impl Iterator<Item = &Recommendation> {
        self.recommendations.iter().filter(|r| r.verdict == Verdict::Move)
    }

    /// Renders the plan as an aligned text table with a summary line.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== partition advice ({} crossings traced{}{}) ==",
            self.rmi_spans,
            match self.rmi_calls {
                Some(n) => format!(", telemetry rmi.calls = {n}"),
                None => String::new(),
            },
            if self.dropped > 0 {
                format!(", {} events dropped", self.dropped)
            } else {
                String::new()
            },
        );
        let _ = writeln!(
            out,
            "{:<14} {:>10} -> {:<10} {:>5} {:>6} {:>12} {:>12} {:>12} {:>6} {:>6}  rationale",
            "class",
            "current",
            "suggested",
            "move?",
            "calls",
            "crossing µs",
            "exec µs",
            "saving µs",
            "frac",
            "conf"
        );
        for r in &self.recommendations {
            let _ = writeln!(
                out,
                "{:<14} {:>10} -> {:<10} {:>5} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>6.2} {:>6.2}  {}",
                r.class,
                r.current.annotation_name(),
                r.suggested.annotation_name(),
                r.verdict.label(),
                r.calls,
                r.crossing_overhead_ns as f64 / 1000.0,
                r.exec_ns as f64 / 1000.0,
                r.predicted_savings_ns as f64 / 1000.0,
                r.savings_frac,
                r.confidence,
                r.rationale
            );
        }
        let _ = writeln!(
            out,
            "total predicted saving of suggested moves: {:.1} µs (verify within ±{:.0}%)",
            self.total_predicted_savings_ns as f64 / 1000.0,
            self.tolerance * 100.0
        );
        out
    }

    /// Serialises the plan as versioned JSON (schema
    /// [`ADVICE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.recommendations.len() * 256);
        out.push_str("{\n");
        out.push_str(&format!("\"schema\": \"{ADVICE_SCHEMA}\",\n"));
        out.push_str(&format!(
            "\"total_predicted_savings_ns\": {},\n\"rmi_spans\": {},\n",
            self.total_predicted_savings_ns, self.rmi_spans
        ));
        if let Some(calls) = self.rmi_calls {
            out.push_str(&format!("\"rmi_calls\": {calls},\n"));
        }
        out.push_str(&format!(
            "\"dropped\": {},\n\"tolerance\": {},\n\"recommendations\": [\n",
            self.dropped, self.tolerance
        ));
        for (i, r) in self.recommendations.iter().enumerate() {
            let comma = if i + 1 == self.recommendations.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"class\": \"{}\", \"current\": \"{}\", \"suggested\": \"{}\", \
                 \"verdict\": \"{}\", \"calls\": {}, \"crossing_overhead_ns\": {}, \
                 \"exec_ns\": {}, \"predicted_savings_ns\": {}, \"savings_frac\": {:.4}, \
                 \"confidence\": {:.4}, \"rationale\": \"{}\"}}{comma}\n",
                r.class,
                r.current.annotation_name(),
                r.suggested.annotation_name(),
                r.verdict.label(),
                r.calls,
                r.crossing_overhead_ns,
                r.exec_ns,
                r.predicted_savings_ns,
                r.savings_frac,
                r.confidence,
                r.rationale
            ));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Identifier of the JSON document written by [`AdvicePlan::to_json`]
/// and `montsalvat advise --json`. Same versioning contract as the
/// telemetry schema: field additions keep the version, renames bump it.
pub const ADVICE_SCHEMA: &str = "montsalvat.advice/v1";

// ---------------------------------------------------------------------------
// Trace extraction
// ---------------------------------------------------------------------------

/// One reconstructed span.
struct Span {
    cat: String,
    name: String,
    pid: u64,
    parent: u64,
    begin_ns: u64,
    end_ns: u64,
    children: Vec<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Per-crossing-region components, before pricing.
#[derive(Default, Clone, Copy)]
struct Region {
    classic: u64,
    switchless: u64,
    shim: u64,
    payload_bytes: u64,
    serde_ns: u64,
    queue_ns: u64,
    exec_ns: u64,
}

impl Region {
    /// The priced overhead `X` of this single crossing.
    fn overhead_ns(&self, params: &CostParams) -> f64 {
        let transition = params.transition_ns() as f64;
        self.classic as f64 * (transition + params.relay_overhead_ns as f64)
            + self.switchless as f64 * params.switchless_call_ns as f64
            + self.shim as f64 * transition
            + self.payload_bytes as f64 * params.copy_ns_per_byte
            + self.serde_ns as f64
            + self.queue_ns as f64
    }
}

fn payload_bytes(name: &str) -> u64 {
    name.rsplit_once("b=").and_then(|(_, n)| n.trim().parse().ok()).unwrap_or(0)
}

/// Computes per-class boundary costs from a parsed trace.
///
/// `params` prices the transition terms and the overhead of nested
/// crossings; the serde, queue and exec terms are read off the trace's
/// model-time spans directly.
pub fn extract_class_costs(trace: &ParsedTrace, params: &CostParams) -> Vec<ClassCosts> {
    // Reconstruct the span forest from begin/end events.
    let mut spans: Vec<Span> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    for ev in &trace.events {
        match ev.ph {
            'B' => {
                by_id.insert(ev.span, spans.len());
                spans.push(Span {
                    cat: ev.cat.clone(),
                    name: ev.name.clone(),
                    pid: ev.pid,
                    parent: ev.parent,
                    begin_ns: ev.model_ns,
                    end_ns: ev.model_ns,
                    children: Vec::new(),
                });
            }
            'E' => {
                if let Some(&i) = by_id.get(&ev.span) {
                    spans[i].end_ns = spans[i].end_ns.max(ev.model_ns);
                }
            }
            _ => {}
        }
    }
    for i in 0..spans.len() {
        let parent = spans[i].parent;
        if parent != 0 {
            if let Some(&p) = by_id.get(&parent) {
                spans[p].children.push(i);
            }
        }
    }

    // Walk each rmi span's region: the subtree up to (exclusive of)
    // nested rmi spans. Exclusive time strips child durations so the
    // wrapping "sgx"/"exec" spans don't double-count their contents.
    let exclusive = |i: usize| -> u64 {
        let kids: u64 = spans[i].children.iter().map(|&k| spans[k].dur_ns()).sum();
        spans[i].dur_ns().saturating_sub(kids)
    };
    let rmi_spans: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].cat == "rmi").collect();
    let mut regions: HashMap<usize, (Region, Vec<usize>)> = HashMap::new();
    for &r in &rmi_spans {
        let mut region = Region::default();
        let mut nested = Vec::new();
        let mut stack = spans[r].children.clone();
        while let Some(i) = stack.pop() {
            match spans[i].cat.as_str() {
                "rmi" => {
                    nested.push(i);
                    continue; // the nested crossing owns its subtree
                }
                "serde" => {
                    region.serde_ns += spans[i].dur_ns();
                    region.payload_bytes += payload_bytes(&spans[i].name);
                }
                "queue" if !spans[i].name.starts_with("tune:") => {
                    region.queue_ns += spans[i].dur_ns();
                }
                "exec" | "gc" => region.exec_ns += exclusive(i),
                "sgx" => region.classic += 1,
                "shim" => region.shim += 1,
                _ => {}
            }
            stack.extend(spans[i].children.iter().copied());
        }
        if region.classic == 0 {
            region.switchless = 1;
        }
        regions.insert(r, (region, nested));
    }

    // Aggregate per class; the nested term prices first-level nested
    // crossings with the same params the caller will decide with.
    let mut by_class: BTreeMap<String, ClassCosts> = BTreeMap::new();
    for &r in &rmi_spans {
        let (region, nested) = &regions[&r];
        let class = spans[r].name.split('.').next().unwrap_or("").to_owned();
        if class.is_empty() {
            continue;
        }
        // The rmi span lives on the caller's lane; its target class
        // lives on the opposite side.
        let home = if spans[r].pid == telemetry::trace::Lane::Untrusted.pid() {
            Side::Trusted
        } else {
            Side::Untrusted
        };
        let nested_x: f64 = nested
            .iter()
            .filter_map(|n| regions.get(n))
            .map(|(reg, _)| reg.overhead_ns(params))
            .sum();
        let entry = by_class.entry(class.clone()).or_insert_with(|| ClassCosts {
            class,
            home,
            calls: 0,
            classic_crossings: 0,
            switchless_crossings: 0,
            shim_relays: 0,
            payload_bytes: 0,
            serde_ns: 0,
            queue_ns: 0,
            exec_ns: 0,
            nested_crossing_ns: 0,
        });
        entry.calls += 1;
        entry.classic_crossings += region.classic;
        entry.switchless_crossings += region.switchless;
        entry.shim_relays += region.shim;
        entry.payload_bytes += region.payload_bytes;
        entry.serde_ns += region.serde_ns;
        entry.queue_ns += region.queue_ns;
        entry.exec_ns += region.exec_ns;
        entry.nested_crossing_ns += nested_x.round() as u64;
    }
    by_class.into_values().collect()
}

/// Runs the advisor over a parsed trace without program metadata: the
/// current annotations are inferred from caller lanes, and suggestions
/// are plain side swaps (no `@Neutral` promotion).
pub fn advise(trace: &ParsedTrace, params: &CostParams, cfg: &AdvisorConfig) -> AdvicePlan {
    advise_inner(trace, params, cfg, &BTreeMap::new())
}

/// Runs the advisor with the program's pre-transform class definitions:
/// declared annotations are cross-checked, and stateless classes are
/// promoted to `@Neutral` suggestions. See [`advise`].
pub fn advise_with_classes(
    trace: &ParsedTrace,
    params: &CostParams,
    cfg: &AdvisorConfig,
    classes: &[ClassDef],
) -> AdvicePlan {
    advise_inner(trace, params, cfg, &class_meta(classes))
}

fn advise_inner(
    trace: &ParsedTrace,
    params: &CostParams,
    cfg: &AdvisorConfig,
    meta: &BTreeMap<String, ClassMeta>,
) -> AdvicePlan {
    let costs = extract_class_costs(trace, params);
    let mut recommendations: Vec<Recommendation> =
        costs.iter().map(|c| decide(c, params, cfg, meta.get(&c.class))).collect();
    recommendations.sort_by(|a, b| {
        let rank = |r: &Recommendation| match r.verdict {
            Verdict::Move => 0,
            Verdict::Hold => 1,
        };
        rank(a)
            .cmp(&rank(b))
            .then(b.predicted_savings_ns.cmp(&a.predicted_savings_ns))
            .then(a.class.cmp(&b.class))
    });
    let total_predicted_savings_ns = recommendations
        .iter()
        .filter(|r| r.verdict == Verdict::Move)
        .map(|r| r.predicted_savings_ns)
        .sum();
    AdvicePlan {
        recommendations,
        total_predicted_savings_ns,
        rmi_spans: costs.iter().map(|c| c.calls).sum(),
        rmi_calls: trace.other("rmi_calls"),
        dropped: trace.other("dropped").unwrap_or(0),
        tolerance: cfg.tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::paper_defaults()
    }

    fn costs(class: &str, home: Side, calls: u64, exec_ns: u64) -> ClassCosts {
        ClassCosts {
            class: class.into(),
            home,
            calls,
            classic_crossings: calls,
            switchless_crossings: 0,
            shim_relays: 0,
            payload_bytes: 128 * calls,
            serde_ns: 1_000 * calls,
            queue_ns: 0,
            exec_ns,
            nested_crossing_ns: 0,
        }
    }

    /// The table the decision rule is specified by (docs/PARTITIONING.md).
    #[test]
    fn decision_rule_table() {
        let p = params();
        let cfg = AdvisorConfig::default();
        struct Case {
            name: &'static str,
            costs: ClassCosts,
            pinned: bool,
            verdict: Verdict,
            rationale: &'static str,
        }
        let cases = [
            Case {
                name: "clear win: crossing-dominated trusted class",
                costs: costs("Store", Side::Trusted, 64, 64 * 500),
                pinned: false,
                verdict: Verdict::Move,
                rationale: "crossing overhead outweighs the re-homed execution cost",
            },
            Case {
                name: "clear loss: compute-heavy untrusted class pulled into the enclave",
                costs: costs("Ledger", Side::Untrusted, 64, 64 * 500_000),
                pinned: false,
                verdict: Verdict::Hold,
                rationale:
                    "predicted loss: the move would slow in-world execution more than it saves",
            },
            Case {
                name: "insufficient samples",
                costs: costs("Config", Side::Trusted, 2, 0),
                pinned: false,
                verdict: Verdict::Hold,
                rationale: "insufficient samples",
            },
            Case {
                name: "pinned stays put regardless of savings",
                costs: costs("Keys", Side::Trusted, 64, 0),
                pinned: true,
                verdict: Verdict::Hold,
                rationale: "pinned: security placement overrides the cost model",
            },
        ];
        for case in cases {
            let mut cfg = cfg.clone();
            if case.pinned {
                cfg.pinned.insert(case.costs.class.clone());
            }
            let rec = decide(&case.costs, &p, &cfg, None);
            assert_eq!(rec.verdict, case.verdict, "{}", case.name);
            assert_eq!(rec.rationale, case.rationale, "{}", case.name);
        }
    }

    #[test]
    fn savings_threshold_holds_marginal_moves() {
        let p = params();
        let cfg = AdvisorConfig { min_savings_frac: 0.5, ..Default::default() };
        // Compute-heavy trusted class: moving out still saves (W/1.8),
        // but the fraction is far below 50%.
        let c = costs("Engine", Side::Trusted, 64, 64 * 10_000_000);
        let rec = decide(&c, &p, &cfg, None);
        assert_eq!(rec.verdict, Verdict::Hold);
        assert_eq!(rec.rationale, "below savings threshold");
        assert!(rec.predicted_savings_ns > 0, "savings are positive, just relatively small");
    }

    #[test]
    fn stateless_classes_are_promoted_to_neutral() {
        let p = params();
        let cfg = AdvisorConfig::default();
        let c = costs("Fmt", Side::Trusted, 64, 0);
        let meta = ClassMeta { declared: Trust::Trusted, stateless: true };
        let rec = decide(&c, &p, &cfg, Some(&meta));
        assert_eq!(rec.verdict, Verdict::Move);
        assert_eq!(rec.suggested, Trust::Neutral);
        let stateful = ClassMeta { declared: Trust::Trusted, stateless: false };
        let rec = decide(&c, &p, &cfg, Some(&stateful));
        assert_eq!(rec.suggested, Trust::Untrusted);
    }

    #[test]
    fn nested_crossings_count_toward_the_move() {
        let p = params();
        let cfg = AdvisorConfig::default();
        let mut c = costs("Gateway", Side::Trusted, 64, 0);
        let without = decide(&c, &p, &cfg, None).predicted_savings_ns;
        c.nested_crossing_ns = 64 * 44_000;
        let with = decide(&c, &p, &cfg, None).predicted_savings_ns;
        assert_eq!(with - without, 64 * 44_000);
    }

    #[test]
    fn extraction_attributes_regions_and_nested_crossings() {
        use telemetry::trace::{parse_chrome_trace, Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(256);
        // Untrusted main calls trusted Gateway; Gateway's serve calls
        // untrusted Ledger (a nested crossing back out).
        let call = tracer
            .start(Lane::Untrusted, "rmi", None, 0, || "Gateway.relay$handle".into())
            .unwrap();
        let ctx = call.context();
        tracer.span_at(Lane::Untrusted, "serde", Some(ctx), 0, 2_000, 0, || {
            "marshal:fast b=64".into()
        });
        let ecall =
            tracer.start(Lane::Trusted, "sgx", Some(ctx), 2_000, || "ecall:relay".into()).unwrap();
        let serve = tracer
            .start(Lane::Trusted, "exec", Some(ecall.context()), 3_000, || {
                "serve:Gateway.relay$handle".into()
            })
            .unwrap();
        let nested = tracer
            .start(Lane::Trusted, "rmi", Some(serve.context()), 4_000, || {
                "Ledger.relay$record".into()
            })
            .unwrap();
        tracer.span_at(Lane::Trusted, "serde", Some(nested.context()), 4_000, 4_500, 0, || {
            "marshal:fast b=32".into()
        });
        let ocall = tracer
            .start(Lane::Untrusted, "sgx", Some(nested.context()), 4_500, || "ocall:relay".into())
            .unwrap();
        tracer.span_at(Lane::Untrusted, "exec", Some(ocall.context()), 5_000, 9_000, 0, || {
            "serve:Ledger.relay$record".into()
        });
        tracer.finish(ocall, 9_500);
        tracer.finish(nested, 10_000);
        tracer.finish(serve, 12_000);
        tracer.finish(ecall, 12_500);
        tracer.finish(call, 13_000);

        let trace = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let p = params();
        let costs = extract_class_costs(&trace, &p);
        let gateway = costs.iter().find(|c| c.class == "Gateway").unwrap();
        let ledger = costs.iter().find(|c| c.class == "Ledger").unwrap();

        assert_eq!(gateway.home, Side::Trusted);
        assert_eq!(ledger.home, Side::Untrusted);
        assert_eq!((gateway.calls, ledger.calls), (1, 1));
        assert_eq!(gateway.payload_bytes, 64);
        assert_eq!(ledger.payload_bytes, 32);
        assert_eq!(gateway.serde_ns, 2_000);
        // Gateway's exec time excludes the nested Ledger crossing
        // (serve 3000..12000 minus the 4000..10000 nested rmi span).
        assert_eq!(gateway.exec_ns, 3_000);
        // Ledger's work is its own, not Gateway's.
        assert_eq!(ledger.exec_ns, 4_000);
        // Gateway's nested term prices Ledger's crossing overhead.
        let ledger_region_x = ledger.crossing_overhead_ns(&p);
        assert_eq!(gateway.nested_crossing_ns, ledger_region_x.round() as u64);
        assert!(gateway.classic_crossings == 1 && ledger.classic_crossings == 1);
    }

    #[test]
    fn plan_ranks_moves_first_and_sums_their_savings() {
        use telemetry::trace::{parse_chrome_trace, Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(4096);
        for i in 0..16u64 {
            let t0 = i * 1_000_000;
            let call = tracer
                .start(Lane::Untrusted, "rmi", None, t0, || "Store.relay$put".into())
                .unwrap();
            let ecall = tracer
                .start(Lane::Trusted, "sgx", Some(call.context()), t0, || "ecall:relay".into())
                .unwrap();
            tracer.finish(ecall, t0 + 1_000);
            tracer.finish(call, t0 + 2_000);
            // A two-sample class rides along.
            if i < 2 {
                let c2 = tracer
                    .start(Lane::Untrusted, "rmi", None, t0 + 10_000, || "Config.relay$get".into())
                    .unwrap();
                tracer.finish(c2, t0 + 11_000);
            }
        }
        let trace = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let plan = advise(&trace, &params(), &AdvisorConfig::default());
        assert_eq!(plan.recommendations.len(), 2);
        assert_eq!(plan.recommendations[0].class, "Store");
        assert_eq!(plan.recommendations[0].verdict, Verdict::Move);
        assert_eq!(plan.recommendations[1].verdict, Verdict::Hold);
        assert_eq!(plan.total_predicted_savings_ns, plan.recommendations[0].predicted_savings_ns);
        assert_eq!(plan.moves().count(), 1);
        let json = plan.to_json();
        assert!(json.contains(ADVICE_SCHEMA));
        assert!(json.contains("\"class\": \"Store\""));
        let table = plan.render_table();
        assert!(table.contains("Store") && table.contains("move"));
    }
}
