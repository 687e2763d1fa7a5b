//! Deployment-mode providers: *how the trusted world is realized*.
//!
//! The execution layer ([`crate::exec`]) is written against the
//! [`EnclaveProvider`] trait instead of calling `sgx-sim` directly, so
//! the same partitioned application can run under different trusted
//! substrates without touching app code — the seam NVIDIA's nvrc draws
//! between its platform detector and its standard/confidential
//! providers. Two providers ship today:
//!
//! - [`SimSgx`] (the default) realizes the trusted world inside the
//!   simulated enclave: every crossing is an ecall/ocall charged at the
//!   paper's transition + per-byte rates, trusted memory pays EPC/MEE
//!   costs, and trusted I/O relays through the libc shim.
//! - [`PassThrough`] runs the trusted world as plain host code:
//!   crossings execute the body directly at zero model cost and count
//!   zero transitions. It is the control arm for measuring pure
//!   app/serde/scheduler overhead — everything Montsalvat adds that is
//!   *not* SGX.
//!
//! [`crate::exec::app::AppConfig::provider`] selects one; `None` means
//! [`SimSgx`]. See `docs/DEPLOYMENT.md` for the contract.

mod pass_through;
mod sim_sgx;

pub use pass_through::PassThrough;
pub use sim_sgx::SimSgx;

use std::sync::Arc;

use sgx_sim::cost::CostModel;
use sgx_sim::enclave::Enclave;
use sgx_sim::SgxError;

/// The deployment modes a provider can realize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// Simulated SGX: crossings are charged transitions, trusted memory
    /// is EPC/MEE-priced (the default, and the paper's configuration).
    SimSgx,
    /// No enclave: crossings run the body directly at zero cost.
    PassThrough,
}

impl ProviderKind {
    /// The canonical name.
    pub const fn name(self) -> &'static str {
        match self {
            ProviderKind::SimSgx => "sim-sgx",
            ProviderKind::PassThrough => "passthrough",
        }
    }
}

impl std::fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Direction of a boundary crossing, in enclave terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingDir {
    /// Into the trusted world (an ecall under [`SimSgx`]).
    Enter,
    /// Out of the trusted world (an ocall under [`SimSgx`]).
    Exit,
}

/// How a deployment mode realizes the trusted world.
///
/// Implementations decide what a crossing costs, whether trusted
/// memory is shielded (and therefore EPC/MEE-priced), and what the
/// relay software overhead is. The execution layer routes **every**
/// boundary crossing through [`EnclaveProvider::cross_dyn`] (usually
/// via the generic [`cross`](trait.EnclaveProvider.html#method.cross)
/// convenience on `dyn EnclaveProvider`), so provider counters stay
/// ground truth the same way `sgx-sim`'s closure-based ecalls are.
pub trait EnclaveProvider: Send + Sync + std::fmt::Debug {
    /// Which deployment mode this provider realizes.
    fn kind(&self) -> ProviderKind;

    /// Whether trusted-world memory lives behind the (simulated)
    /// enclave boundary. When `false`, worlds are created with
    /// `in_enclave = false`: no EPC commits, no MEE heap charges, host
    /// I/O instead of shim relays, no serde/compute enclave factors.
    fn shields_trusted_memory(&self) -> bool;

    /// Charges the relay software overhead of one classic crossing
    /// (isolate attach, edge-routine marshalling, registry work). Free
    /// providers make this a no-op.
    fn charge_relay_overhead(&self);

    /// Performs one boundary crossing, running `body` exactly once on
    /// the far side. `routine` is the EDL edge-routine name and
    /// `bytes` the wire length of the marshalled message, both used
    /// for cost charging and telemetry only.
    ///
    /// Object safety forces the `&mut dyn FnMut()` shape; call sites
    /// should prefer the generic [`cross`] wrapper, which returns the
    /// body's value.
    ///
    /// [`cross`]: trait.EnclaveProvider.html#method.cross
    ///
    /// # Errors
    ///
    /// Propagates substrate failures (e.g. a lost enclave under
    /// [`SimSgx`] failure injection). Infallible providers never error.
    fn cross_dyn(
        &self,
        dir: CrossingDir,
        routine: &str,
        bytes: usize,
        body: &mut dyn FnMut(),
    ) -> Result<(), SgxError>;
}

impl dyn EnclaveProvider {
    /// Performs one boundary crossing and returns the body's value —
    /// the typed convenience over [`EnclaveProvider::cross_dyn`].
    ///
    /// # Errors
    ///
    /// Propagates substrate failures from the provider.
    pub fn cross<R>(
        &self,
        dir: CrossingDir,
        routine: &str,
        bytes: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        let mut f = Some(f);
        let mut out = None;
        self.cross_dyn(dir, routine, bytes, &mut || {
            out = Some((f.take().expect("crossing body runs exactly once"))());
        })?;
        Ok(out.expect("provider ran the crossing body"))
    }
}

/// Instantiates the provider for `kind` over an application's enclave
/// and cost model. [`PassThrough`] ignores both (its crossings touch
/// neither), but takes the same signature so launch sites stay uniform.
pub fn build(
    kind: ProviderKind,
    enclave: &Arc<Enclave>,
    cost: &Arc<CostModel>,
) -> Arc<dyn EnclaveProvider> {
    match kind {
        ProviderKind::SimSgx => Arc::new(SimSgx::new(Arc::clone(enclave), Arc::clone(cost))),
        ProviderKind::PassThrough => Arc::new(PassThrough::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::cost::{ClockMode, CostParams};
    use sgx_sim::enclave::EnclaveConfig;

    fn harness() -> (Arc<Enclave>, Arc<CostModel>) {
        let cost = Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual));
        let enclave =
            Enclave::create(&EnclaveConfig::default(), b"provider-test", Arc::clone(&cost))
                .expect("enclave creation");
        (enclave, cost)
    }

    #[test]
    fn sim_sgx_charges_and_counts_transitions() {
        let (enclave, cost) = harness();
        let provider = build(ProviderKind::SimSgx, &enclave, &cost);
        let before = cost.charged();
        let value = provider.cross(CrossingDir::Enter, "ecall_test", 64, || 41 + 1).unwrap();
        assert_eq!(value, 42);
        assert_eq!(enclave.stats().ecalls, 1);
        assert!(cost.charged() > before, "SimSgx crossings must charge model time");
        provider.charge_relay_overhead();
        assert!(provider.shields_trusted_memory());
    }

    #[test]
    fn pass_through_is_free_and_transitionless() {
        let (enclave, cost) = harness();
        let provider = build(ProviderKind::PassThrough, &enclave, &cost);
        let before = cost.charged();
        let value = provider.cross(CrossingDir::Enter, "ecall_test", 64, || 7).unwrap();
        let back = provider.cross(CrossingDir::Exit, "ocall_test", 64, || 8).unwrap();
        provider.charge_relay_overhead();
        assert_eq!((value, back), (7, 8));
        assert_eq!(enclave.stats().ecalls, 0);
        assert_eq!(enclave.stats().ocalls, 0);
        assert_eq!(cost.charged(), before, "PassThrough crossings are zero-cost");
        assert!(!provider.shields_trusted_memory());
    }

    #[test]
    fn cross_propagates_the_exit_direction() {
        let (enclave, cost) = harness();
        let provider = build(ProviderKind::SimSgx, &enclave, &cost);
        provider.cross(CrossingDir::Exit, "ocall_test", 16, || ()).unwrap();
        assert_eq!(enclave.stats().ocalls, 1);
        assert_eq!(enclave.stats().ecalls, 0);
    }
}
