//! Provider equivalence: the deployment-mode provider layer must not
//! change *what* an application computes, only what its crossings cost.
//!
//! Runs the kvstore traffic workload under `SimSgx` and `PassThrough`
//! and asserts identical results (checksums, hit/miss/put counts) with
//! strictly lower model time and zero enclave transitions for the
//! pass-through lane.

use experiments::traffic::{lanes, run_lane, TrafficConfig};
use montsalvat::core::provider::ProviderKind;

fn tiny() -> TrafficConfig {
    TrafficConfig { requests: 160, key_space: 96, ..TrafficConfig::quick() }
}

#[test]
fn kvstore_workload_is_identical_across_providers() {
    let all = lanes();
    let sgx_lane = all[0];
    let pt_lane = all[2];
    assert_eq!(sgx_lane.provider, ProviderKind::SimSgx);
    assert_eq!(pt_lane.provider, ProviderKind::PassThrough);

    let cfg = tiny();
    let sgx = run_lane(sgx_lane, &cfg).expect("sim-sgx lane");
    let pt = run_lane(pt_lane, &cfg).expect("passthrough lane");

    // Same computation: every response byte matches.
    assert_eq!(sgx.checksum, pt.checksum, "providers must return identical responses");
    assert_eq!(
        (sgx.hits, sgx.misses, sgx.puts),
        (pt.hits, pt.misses, pt.puts),
        "hit/miss/put accounting must match across providers"
    );

    // Different cost: pass-through pays no crossings at all.
    assert_eq!(pt.transitions(), 0, "pass-through performs zero enclave transitions");
    assert!(sgx.transitions() > 0, "sim-sgx crosses for every relayed call");
    assert!(
        pt.model_time_ns < sgx.model_time_ns,
        "pass-through model time ({}) must be strictly below sim-sgx ({})",
        pt.model_time_ns,
        sgx.model_time_ns
    );
}
