//! Figure 3: performance of proxy vs concrete object creation (§6.2).

use experiments::report::{print_figure, print_params, trace_out_from_args, Gate, Scale};
use sgx_sim::cost::CostParams;

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    print_params(&CostParams::paper_defaults());
    let series = experiments::micro::fig3(scale);
    print_figure("Figure 3: proxy vs concrete object creation (s)", "# objects", &series);
    let ratio_out = experiments::report::mean_ratio(&series[0], &series[2]);
    let ratio_in = experiments::report::mean_ratio(&series[1], &series[3]);
    println!("\nproxy-out→in / concrete-out: {ratio_out:.0}x (paper: ~4 orders of magnitude)");
    println!("proxy-in→out / concrete-in: {ratio_in:.0}x (paper: ~3 orders of magnitude)");
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();
    if trace_out_from_args().is_some() {
        let mut gate = Gate::new("fig3", scale);
        gate.check_trace_export();
        gate.finish();
    }
}
