//! Shared infrastructure for the HEBS benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary under `src/bin/` (the README's *Reproducing the paper* section is
//! the experiment index); this library hosts the pieces they share: the
//! benchmark suite wrapper, the experiment runners, the paper's reference
//! numbers and a small text-table formatter so all harnesses print in the
//! same style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod loadgen;
pub mod regression;
pub mod table;

pub use experiments::{
    characterize_workload, run_baseline_comparison, run_characterization, run_figure8,
    run_fit_scaling, run_frame_scaling, run_mixed_suite, run_runtime_throughput, run_table1,
    run_warm_start, verify_cache_invariants, warm_start_engine, BaselineComparison, Figure8Row,
    FitScalingRow, FrameScalingRow, MixedSuiteReport, RuntimeThroughputRow, Table1Report,
    Table1Row, WarmStartNode, WarmStartReport, FRAME_SCALING_SIZES,
};
pub use json::{
    fit_scaling_json, frame_scaling_json, multi_tenant_json, runtime_throughput_json,
    warm_start_json,
};
pub use loadgen::{
    bursty_scenario, diurnal_scenario, run_overload_isolation, run_scenario, CountExpectation,
    IsolationReport, LoadScenario, ScenarioReport, TenantLoad, TenantLoadReport,
};
pub use regression::{
    check_fit_scaling, check_frame_scaling, check_multi_tenant, check_throughput, check_warm_start,
    CheckConfig, CheckReport, JsonValue,
};
pub use table::TextTable;

/// The per-image power savings (%) the paper reports in Table 1, in suite
/// order, for distortion budgets of 5 %, 10 % and 20 %.
pub const PAPER_TABLE1: [(&str, [f64; 3]); 19] = [
    ("Lena", [47.53, 58.18, 69.52]),
    ("Autumn", [45.56, 59.20, 71.53]),
    ("football", [46.62, 55.25, 65.57]),
    ("Peppers", [44.60, 54.24, 66.55]),
    ("Greens", [45.63, 55.26, 63.58]),
    ("Pears", [47.51, 57.16, 64.49]),
    ("Onion", [44.56, 58.21, 70.53]),
    ("Trees", [46.69, 54.31, 64.62]),
    ("West", [48.52, 61.18, 67.50]),
    ("Pout", [42.57, 53.22, 59.54]),
    ("Sail", [42.53, 49.18, 56.51]),
    ("Splash", [46.55, 57.20, 63.53]),
    ("Girl", [46.55, 55.20, 62.52]),
    ("Baboon", [49.52, 56.10, 62.51]),
    ("TreeA", [41.53, 50.18, 59.52]),
    ("HouseA", [45.49, 58.15, 63.48]),
    ("GirlB", [45.65, 61.28, 62.59]),
    ("Testpat", [47.53, 58.22, 63.54]),
    ("Elaine", [46.53, 55.18, 65.50]),
];

/// The average power savings (%) the paper reports for the three distortion
/// budgets of Table 1.
pub const PAPER_TABLE1_AVERAGE: [f64; 3] = [45.88, 56.16, 64.38];

/// The distortion budgets used by Table 1, as fractions.
pub const TABLE1_BUDGETS: [f64; 3] = [0.05, 0.10, 0.20];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_is_complete() {
        assert_eq!(PAPER_TABLE1.len(), 19);
        // The published per-image savings should average to the published
        // averages (within rounding of the paper's table).
        for budget in 0..3 {
            let mean: f64 = PAPER_TABLE1.iter().map(|(_, row)| row[budget]).sum::<f64>() / 19.0;
            assert!(
                (mean - PAPER_TABLE1_AVERAGE[budget]).abs() < 0.25,
                "budget {budget}: recomputed {mean} vs published {}",
                PAPER_TABLE1_AVERAGE[budget]
            );
        }
    }

    #[test]
    fn budgets_are_increasing_fractions() {
        assert!(TABLE1_BUDGETS.windows(2).all(|w| w[0] < w[1]));
        assert!(TABLE1_BUDGETS.iter().all(|b| (0.0..=1.0).contains(b)));
    }
}
