//! Figure 6: numerical analysis of the Instability Ratio.
//!
//! Panel (a): ISR as a function of the outlier period λ for outlier scales
//! s ∈ {2, 10, 20}. Panel (b): two example traces with identical value
//! distributions but an order of magnitude apart in ISR.

use meterstick::report::render_table;
use meterstick_metrics::isr::{
    analytical_isr, instability_ratio, synthetic_outlier_trace, IsrParams,
};

use crate::Cli;

pub fn run(_cli: &Cli) {
    // Panel (a): ISR vs λ for three outlier scales.
    println!("\n(a) ISR for varying outlier period λ (analytical vs trace-based):");
    let mut rows = Vec::new();
    for lambda in [2u32, 5, 10, 25, 50, 75, 100] {
        let mut row = vec![lambda.to_string()];
        for s in [2.0, 10.0, 20.0] {
            let analytical = analytical_isr(s, f64::from(lambda));
            let trace = synthetic_outlier_trace(20_000, lambda as usize, s, 50.0);
            let measured = instability_ratio(&trace, IsrParams::default());
            row.push(format!("{analytical:.3} ({measured:.3})"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "λ",
                "s=2  model (trace)",
                "s=10 model (trace)",
                "s=20 model (trace)"
            ],
            &rows
        )
    );
    println!(
        "Paper reference point: s=10, λ=25 → ISR ≈ 0.26 (here: {:.3})",
        analytical_isr(10.0, 25.0)
    );

    // Panel (b): clustered vs spread outliers.
    println!("\n(b) identical distributions, different order (1000 ticks, 5 outliers ×20):");
    let mut clustered = vec![50.0; 1000];
    for t in clustered.iter_mut().take(5) {
        *t = 1_000.0;
    }
    let mut spread = vec![50.0; 1000];
    for k in 0..5 {
        spread[k * 200 + 100] = 1_000.0;
    }
    let params = IsrParams {
        budget_ms: 50.0,
        expected_ticks: Some(1_000),
    };
    let low = instability_ratio(&clustered, params);
    let high = instability_ratio(&spread, params);
    println!("  Low-ISR trace (outliers clustered at the start): ISR = {low:.4}");
    println!("  High-ISR trace (outliers evenly spread):         ISR = {high:.4}");
    println!(
        "  ratio: {:.1}x (the paper reports an order of magnitude)",
        high / low
    );
}
