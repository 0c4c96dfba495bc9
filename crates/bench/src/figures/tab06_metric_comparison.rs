//! Table 6: comparison of ISR with existing variability metrics.
//!
//! Shows the property matrix (order dependence, irregular sampling,
//! normalization) and demonstrates the properties numerically on two traces
//! with identical value distributions but different orderings.

use meterstick::report::render_table;
use meterstick_metrics::compare::{allan_variance, rfc3550_jitter, std_dev, table6};
use meterstick_metrics::isr::{instability_ratio, IsrParams};

use crate::Cli;

pub fn run(_cli: &Cli) {
    println!("\nProperty matrix:");
    let rows: Vec<Vec<String>> = table6()
        .iter()
        .map(|m| {
            let tick = |b: bool| if b { "yes" } else { "no" }.to_string();
            vec![
                m.name.to_string(),
                tick(m.order_dependent),
                tick(m.irregular_sampling),
                tick(m.normalized),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "metric",
                "order dependent",
                "irregular sampling",
                "normalized"
            ],
            &rows
        )
    );

    // Numerical demonstration on clustered vs spread outliers.
    let mut clustered = vec![50.0_f64; 1_000];
    for t in clustered.iter_mut().take(10) {
        *t = 800.0;
    }
    let mut spread = vec![50.0_f64; 1_000];
    for k in 0..10 {
        spread[k * 100 + 50] = 800.0;
    }
    let params = IsrParams::default();
    println!("Numerical demonstration (1000 ticks, 10 outliers of 800 ms):");
    let rows = vec![
        vec![
            "clustered outliers".to_string(),
            format!("{:.1}", std_dev(&clustered)),
            format!("{:.1}", allan_variance(&clustered)),
            format!("{:.2}", rfc3550_jitter(&clustered)),
            format!("{:.4}", instability_ratio(&clustered, params)),
        ],
        vec![
            "spread outliers".to_string(),
            format!("{:.1}", std_dev(&spread)),
            format!("{:.1}", allan_variance(&spread)),
            format!("{:.2}", rfc3550_jitter(&spread)),
            format!("{:.4}", instability_ratio(&spread, params)),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["trace", "std dev", "Allan var", "RFC3550 jitter", "ISR"],
            &rows
        )
    );
    println!("Standard deviation cannot tell the two traces apart; the order-dependent");
    println!("metrics can, and only ISR stays on a normalized 0..1 scale.");
}
