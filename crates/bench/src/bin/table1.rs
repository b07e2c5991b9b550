//! Reproduces Table 1 of the paper: power saving for every benchmark image
//! at distortion budgets of 5 %, 10 % and 20 %, plus the suite average and
//! the paper's published numbers for side-by-side comparison.
//!
//! ```text
//! cargo run --release -p hebs-bench --bin table1
//! ```

use hebs_bench::{
    run_table1, table::percent, TextTable, PAPER_TABLE1, PAPER_TABLE1_AVERAGE, TABLE1_BUDGETS,
};
use hebs_core::PipelineConfig;
use hebs_imaging::SipiSuite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(SipiSuite::STANDARD_SIZE);
    eprintln!("generating the 19-image benchmark suite at {size}x{size} ...");
    let suite = SipiSuite::with_size(size);

    eprintln!("running closed-loop HEBS at budgets 5% / 10% / 20% ...");
    let report = run_table1(&suite, &TABLE1_BUDGETS, PipelineConfig::default())?;

    let mut table = TextTable::new([
        "image",
        "5% (ours)",
        "5% (paper)",
        "10% (ours)",
        "10% (paper)",
        "20% (ours)",
        "20% (paper)",
    ]);
    for (row, (paper_name, paper_row)) in report.rows.iter().zip(PAPER_TABLE1.iter()) {
        debug_assert_eq!(&row.image, paper_name);
        table.push_row([
            row.image.clone(),
            percent(row.savings[0]),
            format!("{:.2}", paper_row[0]),
            percent(row.savings[1]),
            format!("{:.2}", paper_row[1]),
            percent(row.savings[2]),
            format!("{:.2}", paper_row[2]),
        ]);
    }
    let averages = report.average_savings();
    table.push_row([
        "Average".to_string(),
        percent(averages[0]),
        format!("{:.2}", PAPER_TABLE1_AVERAGE[0]),
        percent(averages[1]),
        format!("{:.2}", PAPER_TABLE1_AVERAGE[1]),
        percent(averages[2]),
        format!("{:.2}", PAPER_TABLE1_AVERAGE[2]),
    ]);

    println!("Table 1 — power saving (%) per image and distortion budget");
    println!("{table}");
    println!("Notes: 'ours' runs on the synthetic SIPI stand-ins (README, 'Reproducing the");
    println!("paper'); absolute values need not match the paper, but savings must grow with");
    println!("the budget and the averages should land in the same decade band as the paper's");
    println!("45.9/56.2/64.4 %.");
    Ok(())
}
