//! Ablation study over the pipeline's design choices (indexed in the
//! README's *Reproducing the paper* section):
//!
//! * number of piecewise-linear segments handed to the reference driver,
//! * pure GHE (the paper's transform) versus the adaptive equalization /
//!   linear-compression blend,
//! * distortion measured with and without the HVS pre-filter.
//!
//! ```text
//! cargo run --release -p hebs-bench --bin ablation
//! ```

use hebs_bench::TextTable;
use hebs_core::{BacklightPolicy, BlendMode, HebsPolicy, PipelineConfig};
use hebs_display::plrd::HierarchicalPlrd;
use hebs_imaging::{SipiImage, SipiSuite};
use hebs_quality::{HebsDistortion, SharedMeasure};

fn mean_saving(
    config: PipelineConfig,
    images: &[(SipiImage, &hebs_imaging::GrayImage)],
    budget: f64,
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let policy = HebsPolicy::closed_loop(config);
    let mut saving = 0.0;
    let mut distortion = 0.0;
    for (_, image) in images {
        let outcome = policy.optimize(image, budget)?;
        saving += outcome.power_saving;
        distortion += outcome.distortion;
    }
    let n = images.len() as f64;
    Ok((saving / n, distortion / n))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = 0.10;
    let suite = SipiSuite::with_size(128);
    let sample = [
        SipiImage::Lena,
        SipiImage::Peppers,
        SipiImage::Splash,
        SipiImage::Baboon,
        SipiImage::Trees,
        SipiImage::Pout,
    ];
    let images: Vec<(SipiImage, &hebs_imaging::GrayImage)> = sample
        .iter()
        .map(|&id| (id, suite.image(id).expect("suite contains every id")))
        .collect();

    println!("Ablation study — mean saving / distortion over 6 images at a 10% budget\n");

    // 1. Segment budget of the reference driver.
    let mut segments_table =
        TextTable::new(["driver sources k", "mean saving (%)", "mean distortion (%)"]);
    for k in [3usize, 4, 8, 16] {
        let driver = HierarchicalPlrd::new(k, 10)?;
        let config = PipelineConfig {
            segments: driver.max_segments(),
            driver,
            ..PipelineConfig::default()
        };
        let (saving, distortion) = mean_saving(config, &images, budget)?;
        segments_table.push_row([
            k.to_string(),
            format!("{:.2}", saving * 100.0),
            format!("{:.2}", distortion * 100.0),
        ]);
    }
    println!("(a) reference-driver segment budget");
    println!("{segments_table}");

    // 2. Pure GHE versus adaptive blend.
    let mut blend_table = TextTable::new(["transform", "mean saving (%)", "mean distortion (%)"]);
    for (label, blend) in [
        ("pure GHE (paper)", BlendMode::Fixed(1.0)),
        ("linear compression", BlendMode::Fixed(0.0)),
        ("adaptive blend (ours)", BlendMode::Adaptive),
    ] {
        let config = PipelineConfig {
            blend,
            ..PipelineConfig::default()
        };
        let (saving, distortion) = mean_saving(config, &images, budget)?;
        blend_table.push_row([
            label.to_string(),
            format!("{:.2}", saving * 100.0),
            format!("{:.2}", distortion * 100.0),
        ]);
    }
    println!("(b) transformation family");
    println!("{blend_table}");

    // 3. Distortion measure: with and without the HVS pre-filter.
    let mut hvs_table = TextTable::new([
        "distortion measure",
        "mean saving (%)",
        "mean distortion (%)",
    ]);
    for (label, measure) in [
        ("HVS + UIQI (paper)", HebsDistortion::default()),
        ("plain UIQI", HebsDistortion::without_hvs()),
    ] {
        let config = PipelineConfig {
            measure: SharedMeasure::new(measure),
            ..PipelineConfig::default()
        };
        let (saving, distortion) = mean_saving(config, &images, budget)?;
        hvs_table.push_row([
            label.to_string(),
            format!("{:.2}", saving * 100.0),
            format!("{:.2}", distortion * 100.0),
        ]);
    }
    println!("(c) distortion measure");
    println!("{hvs_table}");
    println!("Note: rows of (c) are not directly comparable to each other on the distortion");
    println!("column (each row optimizes against its own measure); compare the saving column.");
    Ok(())
}
