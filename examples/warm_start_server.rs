//! Warm-start tier: one canary characterizes, a whole fleet restores.
//!
//! ```text
//! cargo run --release --example warm_start_server
//! ```
//!
//! Open-loop serving needs a characterized bank before it pays off — and
//! characterizing from live traffic costs a recovery window of
//! closed-loop serves on *every* node. The warm-start tier moves that
//! cost to a single canary: it characterizes representative traffic,
//! serves long enough to fill its hot cache, and snapshots bank + cache
//! spill into a versioned, checksummed byte stream. Every fleet node
//! restores those bytes at boot and serves at open-loop cost — one
//! characteristic evaluation per miss, zero recharacterizations — from
//! its very first frame, replaying the canary's hottest fits as cache
//! hits. A corrupted artifact (a torn download, a bad disk) is rejected
//! with a typed error and the node simply boots cold; it never panics
//! and never installs a partial bank.

use hebs::core::{CharacteristicBank, CurveFit, HebsPolicy, PipelineConfig, DEFAULT_RANGES};
use hebs::imaging::{GrayImage, Histogram, SipiSuite};
use hebs::quality::GlobalUiqiDistortion;
use hebs::runtime::{
    CacheConfig, Engine, EngineConfig, RecharacterizePolicy, RuntimeError, ServingMode,
};

/// A fleet-node engine: open-loop with a two-class bank slot, an exact
/// cache, and no self-characterization — the bank arrives via restore.
fn fleet_node(pipeline: &PipelineConfig) -> Result<Engine, RuntimeError> {
    Engine::new(
        HebsPolicy::closed_loop(pipeline.clone()),
        EngineConfig {
            workers: 1,
            max_distortion: 0.10,
            cache: Some(CacheConfig::exact()),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: None,
                    drift_limit: None,
                    fit: CurveFit::Envelope,
                    classes: 2,
                    ..RecharacterizePolicy::default()
                },
            },
            ..EngineConfig::default()
        },
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = PipelineConfig::default().with_measure(GlobalUiqiDistortion);

    // 1. The canary characterizes representative traffic offline — pure
    //    histogram work — clusters it into two content classes, and
    //    installs the fitted bank.
    let canary_traffic: Vec<GrayImage> = SipiSuite::with_size(48)
        .iter()
        .map(|(_, img)| img.clone())
        .collect();
    let histograms: Vec<Histogram> = canary_traffic.iter().map(Histogram::of).collect();
    let bank = CharacteristicBank::build(&pipeline, &histograms, &DEFAULT_RANGES, 2)?;
    let canary = fleet_node(&pipeline)?;
    canary.install_bank(bank)?;

    // 2. It serves its own traffic (filling the hot cache with fitted
    //    transforms) and snapshots bank + cache spill. In a deployment the
    //    bytes go to object storage; here a Vec stands in.
    for frame in &canary_traffic {
        canary.process_frame(frame)?;
    }
    canary.quiesce_rebuilds();
    let mut snapshot = Vec::new();
    canary.snapshot_to_writer(&mut snapshot)?;
    println!(
        "canary: characterized {} classes from {} frames, snapshot {} bytes",
        canary.characteristic_classes(),
        canary_traffic.len(),
        snapshot.len()
    );

    // 3. A fleet node boots, restores the snapshot, and is warm before
    //    its first frame: the bank installs atomically and the spilled
    //    fits re-enter its cache under fresh generations.
    let node = fleet_node(&pipeline)?;
    let report = node.restore_from_reader(&mut &snapshot[..])?;
    println!(
        "fleet node: restored {} classes (generation {}), {} cache entries re-admitted",
        report.classes, report.generation, report.cache_restored
    );

    // 4. Day-2 traffic the canary never saw: every miss costs exactly one
    //    characteristic evaluation — no bootstrap window, no closed-loop
    //    recovery serves — and replayed canary frames are cache hits.
    let day2: Vec<GrayImage> = SipiSuite::with_size(56)
        .iter()
        .map(|(_, img)| img.clone())
        .chain(canary_traffic.iter().take(4).cloned())
        .collect();
    for frame in &day2 {
        node.process_frame(frame)?;
    }
    node.quiesce_rebuilds();
    let stats = node.stats();
    println!(
        "fleet node day 2: {} serves, {} fit evaluations over {} misses, {} hits, {} rebuilds",
        stats.frames,
        stats.fit_evaluations,
        stats.cache_misses,
        stats.cache_hits,
        stats.recharacterizations
    );

    // 5. A corrupted artifact degrades to cold-start, typed — never a
    //    panic, never a partial bank.
    let mut torn = snapshot.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x10;
    let unlucky = fleet_node(&pipeline)?;
    match unlucky.restore_from_reader(&mut &torn[..]) {
        Err(RuntimeError::Snapshot(err)) => {
            println!("torn snapshot rejected: {err}");
        }
        other => return Err(format!("expected a typed rejection, got {other:?}").into()),
    }
    println!(
        "unlucky node boots cold instead: {} classes installed, {} rejection(s) counted — \
         it will characterize from live traffic like any cold node",
        unlucky.characteristic_classes(),
        unlucky.stats().snapshot_rejected
    );
    Ok(())
}
