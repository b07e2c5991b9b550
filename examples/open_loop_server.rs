//! Open-loop serving: the paper's table-lookup flow at serving scale, with
//! background re-characterization and the non-blocking stream poll API.
//!
//! ```text
//! cargo run --release --example open_loop_server
//! ```
//!
//! A deployment characterizes representative traffic offline (distortion
//! versus dynamic range, Figure 7 of the paper), installs the fitted curve
//! into the engine, and then serves every cache miss with **one** fit
//! evaluation — a characteristic lookup — instead of the closed-loop
//! bisection's ~8. Three safety nets keep the distortion contract honest
//! while traffic drifts:
//!
//! 1. a per-frame drift check re-serves any over-budget open-loop fit
//!    through the closed-loop search;
//! 2. a rolling histogram sketch of recent traffic feeds a background
//!    re-characterization (every N frames and/or after enough drift), and
//!    the rebuilt curve is swapped in atomically while workers keep
//!    serving;
//! 3. every swap bumps a generation tag carried by all cache keys, so fits
//!    made under a stale curve are never replayed.

use std::time::Duration;

use hebs::core::{DistortionCharacteristic, HebsPolicy, PipelineConfig, DEFAULT_RANGES};
use hebs::imaging::{FrameSequence, Histogram, SceneKind};
use hebs::quality::GlobalUiqiDistortion;
use hebs::runtime::{
    CacheConfig, Engine, EngineConfig, RecharacterizePolicy, ServingMode, StreamPoll,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The histogram-capable global UIQI measure: open-loop fits, drift
    // rechecks and re-characterization all run in O(levels), never O(pixels).
    let pipeline = PipelineConfig::default().with_measure(GlobalUiqiDistortion);

    // 1. Characterize representative traffic offline — a few seconds of the
    //    scene the deployment expects — entirely from histograms.
    let sample_scene = FrameSequence::new(SceneKind::Static, 64, 64, 12, 7);
    let histograms: Vec<Histogram> = sample_scene
        .frames()
        .map(|frame| Histogram::of(&frame))
        .collect();
    let seed = DistortionCharacteristic::characterize_from_histograms(
        &pipeline,
        &histograms,
        &DEFAULT_RANGES,
    )?;
    println!(
        "seed characteristic: {} samples, predicted distortion at range 128 = {:.2}%",
        seed.samples().len(),
        seed.predicted_distortion(128) * 100.0
    );

    // 2. Build the open-loop engine and install the seed. The closed-loop
    //    policy stays on board as the drift fallback.
    let engine = Engine::new(
        HebsPolicy::closed_loop(pipeline),
        EngineConfig {
            workers: 0, // auto-detect
            queue_depth: 8,
            max_distortion: 0.10,
            cache: Some(CacheConfig::approximate().with_byte_budget(Some(8 << 20))),
            mode: ServingMode::OpenLoop {
                recharacterize: RecharacterizePolicy {
                    interval: Some(64),   // rebuild at least every 64 frames
                    drift_limit: Some(4), // ... or after 4 drift fallbacks
                    sample_period: 4,     // sketch every 4th histogram
                    ..RecharacterizePolicy::default()
                },
            },
        },
    )?;
    engine.install_characteristic(seed)?;
    println!(
        "engine up: {} workers, open-loop generation {}",
        engine.workers(),
        engine.characteristic_generation()
    );

    // 3. The live feed drifts away from the characterized traffic: the
    //    static scene the curve knows, then a fade to black it has never
    //    seen (darker histograms distort more at the same range).
    let known = FrameSequence::new(SceneKind::Static, 64, 64, 48, 7);
    let drifted = FrameSequence::new(SceneKind::FadeToBlack, 64, 64, 48, 21);
    let feed = (0..known.frame_count())
        .map(move |i| known.frame(i))
        .chain((0..drifted.frame_count()).map(move |i| drifted.frame(i)));

    // 4. Serve through the poll interface an event loop would use: never
    //    block longer than one tick on a stalled producer.
    let mut stream = engine.stream(feed);
    let mut served = 0usize;
    loop {
        match stream.next_timeout(Duration::from_millis(50)) {
            StreamPoll::Ready(result) => {
                let frame = result?;
                served += 1;
                if frame.index % 16 == 0 {
                    println!(
                        "frame {:>3}: beta {:.3}, distortion {:>5.2}%, saving {:>5.2}%, {}",
                        frame.index,
                        frame.outcome.beta,
                        frame.outcome.distortion * 100.0,
                        frame.outcome.power_saving * 100.0,
                        if frame.cache_hit {
                            "cache hit"
                        } else {
                            "fitted"
                        },
                    );
                }
            }
            // A real event loop would run timers / other sockets here.
            StreamPoll::Pending => continue,
            StreamPoll::Finished => break,
        }
    }

    // 5. The open-loop economics: ~1 evaluation per miss, drift fallbacks
    //    counted, curve rebuilt in the background when the scene changed.
    engine.quiesce_rebuilds();
    let stats = engine.stats();
    println!(
        "\nserved {served} frames, hit rate {:.0}%",
        stats.cache_hit_rate() * 100.0
    );
    println!(
        "fit evaluations: {} over {} misses ({:.2} per miss; a closed-loop engine runs ~8)",
        stats.fit_evaluations,
        stats.cache_misses,
        stats.fit_evaluations as f64 / stats.cache_misses.max(1) as f64,
    );
    println!(
        "drift: {} fallbacks, {} background re-characterizations, final generation {}",
        stats.open_loop_fallbacks,
        stats.recharacterizations,
        engine.characteristic_generation(),
    );
    Ok(())
}
