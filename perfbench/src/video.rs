//! `video_1080p`: video playback. Eight 1920×1080 scenes (static shots, a
//! pan, a fade and a hard cut) play in a seeded cyclic order, each scene's
//! frames served [`REPEATS`] times as `Engine::process_batch` calls on one
//! engine worker (see [`WORKERS`]), back to back. The cache is approximate (signature-keyed) and
//! holds fewer fits than the scenes need together, so each scene change
//! misses once per distinct signature, a few percent of serves, for the
//! whole run; the loop is closed under global UIQI.

use std::time::{Duration, Instant};

use hebs_core::{HebsPolicy, PipelineConfig};
use hebs_imaging::Histogram;
use hebs_perfbench::schedule::LagRecorder;
use hebs_perfbench::trace::Tracer;
use hebs_quality::GlobalUiqiDistortion;
use hebs_runtime::{CacheConfig, Engine, EngineConfig};

use crate::common::{
    finish_end_to_end, repeat_setup, resident_records, stats_delta, Fate, Finished, Outcome, Phase,
    Record,
};
use crate::layers::{self, LayerRun, Path, Replayer};
use crate::Args;
use hebs_perfbench::inputs::{self, Playlist, VideoBank};

/// One engine worker: at 1080p `FrameIngest::compute_auto` already fans
/// each frame's ingest out over every CPU, so on a 2-CPU machine two
/// workers run four threads on two cores, and their latency then measures
/// the scheduler (p50 spread over 3 seeds: 3.05–3.44 ms with two workers,
/// 2.76–2.84 ms with one).
const WORKERS: usize = 1;
const BUDGET: f64 = 0.10;
/// One frame period at 60 Hz.
const DEADLINE: Duration = Duration::from_micros(16_667);
/// Approximate-cache entries: enough for any one scene's signatures, so
/// repeats of a scene hit, and fewer than the eight scenes' signatures
/// together, so every scene change misses on a scene played a cycle ago
/// (the cyclic order makes the evictions deterministic).
const CACHE_ENTRIES: usize = 8;
/// Batches per scene visit.
const REPEATS: usize = 8;

fn config() -> PipelineConfig {
    PipelineConfig::default().with_measure(GlobalUiqiDistortion)
}

/// Engine construction plus one warm-up pass over every scene.
fn setup(bank: &VideoBank) -> Result<Engine, String> {
    let mut cache = CacheConfig::approximate().with_capacity(CACHE_ENTRIES);
    cache.shards = 1;
    let engine = Engine::new(
        HebsPolicy::closed_loop(config()),
        EngineConfig {
            workers: WORKERS,
            max_distortion: BUDGET,
            cache: Some(cache),
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    for scene in &bank.scenes {
        engine
            .process_batch(&bank.frames[scene.clone()])
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Where each frame of a batch started serving, reconstructed from the
/// engine's per-frame latencies: `workers` threads take frames in index
/// order, each as soon as it is free (the pool's atomic work-stealing
/// cursor). Offsets from the batch call.
fn batch_starts(latencies: &[Duration], workers: usize) -> Vec<Duration> {
    let mut free = vec![Duration::ZERO; workers.max(1)];
    latencies
        .iter()
        .map(|&latency| {
            let worker = (0..free.len())
                .min_by_key(|&w| free[w])
                .expect("at least one worker");
            let start = free[worker];
            free[worker] += latency;
            start
        })
        .collect()
}

/// Plays the playlist for `length`, collecting the records into `records`.
fn serve(
    engine: &Engine,
    bank: &VideoBank,
    playlist: &mut Playlist,
    next_id: &mut u64,
    length: Duration,
    origin: Option<Instant>,
    mut records: Vec<Record>,
) -> Phase {
    let before = engine.stats();
    let mut tracer = origin.map(Tracer::new);
    let mut lags = LagRecorder::default();
    let start = Instant::now();
    let mut ready = start;
    while ready - start < length {
        let scene = bank.scenes[playlist.next_scene()].clone();
        let frames = &bank.frames[scene.clone()];
        let call = Instant::now();
        let report = engine.process_batch(frames);
        let end = Instant::now();
        lags.record(ready - start, call - start);
        let first = *next_id;
        *next_id += frames.len() as u64;
        if let Some(tracer) = tracer.as_mut() {
            tracer.record("runtime.batch", None, first, call, end);
        }
        match report {
            Ok(report) => {
                let latencies: Vec<Duration> = report.results.iter().map(|r| r.latency).collect();
                let busy: Duration = latencies.iter().sum();
                let post_serve =
                    ((end - call) * WORKERS as u32).saturating_sub(busy) / frames.len() as u32;
                for ((k, result), wait) in report
                    .results
                    .iter()
                    .enumerate()
                    .zip(batch_starts(&latencies, WORKERS))
                {
                    records.push(Record {
                        id: first + k as u64,
                        tenant: 0,
                        source: scene.start + k,
                        budget: BUDGET,
                        e2e: result.latency,
                        queue_wait: wait,
                        post_serve,
                        fate: Fate::Served(Outcome::of(result)),
                    });
                }
            }
            Err(err) => {
                for k in 0..frames.len() {
                    records.push(Record {
                        id: first + k as u64,
                        tenant: 0,
                        source: scene.start + k,
                        budget: BUDGET,
                        e2e: end - call,
                        queue_wait: Duration::ZERO,
                        post_serve: Duration::ZERO,
                        fate: Fate::Failed(err.to_string()),
                    });
                }
            }
        }
        ready = end;
    }
    Phase {
        records,
        wall: ready - start,
        stats: vec![stats_delta(&before, &engine.stats())],
        cache_bytes: engine.cached_bytes() as u64,
        lags,
        spans: Tracer::merge(tracer),
        // Frame latencies fall in two clusters by scene content, and the
        // median sits between them: a stretch's median follows which
        // scenes it played, so the median stays pooled.
        sessions: Vec::new(),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Finished, String> {
    let bank = inputs::video_bank(args.seed);
    // Room for about four times the frame rate a run now serves at.
    let records = resident_records(if args.trace {
        0
    } else {
        2000 * args.seconds.as_secs() as usize
    });
    let (engine, set_up) = repeat_setup(|| setup(&bank))?;
    let mut playlist = Playlist::new(args.seed, bank.scenes.len(), REPEATS);
    let mut next_id = 0;
    if !args.trace {
        let phase = serve(
            &engine,
            &bank,
            &mut playlist,
            &mut next_id,
            args.seconds,
            None,
            records,
        );
        return finish_end_to_end("video_1080p", &phase, &set_up, &[DEADLINE]);
    }

    let half = args.seconds / 2;
    let untraced = serve(
        &engine,
        &bank,
        &mut playlist,
        &mut next_id,
        half,
        None,
        records,
    );
    let origin = Instant::now();
    let traced = serve(
        &engine,
        &bank,
        &mut playlist,
        &mut next_id,
        half,
        Some(origin),
        Vec::new(),
    );

    let config = config();
    let histograms: Vec<Histogram> = bank.frames.iter().map(Histogram::of).collect();
    let mut tracer = Tracer::new(origin);
    let mut replayer = Replayer::new(config.clone(), layers::probe_bank(&config, &histograms)?);
    for record in layers::replay_sample(&traced.records) {
        let path = if record.outcome().is_some_and(|o| o.hit) {
            Path::ApproxHit
        } else {
            Path::Miss
        };
        replayer.replay(
            &mut tracer,
            record,
            &bank.frames[record.source],
            path,
            false,
        )?;
    }
    layers::probe_characterize(&mut tracer, &config, &histograms)?;
    layers::probe_admit(&mut tracer, &config)?;
    let restore = layers::probe_restore(&engine);
    let candidates = replayer.candidates();
    layers::finish(
        LayerRun {
            untraced: &untraced,
            traced: &traced,
            spans: Tracer::merge([tracer]),
            unattributed: replayer.unattributed,
            probe_hits: Vec::new(),
            restores: vec![restore],
            candidates,
        },
        &args.spans_path(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_starts_follow_the_work_stealing_order() {
        let ms = Duration::from_millis;
        let starts = batch_starts(&[ms(4), ms(1), ms(1), ms(3)], 2);
        assert_eq!(starts, vec![ms(0), ms(0), ms(1), ms(2)]);
    }
}
