//! `photo_closed`: a photo viewer. Two closed-loop clients each send the
//! next distinct 64×64 photo as soon as the previous one is back, with
//! per-request budgets cycling through Table 1's 5, 10 and 20%. Every
//! serve is a full closed-loop fit under the paper's HVS+SSIM measure; the
//! exact cache is on and every lookup misses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hebs_core::{HebsPolicy, PipelineConfig};
use hebs_imaging::{GrayImage, Histogram};
use hebs_perfbench::schedule::LagRecorder;
use hebs_perfbench::trace::Tracer;
use hebs_runtime::{CacheConfig, Engine, EngineConfig};

use crate::common::{
    finish_end_to_end, repeat_setup, resident_records, stats_delta, Fate, Finished, Outcome, Phase,
    Record,
};
use crate::layers::{self, LayerRun, Path, Replayer};
use crate::Args;
use hebs_perfbench::inputs;

const SIZE: u32 = 64;
const CLIENTS: usize = 2;
const BUDGETS: [f64; 3] = [0.05, 0.10, 0.20];
/// A viewer feels instant below ~100 ms per photo.
const DEADLINE: Duration = Duration::from_millis(100);

fn engine() -> Result<Engine, String> {
    Engine::new(
        HebsPolicy::closed_loop(PipelineConfig::default()),
        EngineConfig {
            workers: CLIENTS,
            cache: Some(CacheConfig::exact()),
            ..EngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// Engine construction plus a warm-up on the noiseless suite images (which
/// no timed frame equals, so the timed lookups still all miss).
fn setup(warmup: &[GrayImage]) -> Result<Engine, String> {
    let engine = engine()?;
    for (i, frame) in warmup.iter().enumerate() {
        engine
            .process_frame_with_budget(frame, BUDGETS[i % BUDGETS.len()])
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// A phase runs as this many back-to-back sessions, each with freshly
/// started client threads; the reported median is the quietest session's
/// (see `common::quietest_median`).
const SESSIONS: u32 = 10;

/// Serves photos `cursor..` with two closed-loop clients for `length`,
/// collecting the records into `records`.
/// Each client derives its next photo from the suite `bases` between
/// serves, so no photo repeats however many are served.
fn serve(
    engine: &Engine,
    bases: &[GrayImage],
    seed: u64,
    cursor: &AtomicUsize,
    length: Duration,
    origin: Option<Instant>,
    mut records: Vec<Record>,
) -> Phase {
    let before = engine.stats();
    let mut lags = Vec::new();
    let mut tracers = Vec::new();
    let mut wall = Duration::ZERO;
    let mut sessions = Vec::new();
    for _ in 0..SESSIONS {
        let start = Instant::now();
        let stop = start + length / SESSIONS;
        let per_client: Vec<(Vec<Record>, LagRecorder, Option<Tracer>, Instant)> =
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut records = Vec::new();
                            let mut lags = LagRecorder::default();
                            let mut tracer = origin.map(Tracer::new);
                            let mut ready = start;
                            loop {
                                if Instant::now() >= stop {
                                    break;
                                }
                                let index = cursor.fetch_add(1, Ordering::Relaxed);
                                let frame = inputs::suite_variant(bases, seed, index);
                                let budget = BUDGETS[index % BUDGETS.len()];
                                let call = Instant::now();
                                let result = engine.process_frame_with_budget(&frame, budget);
                                let end = Instant::now();
                                lags.record(ready - start, call - start);
                                if let Some(tracer) = tracer.as_mut() {
                                    let root =
                                        tracer.record("frame", None, index as u64, ready, end);
                                    tracer.record(
                                        "runtime.queue_wait",
                                        Some(root),
                                        index as u64,
                                        ready,
                                        call,
                                    );
                                    tracer.record(
                                        "runtime.serve",
                                        Some(root),
                                        index as u64,
                                        call,
                                        end,
                                    );
                                }
                                let (fate, post_serve) = match &result {
                                    Ok(result) => (
                                        Fate::Served(Outcome::of(result)),
                                        (end - call).saturating_sub(result.latency),
                                    ),
                                    Err(err) => (Fate::Failed(err.to_string()), Duration::ZERO),
                                };
                                records.push(Record {
                                    id: index as u64,
                                    tenant: 0,
                                    source: index,
                                    budget,
                                    e2e: end - call,
                                    queue_wait: call - ready,
                                    post_serve,
                                    fate,
                                });
                                ready = end;
                            }
                            (records, lags, tracer, ready)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|client| client.join().expect("photo client panicked"))
                    .collect()
            });
        let mut last = start;
        for (client_records, client_lags, tracer, done) in per_client {
            records.extend(client_records);
            lags.push(client_lags);
            tracers.extend(tracer);
            last = last.max(done);
        }
        wall += last - start;
        sessions.push(records.len());
    }
    Phase {
        records,
        wall,
        stats: vec![stats_delta(&before, &engine.stats())],
        cache_bytes: engine.cached_bytes() as u64,
        lags: LagRecorder::merge(lags),
        spans: Tracer::merge(tracers),
        sessions,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Finished, String> {
    // The noiseless suite images are both the warm-up frames and the bases
    // every timed photo is derived from.
    let bases = inputs::suite_bases(SIZE);
    let frame = |index: usize| inputs::suite_variant(&bases, args.seed, index);
    // Room for about four times the frame rate a run now serves at.
    let records = resident_records(if args.trace {
        0
    } else {
        250 * args.seconds.as_secs() as usize
    });
    let (engine, set_up) = repeat_setup(|| setup(&bases))?;
    let cursor = AtomicUsize::new(0);
    if !args.trace {
        let phase = serve(
            &engine,
            &bases,
            args.seed,
            &cursor,
            args.seconds,
            None,
            records,
        );
        return finish_end_to_end("photo_closed", &phase, &set_up, &[DEADLINE]);
    }

    let half = args.seconds / 2;
    let untraced = serve(&engine, &bases, args.seed, &cursor, half, None, records);
    let origin = Instant::now();
    let traced = serve(
        &engine,
        &bases,
        args.seed,
        &cursor,
        half,
        Some(origin),
        Vec::new(),
    );

    // The photo viewer never repeats a photo, so its hit path is timed by
    // revisiting a few already-served photos after the phase.
    // The most recent photos: the cache holds 512 fits, so older ones are
    // gone.
    let mut recent: Vec<&Record> = traced
        .records
        .iter()
        .filter(|r| r.outcome().is_some())
        .collect();
    recent.sort_by_key(|record| std::cmp::Reverse(record.id));
    let mut probe_hits = Vec::new();
    let mut revisits = Vec::new();
    for record in recent.into_iter().take(32) {
        let result = engine
            .process_frame_with_budget(&frame(record.source), record.budget)
            .map_err(|e| e.to_string())?;
        if result.cache_hit {
            probe_hits.push(result.latency.as_secs_f64() * 1e6);
            revisits.push(Record {
                fate: Fate::Served(Outcome::of(&result)),
                ..record.clone()
            });
        }
    }

    let config = PipelineConfig::default();
    let histograms: Vec<Histogram> = (0..64).map(|k| Histogram::of(&frame(k))).collect();
    let mut tracer = Tracer::new(origin);
    let mut replayer = Replayer::new(config.clone(), layers::probe_bank(&config, &histograms)?);
    for record in layers::replay_sample(&traced.records)
        .into_iter()
        .chain(&revisits)
    {
        let path = if record.outcome().is_some_and(|o| o.hit) {
            Path::ExactHit
        } else {
            Path::Miss
        };
        replayer.replay(&mut tracer, record, &frame(record.source), path, false)?;
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
            probe_hits,
            restores: vec![restore],
            candidates,
        },
        &args.spans_path(),
    )
}
