//! `display_server`: a two-tenant display server under open arrivals.
//!
//! One dispatcher admits frames at their scheduled due times through a
//! `TenantRegistry` (one byte-budgeted exact cache, `WeightedFair`
//! admission) and hands them to one worker per tenant:
//!
//! * `ui` — open loop on a 3-class Envelope bank restored from a snapshot
//!   during set-up, periodic and drift rebuilds armed, a frame-period
//!   deadline; a repeating cycle of small UI frames at 60 Hz (µs-scale
//!   exact hits), with an unseen notification frame every 40th refresh;
//! * `gallery` — closed loop, global UIQI, 20% budget, every photo
//!   distinct; a steady rate with one burst.
//!
//! Latency counts from each frame's due time, so queueing behind slow
//! serves and behind rebuilds (which run inline on a serving worker after
//! the engine has stopped its clock) shows in the tail.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use hebs_core::{CharacteristicBank, CurveFit, HebsPolicy, PipelineConfig, DEFAULT_RANGES};
use hebs_imaging::{GrayImage, Histogram};
use hebs_perfbench::schedule::{self, Arrival, Burst, LagRecorder, TenantRate};
use hebs_perfbench::trace::Tracer;
use hebs_quality::GlobalUiqiDistortion;
use hebs_runtime::{
    AdmissionPermit, CacheConfig, Engine, EngineConfig, RecharacterizePolicy, RuntimeError,
    ServeOptions, ServingMode, ShedPolicy, TenantId, TenantRegistry, TenantSpec,
};

use crate::common::{
    finish_end_to_end, repeat_setup, stats_delta, Fate, Finished, Outcome, Phase, Record,
};
use crate::layers::{self, LayerRun, Path, Replayer};
use crate::Args;
use hebs_perfbench::inputs;

/// One display refresh at 60 Hz: the ui arrival period.
const PERIOD: Duration = Duration::from_micros(16_667);
const UI: usize = 0;
const GALLERY: usize = 1;
/// Per-tenant deadlines: a ui frame is due by the next refresh; a gallery
/// photo, like the photo viewer's, within 100 ms.
const DEADLINES: [Duration; 2] = [PERIOD, Duration::from_millis(100)];
/// The dispatcher admits each frame and hands it to its tenant's worker
/// this long before it is due; the worker starts it at the due time. A
/// compositor queues work ahead of vsync the same way, and it keeps the
/// dispatcher's and the worker's wake-up latencies out of the measured
/// latency unless the dispatcher runs later than this.
const HANDOFF_LEAD: Duration = Duration::from_millis(5);
const UI_BUDGET: f64 = 0.10;
const GALLERY_BUDGET: f64 = 0.20;
/// Distinct UI screens in the repeating cycle.
const UI_CYCLE: usize = 24;
/// Every this many ui refreshes show an unseen notification frame.
const NOTIFY_EVERY: usize = 40;
const GALLERY_SIZE: u32 = 96;
const GALLERY_POOL: usize = 19 * 80;
const RATES: [TenantRate; 2] = [
    TenantRate {
        steady_hz: 60.0,
        burst_hz: 60.0,
        jitter: 0.0,
    },
    TenantRate {
        steady_hz: 15.0,
        burst_hz: 40.0,
        jitter: 0.5,
    },
];
const BURST: Burst = Burst {
    from: 0.6,
    until: 0.8,
};
/// The arrival schedule is the same in every run; the workload seed draws
/// the gallery photos. Where the gallery's arrivals fall against the ui
/// tenant's rebuild stalls sets the tail, and with a seeded schedule the
/// p99 of a run followed its seed (0.45 s on one, 0.63 s on another, on
/// both of two allocator settings).
const SCHEDULE: u64 = 0x5C4E_D01E;

fn config() -> PipelineConfig {
    PipelineConfig::default().with_measure(GlobalUiqiDistortion)
}

/// The runtime's default rebuild policy (16-histogram sketches, sampled
/// every 8th serve, a drift rebuild after 32 fallbacks) except for the
/// periodic trigger: a class rebuilds every [`REBUILD_INTERVAL`] of its
/// serves instead of every 512. At the default a 35 s run rebuilds about
/// 3 times, and the tail that rebuilds cause would rest on a handful of
/// events; at 128 it rebuilds 15 times.
const REBUILD_INTERVAL: u64 = 128;

fn ui_mode() -> ServingMode {
    ServingMode::OpenLoop {
        recharacterize: RecharacterizePolicy {
            interval: Some(REBUILD_INTERVAL),
            ..RecharacterizePolicy::default()
        }
        .with_classes(3)
        .with_fit(CurveFit::Envelope),
    }
}

struct Inputs {
    ui: Vec<GrayImage>,
    notifications: Vec<GrayImage>,
    gallery: Vec<GrayImage>,
    warmup: Vec<GrayImage>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Inputs {
            ui: inputs::ui_frames(UI_CYCLE, 0),
            notifications: inputs::ui_frames(96, 1 << 20),
            gallery: inputs::suite_variants(seed, GALLERY_SIZE, GALLERY_POOL),
            warmup: inputs::suite_bases(GALLERY_SIZE),
        }
    }

    /// The frame of a tenant's `index`-th arrival, and its id in the
    /// tenant's frame set (notifications are numbered after the cycle).
    fn frame(&self, tenant: usize, index: usize) -> (&GrayImage, usize) {
        if tenant == UI {
            if index % NOTIFY_EVERY == NOTIFY_EVERY - 1 {
                let n = (index / NOTIFY_EVERY) % self.notifications.len();
                (&self.notifications[n], UI_CYCLE + n)
            } else {
                (&self.ui[index % UI_CYCLE], index % UI_CYCLE)
            }
        } else {
            let g = index % self.gallery.len();
            (&self.gallery[g], g)
        }
    }

    fn by_source(&self, tenant: usize, source: usize) -> &GrayImage {
        match (tenant, source.checked_sub(UI_CYCLE)) {
            (UI, Some(n)) => &self.notifications[n],
            (UI, None) => &self.ui[source],
            _ => &self.gallery[source],
        }
    }
}

struct Server {
    registry: TenantRegistry,
    ids: [TenantId; 2],
    bank: CharacteristicBank,
    restore: Duration,
}

/// Offline characterization of the UI cycle into a 3-class bank, a canary
/// engine that serves the cycle once and snapshots bank and cache, the
/// registry, the ui tenant's restore from that snapshot, and a gallery
/// warm-up.
fn setup(inputs: &Inputs) -> Result<Server, String> {
    let err = |e: RuntimeError| e.to_string();
    let config = config();
    let histograms: Vec<Histogram> = inputs.ui.iter().map(Histogram::of).collect();
    let bank = CharacteristicBank::build(&config, &histograms, &DEFAULT_RANGES, 3)
        .map_err(|e| e.to_string())?;
    let canary = Engine::new(
        HebsPolicy::closed_loop(config.clone()),
        EngineConfig {
            workers: 1,
            max_distortion: UI_BUDGET,
            cache: Some(CacheConfig::exact()),
            mode: ui_mode(),
            ..EngineConfig::default()
        },
    )
    .map_err(err)?;
    canary.install_bank(bank.clone()).map_err(err)?;
    for frame in &inputs.ui {
        canary.process_frame(frame).map_err(err)?;
    }
    let mut snapshot = Vec::new();
    canary.snapshot_to_writer(&mut snapshot).map_err(err)?;

    // One shard: the byte budget is split evenly across shards, and the
    // exact cache's hash seed is drawn afresh in every process, so with
    // the default 8 shards chance decided whether a shard's slice held
    // all the ui screens it was dealt. Where it did not, they missed on
    // every cycle, and the median of a run flipped from µs to ms.
    let mut cache = CacheConfig::exact().with_byte_budget(Some(4 << 20));
    cache.shards = 1;
    let registry = TenantRegistry::builder()
        .with_cache(cache)
        .with_shed_policy(ShedPolicy::WeightedFair {
            shared_capacity: 96,
        })
        .tenant(
            HebsPolicy::closed_loop(config.clone()),
            TenantSpec::named("ui")
                .with_budget(UI_BUDGET)
                .with_mode(ui_mode())
                // Room for every frame that arrives during a rebuild
                // stall (about 40 at 60 Hz): a shed frame leaves the
                // class's sketch sampling, and so which rebuilt curves
                // are swapped in, to timing, which turned the tail
                // bimodal between runs.
                .with_queue_limit(64),
        )
        .tenant(
            HebsPolicy::closed_loop(config),
            TenantSpec::named("gallery")
                .with_budget(GALLERY_BUDGET)
                .with_cache_weight(3)
                .with_queue_limit(16),
        )
        .build()
        .map_err(err)?;
    let ids = [
        registry.id_of("ui").expect("ui is registered"),
        registry.id_of("gallery").expect("gallery is registered"),
    ];
    let start = Instant::now();
    let report = registry
        .engine(ids[UI])
        .map_err(err)?
        .restore_from_reader(&mut snapshot.as_slice())
        .map_err(err)?;
    let restore = start.elapsed();
    if report.classes != 3 || report.cache_restored == 0 {
        return Err(format!("ui snapshot restored incompletely: {report:?}"));
    }
    for frame in &inputs.warmup[..4] {
        registry
            .serve(ids[GALLERY], frame, &ServeOptions::default())
            .map_err(err)?;
    }
    Ok(Server {
        registry,
        ids,
        bank,
        restore,
    })
}

/// A frame on its way from the dispatcher to a tenant worker.
struct Job<'a> {
    arrival: Arrival,
    id: u64,
    frame: &'a GrayImage,
    source: usize,
    due: Instant,
    admitted: (Instant, Instant),
    permit: AdmissionPermit,
}

/// What one tenant worker brings back.
struct WorkerLog {
    records: Vec<Record>,
    tracer: Option<Tracer>,
    done: Instant,
}

fn worker(
    registry: &TenantRegistry,
    jobs: mpsc::Receiver<Job<'_>>,
    origin: Option<Instant>,
    start: Instant,
) -> WorkerLog {
    let mut records = Vec::new();
    let mut tracer = origin.map(Tracer::new);
    let mut done = start;
    while let Ok(job) = jobs.recv() {
        schedule::wait_until(job.due);
        let begin = Instant::now();
        let options =
            ServeOptions::default().with_deadline(job.due + DEADLINES[job.arrival.tenant]);
        let result = registry.serve_with_permit(&job.permit, job.frame, &options);
        let end = Instant::now();
        drop(job.permit);
        if let Some(tracer) = tracer.as_mut() {
            let root = tracer.record("frame", None, job.id, job.admitted.0, end);
            tracer.record(
                "runtime.admit",
                Some(root),
                job.id,
                job.admitted.0,
                job.admitted.1,
            );
            tracer.record("runtime.queue_wait", Some(root), job.id, job.due, begin);
            tracer.record("runtime.serve", Some(root), job.id, begin, end);
        }
        let (fate, post_serve) = match &result {
            Ok(result) => (
                Fate::Served(Outcome::of(result)),
                (end - begin).saturating_sub(result.latency),
            ),
            Err(err) => (Fate::Failed(err.to_string()), Duration::ZERO),
        };
        records.push(Record {
            id: job.id,
            tenant: job.arrival.tenant,
            source: job.source,
            budget: if job.arrival.tenant == UI {
                UI_BUDGET
            } else {
                GALLERY_BUDGET
            },
            e2e: end.saturating_duration_since(job.due),
            queue_wait: begin.saturating_duration_since(job.due),
            post_serve,
            fate,
        });
        done = end;
    }
    WorkerLog {
        records,
        tracer,
        done,
    }
}

/// Runs one phase of the arrival schedule; `first` numbers each tenant's
/// arrivals on from the previous phase so no gallery photo repeats.
fn serve(
    server: &Server,
    inputs: &Inputs,
    seed: u64,
    length: Duration,
    first: &mut [usize; 2],
    origin: Option<Instant>,
) -> Phase {
    let arrivals = schedule::open_loop(seed, length, BURST, &RATES);
    let registry = &server.registry;
    let before = [0, 1].map(|t| registry.stats(server.ids[t]).expect("registered tenant"));
    let mut lags = LagRecorder::default();
    let mut sheds = Vec::new();
    let start = Instant::now() + HANDOFF_LEAD;
    let logs: Vec<WorkerLog> = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel::<Job<'_>>();
            senders.push(tx);
            handles.push(scope.spawn(move || worker(registry, rx, origin, start)));
        }
        for (id, arrival) in arrivals.iter().enumerate() {
            let due = start + arrival.due;
            let handoff = due - HANDOFF_LEAD;
            let now = Instant::now();
            if handoff > now {
                std::thread::sleep(handoff - now);
            }
            let index = first[arrival.tenant] + arrival.index;
            let (frame, source) = inputs.frame(arrival.tenant, index);
            let sent = Instant::now();
            lags.record(
                handoff.saturating_duration_since(start),
                sent.saturating_duration_since(start),
            );
            let admitted = registry.admit(server.ids[arrival.tenant]);
            let admit_end = Instant::now();
            let shed = |fate| Record {
                id: id as u64,
                tenant: arrival.tenant,
                source,
                budget: 0.0,
                e2e: admit_end - due,
                queue_wait: Duration::ZERO,
                post_serve: Duration::ZERO,
                fate,
            };
            match admitted {
                Ok(permit) => senders[arrival.tenant]
                    .send(Job {
                        arrival: *arrival,
                        id: id as u64,
                        frame,
                        source,
                        due,
                        admitted: (sent, admit_end),
                        permit,
                    })
                    .expect("tenant workers outlive the dispatcher"),
                Err(RuntimeError::Shed { .. }) => sheds.push(shed(Fate::Shed)),
                Err(other) => sheds.push(shed(Fate::Failed(other.to_string()))),
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|handle| handle.join().expect("tenant worker panicked"))
            .collect()
    });
    for arrival in &arrivals {
        first[arrival.tenant] += 1;
    }
    let stats = [0, 1].map(|t| {
        let after = registry.stats(server.ids[t]).expect("registered tenant");
        stats_delta(&before[t], &after)
    });
    let mut phase = Phase {
        records: sheds,
        wall: Duration::ZERO,
        stats: stats.to_vec(),
        cache_bytes: server
            .ids
            .iter()
            .map(|&id| registry.tenant_bytes(id).unwrap_or(0) as u64)
            .sum(),
        lags,
        spans: Vec::new(),
        // Records are not in time order, and the burst makes one stretch
        // of the schedule unlike the rest: the median stays pooled.
        sessions: Vec::new(),
    };
    let mut tracers = Vec::new();
    let mut done = start;
    for log in logs {
        phase.records.extend(log.records);
        tracers.extend(log.tracer);
        done = done.max(log.done);
    }
    phase.wall = done - start;
    phase.spans = Tracer::merge(tracers);
    phase
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Finished, String> {
    let inputs = Inputs::new(args.seed);
    let mut restores = Vec::new();
    let (server, set_up) = repeat_setup(|| {
        let server = setup(&inputs)?;
        restores.push(server.restore.as_secs_f64() * 1e6);
        Ok(server)
    })?;
    let mut first = [0usize; 2];
    if !args.trace {
        let phase = serve(&server, &inputs, SCHEDULE, args.seconds, &mut first, None);
        return finish_end_to_end("display_server", &phase, &set_up, &DEADLINES);
    }

    let half = args.seconds / 2;
    let untraced = serve(&server, &inputs, SCHEDULE, half, &mut first, None);
    let origin = Instant::now();
    let traced = serve(
        &server,
        &inputs,
        SCHEDULE ^ 1,
        half,
        &mut first,
        Some(origin),
    );

    let config = config();
    let mut tracer = Tracer::new(origin);
    let mut replayer = Replayer::new(config.clone(), server.bank.clone());
    for record in layers::replay_sample(&traced.records) {
        let path = if record.outcome().is_some_and(|o| o.hit) {
            Path::ExactHit
        } else {
            Path::Miss
        };
        let frame = inputs.by_source(record.tenant, record.source);
        replayer.replay(&mut tracer, record, frame, path, record.tenant == UI)?;
    }
    let sketch: Vec<Histogram> = inputs.ui.iter().take(16).map(Histogram::of).collect();
    layers::probe_characterize(&mut tracer, &config, &sketch)?;
    let candidates = replayer.candidates();
    layers::finish(
        LayerRun {
            untraced: &untraced,
            traced: &traced,
            spans: Tracer::merge([tracer]),
            unattributed: replayer.unattributed,
            probe_hits: Vec::new(),
            restores,
            candidates,
        },
        &args.spans_path(),
    )
}
