//! The traced run's per-layer numbers.
//!
//! Nothing inside the runtime is instrumented. Instead, after the traced
//! phase, a sample of the served frames is *replayed* through each layer's
//! public entry points, one span per call, and probes time the layer
//! functions a workload's serve path does not reach on its own. Spans are
//! written to `perfbench/out/` and reduced to per-layer self times here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hebs_core::ghe::{equalize, TargetRange};
use hebs_core::pipeline::evaluate_at_range_scratch;
use hebs_core::{
    evaluate_range_from_histogram, BlendMode, CharacteristicBank, DistortionCharacteristic,
    FitScratch, HebsPolicy, PipelineConfig, DEFAULT_RANGES,
};
use hebs_imaging::{FrameIngest, GrayImage, Histogram};
use hebs_perfbench::report::Metric;
use hebs_perfbench::stats;
use hebs_perfbench::trace::{self, Span, Tracer};
use hebs_quality::GlobalUiqiDistortion;
use hebs_runtime::{Engine, TenantRegistry, TenantSpec};
use hebs_transform::coarsen;

use crate::common::{check, quietest_median, Finished, Phase, Record, REBUILD_STALL};

/// At most this many frames of each kind (hit, miss) are replayed.
const REPLAY_CAP: usize = 150;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("imaging.ingest_us", "us"),
    ("core.fit_us", "us"),
    ("core.eval_us", "us"),
    ("core.evals_per_miss", "count"),
    ("core.ghe_us", "us"),
    ("core.classify_us", "us"),
    ("core.characterize_us", "us"),
    ("transform.coarsen_us", "us"),
    ("transform.coarsen_per_miss", "count"),
    ("display.program_us", "us"),
    ("display.response_us", "us"),
    ("display.power_us", "us"),
    ("display.apply_us", "us"),
    ("quality.windowed_us", "us"),
    ("quality.levels_us", "us"),
    ("runtime.hit_us", "us"),
    ("runtime.miss_us", "us"),
    ("runtime.unattributed_hit_us", "us"),
    ("runtime.unattributed_miss_us", "us"),
    ("runtime.post_serve_us", "us"),
    ("runtime.rebuilds", "count"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.admit_us", "us"),
    ("runtime.restore_us", "us"),
    ("runtime.cache_bytes", "bytes"),
    ("runtime.lookups", "count"),
    ("runtime.misses", "count"),
    ("runtime.arrivals", "count"),
    ("runtime.hit_ratio", "hit/lookup"),
    ("runtime.coalesced_ratio", "coalesced/lookup"),
    ("runtime.rejected_ratio", "reject/lookup"),
    ("runtime.fallback_ratio", "fallback/miss"),
    ("runtime.degraded_ratio", "degraded/frame"),
    ("runtime.shed_ratio", "shed/arrival"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The work a serve did, as far as the outside can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Exact-cache hit: ingest, probe, memcmp.
    ExactHit,
    /// Approximate-cache hit: ingest, probe, O(levels) revalidation, apply.
    ApproxHit,
    /// Miss: ingest, probe, fit, insert.
    Miss,
}

/// `config` itself when its measure works in the histogram domain, else
/// the same pipeline with global UIQI (characterization and bank probes
/// need a histogram-capable measure).
fn histogram_config(config: &PipelineConfig) -> PipelineConfig {
    if histogram_capable(config) {
        config.clone()
    } else {
        config.clone().with_measure(GlobalUiqiDistortion)
    }
}

fn histogram_capable(config: &PipelineConfig) -> bool {
    let identity: [u8; 256] = std::array::from_fn(|level| level as u8);
    config
        .measure
        .distortion_from_levels(&Histogram::new(), &identity)
        .is_some()
}

/// Per-kind unattributed serve time: engine latency minus the replayed
/// spans of the stages the serve performed, in microseconds.
#[derive(Debug, Default)]
pub struct Unattributed {
    /// Over replayed hits.
    pub hit: Vec<f64>,
    /// Over replayed misses.
    pub miss: Vec<f64>,
}

/// Replays served frames through the layers' public functions.
pub struct Replayer {
    config: PipelineConfig,
    policy: HebsPolicy,
    scratch: FitScratch,
    displayed: GrayImage,
    bank: CharacteristicBank,
    capable: bool,
    /// Unattributed time gathered so far.
    pub unattributed: Unattributed,
}

impl Replayer {
    /// A replayer for frames served with `config`; `bank` is what class
    /// routing is timed against.
    pub fn new(config: PipelineConfig, bank: CharacteristicBank) -> Self {
        Replayer {
            policy: HebsPolicy::closed_loop(config.clone()),
            capable: histogram_capable(&config),
            config,
            scratch: FitScratch::default(),
            displayed: GrayImage::filled(1, 1, 0),
            bank,
            unattributed: Unattributed::default(),
        }
    }

    /// Blend candidates a closed-loop evaluation arbitrates.
    pub fn candidates(&self) -> u32 {
        match self.config.blend {
            BlendMode::Fixed(_) => 1,
            BlendMode::Adaptive => 3,
        }
    }

    /// Replays one served frame. `routed` says whether the serve routed
    /// the frame through the class bank (multi-class open loop).
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        record: &Record,
        frame: &GrayImage,
        path: Path,
        routed: bool,
    ) -> Result<(), String> {
        let Some(outcome) = record.outcome() else {
            return Ok(());
        };
        let id = record.id;
        let root = tracer.open("replay", None, id);
        let at = Some(root);
        let mut on_path = Duration::ZERO;

        let (ingest, spent) = tracer.time("imaging.ingest", at, id, || {
            FrameIngest::compute_auto(frame, 0)
        });
        on_path += spent;
        let (histogram, signature, _) = ingest.into_parts();
        let (_, spent) = tracer.time("core.classify", at, id, || self.bank.classify(&signature));
        if routed {
            on_path += spent;
        }

        let range = outcome.dynamic_range.unwrap_or(256).clamp(2, 256);
        let target = TargetRange::from_span(range).map_err(|e| e.to_string())?;
        let response = if path == Path::Miss {
            let (fit, fit_spent) = tracer.time("core.fit", at, id, || {
                self.policy.optimize_with_transform_using_histogram(
                    frame,
                    &histogram,
                    record.budget,
                    &mut self.scratch,
                )
            });
            let (fitted, _) = fit.map_err(|e| e.to_string())?;
            self.scratch.recycle_output(fitted.displayed);
            // One evaluation at the served range: the unit a closed-loop
            // miss repeats about nine times.
            let eval_spent = if self.capable {
                let (eval, spent) = tracer.time("core.eval", at, id, || {
                    evaluate_range_from_histogram(&self.config, &histogram, target)
                });
                eval.map_err(|e| e.to_string())?;
                spent
            } else {
                let (eval, spent) = tracer.time("core.eval", at, id, || {
                    evaluate_at_range_scratch(
                        &self.config,
                        frame,
                        &histogram,
                        target,
                        &mut self.scratch,
                    )
                });
                let eval = eval.map_err(|e| e.to_string())?;
                self.scratch.recycle_output(eval.displayed);
                spent
            };
            // An open-loop miss is one evaluation at the curve's predicted
            // range; a closed-loop miss is the whole search.
            on_path += if outcome.fit_evaluations <= 1 {
                eval_spent
            } else {
                fit_spent
            };
            // The evaluation's stages, on the pure-GHE candidate (w = 1):
            // blended curves cannot be built through the public API.
            let (ghe, _) = tracer.time("core.ghe", at, id, || equalize(&histogram, target));
            let ghe = ghe.map_err(|e| e.to_string())?;
            let segments = self
                .config
                .segments
                .min(self.config.driver.max_segments())
                .max(1);
            let (coarse, _) = tracer.time("transform.coarsen", at, id, || {
                coarsen(&ghe.transform, segments)
            });
            let coarse = coarse.map_err(|e| e.to_string())?;
            let beta = target.backlight_factor();
            let (programmed, _) = tracer.time("display.program", at, id, || {
                self.config.driver.program(&coarse.curve, beta)
            });
            let programmed = programmed.map_err(|e| e.to_string())?;
            let (response, _) = tracer.time("display.response", at, id, || {
                self.config.subsystem.response(&programmed.lut, beta)
            });
            let response = response.map_err(|e| e.to_string())?;
            tracer.time("display.apply", at, id, || {
                response.apply_into(frame, &mut self.displayed)
            });
            tracer.time("quality.windowed", at, id, || {
                self.config.measure.distortion(frame, &self.displayed)
            });
            response
        } else {
            let (response, _) = tracer.time("display.response", at, id, || {
                self.config.subsystem.response(&outcome.lut, outcome.beta)
            });
            let response = response.map_err(|e| e.to_string())?;
            let (_, spent) = tracer.time("display.apply", at, id, || {
                response.apply_into(frame, &mut self.displayed)
            });
            if path == Path::ApproxHit {
                on_path += spent;
            }
            response
        };
        let (_, spent) = tracer.time("quality.levels", at, id, || {
            self.config
                .measure
                .distortion_from_levels(&histogram, response.levels())
        });
        let (power, spent_power) = tracer.time("display.power", at, id, || {
            self.config.subsystem.power_from_histogram(
                &histogram,
                outcome.lut.entries(),
                outcome.beta,
            )
        });
        power.map_err(|e| e.to_string())?;
        if path == Path::ApproxHit {
            on_path += spent + spent_power;
        }
        tracer.close(root);

        let unattributed = (outcome.latency.as_secs_f64() - on_path.as_secs_f64()) * 1e6;
        if path == Path::Miss {
            self.unattributed.miss.push(unattributed);
        } else {
            self.unattributed.hit.push(unattributed);
        }
        Ok(())
    }
}

/// Picks at most [`REPLAY_CAP`] hits and as many misses, evenly spread over
/// the served records.
pub fn replay_sample(records: &[Record]) -> Vec<&Record> {
    let mut picked = Vec::new();
    for want_hit in [true, false] {
        let kind: Vec<&Record> = records
            .iter()
            .filter(|record| record.outcome().is_some_and(|o| o.hit == want_hit))
            .collect();
        let step = kind.len().div_ceil(REPLAY_CAP).max(1);
        picked.extend(kind.into_iter().step_by(step));
    }
    picked
}

/// A 3-class bank over (at most 16 of) `histograms`, for timing class
/// routing on workloads whose serve path has no bank of its own.
pub fn probe_bank(
    config: &PipelineConfig,
    histograms: &[Histogram],
) -> Result<CharacteristicBank, String> {
    let sketch = &histograms[..histograms.len().min(16)];
    CharacteristicBank::build(&histogram_config(config), sketch, &DEFAULT_RANGES, 3)
        .map_err(|e| e.to_string())
}

/// Times `characterize_from_histograms` over a 16-histogram sketch, three
/// times.
pub fn probe_characterize(
    tracer: &mut Tracer,
    config: &PipelineConfig,
    histograms: &[Histogram],
) -> Result<(), String> {
    let config = histogram_config(config);
    let sketch = &histograms[..histograms.len().min(16)];
    for _ in 0..3 {
        let (curve, _) = tracer.time("core.characterize", None, 0, || {
            DistortionCharacteristic::characterize_from_histograms(&config, sketch, &DEFAULT_RANGES)
        });
        curve.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Times admission on a one-tenant registry, for workloads that serve
/// without admission control.
pub fn probe_admit(tracer: &mut Tracer, config: &PipelineConfig) -> Result<(), String> {
    let registry = TenantRegistry::builder()
        .tenant(
            HebsPolicy::closed_loop(config.clone()),
            TenantSpec::named("probe"),
        )
        .build()
        .map_err(|e| e.to_string())?;
    let tenant = registry
        .id_of("probe")
        .expect("the probe tenant is registered");
    for _ in 0..256 {
        let (permit, _) = tracer.time("runtime.admit", None, 0, || registry.admit(tenant));
        drop(permit.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Everything the per-layer metrics are computed from.
pub struct LayerRun<'a> {
    /// The untraced half of the run (the overhead reference).
    pub untraced: &'a Phase,
    /// The traced half.
    pub traced: &'a Phase,
    /// Replay and probe spans.
    pub spans: Vec<Span>,
    /// Unattributed serve time of the replayed frames.
    pub unattributed: Unattributed,
    /// Hit latencies (µs) when the traced phase had none of its own.
    pub probe_hits: Vec<f64>,
    /// Restore durations (µs).
    pub restores: Vec<f64>,
    /// Blend candidates per evaluation.
    pub candidates: u32,
}

/// Reduces a traced run to the per-layer metrics and writes its spans.
fn per_layer(run: LayerRun<'_>, spans_path: &std::path::Path) -> Result<Vec<Metric>, String> {
    let mut all = run.traced.spans.clone();
    let offset = all.len();
    all.extend(run.spans.into_iter().map(|mut span| {
        span.parent = span.parent.map(|parent| parent + offset);
        span
    }));
    write_spans(&all, spans_path)?;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, self_us) in trace::self_micros_by_name(&all) {
        values.insert(metric_name(name), stats::median(&self_us));
    }

    let traced = run.traced;
    let outcomes: Vec<_> = traced.records.iter().filter_map(|r| r.outcome()).collect();
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    let hits: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.hit)
        .map(|o| micros(o.latency))
        .collect();
    let misses: Vec<&&crate::common::Outcome> = outcomes.iter().filter(|o| !o.hit).collect();
    let miss_latency: Vec<f64> = misses.iter().map(|o| micros(o.latency)).collect();
    let evals: Vec<f64> = misses
        .iter()
        .map(|o| f64::from(o.fit_evaluations))
        .collect();
    let evals_per_miss = stats::mean(&evals);
    values.insert("core.evals_per_miss", evals_per_miss);
    values.insert(
        "transform.coarsen_per_miss",
        evals_per_miss * f64::from(run.candidates),
    );
    let hit_sample = if hits.is_empty() {
        &run.probe_hits
    } else {
        &hits
    };
    values.insert("runtime.hit_us", stats::median(hit_sample));
    values.insert("runtime.miss_us", stats::median(&miss_latency));
    values.insert(
        "runtime.unattributed_hit_us",
        stats::median(&run.unattributed.hit),
    );
    values.insert(
        "runtime.unattributed_miss_us",
        stats::median(&run.unattributed.miss),
    );

    let served: Vec<&Record> = traced
        .records
        .iter()
        .filter(|r| r.outcome().is_some())
        .collect();
    let post: Vec<f64> = served.iter().map(|r| micros(r.post_serve)).collect();
    values.insert("runtime.post_serve_us", stats::mean(&post));
    values.insert(
        "runtime.rebuilds",
        served
            .iter()
            .filter(|r| r.post_serve > REBUILD_STALL)
            .count() as f64,
    );
    let waits: Vec<f64> = served.iter().map(|r| micros(r.queue_wait)).collect();
    values.insert("runtime.queue_wait_us", stats::median(&waits));
    values.insert("runtime.restore_us", stats::median(&run.restores));
    values.insert("runtime.cache_bytes", traced.cache_bytes as f64);

    let total = traced.stats.iter().fold([0u64; 8], |mut acc, s| {
        for (slot, value) in acc.iter_mut().zip([
            s.cache_hits,
            s.cache_misses,
            s.cache_coalesced,
            s.cache_rejected,
            s.open_loop_fallbacks,
            s.deadline_degraded,
            s.sheds,
            s.frames,
        ]) {
            *slot += value;
        }
        acc
    });
    let [hit, miss, coalesced, rejected, fallbacks, degraded, sheds, frames] = total;
    let lookups = hit + miss;
    let arrivals = traced.records.len() as u64;
    values.insert("runtime.lookups", lookups as f64);
    values.insert("runtime.misses", miss as f64);
    values.insert("runtime.arrivals", arrivals as f64);
    values.insert("runtime.hit_ratio", stats::ratio(hit, lookups));
    values.insert("runtime.coalesced_ratio", stats::ratio(coalesced, lookups));
    values.insert("runtime.rejected_ratio", stats::ratio(rejected, lookups));
    values.insert("runtime.fallback_ratio", stats::ratio(fallbacks, miss));
    values.insert("runtime.degraded_ratio", stats::ratio(degraded, frames));
    values.insert("runtime.shed_ratio", stats::ratio(sheds, arrivals));
    values.insert(
        "loadgen.lag_p99_us",
        stats::percentile(&traced.lags.micros(), 990).map_or(0.0, |q| q.value),
    );
    let untraced_p50 = quietest_median(run.untraced);
    let traced_p50 = quietest_median(traced);
    values.insert(
        "trace.overhead_pct",
        100.0 * (traced_p50 / untraced_p50.max(1e-9) - 1.0),
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric::new(name, value, unit))
                .ok_or_else(|| format!("the traced run produced no `{name}`"))
        })
        .collect()
}

/// Maps a span name to its metric name (`core.fit` → `core.fit_us`);
/// spans without a metric map to themselves and are ignored.
fn metric_name(span: &'static str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_us") == Some(span))
        .unwrap_or(span)
}

fn write_spans(spans: &[Span], path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(spans, &mut out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Times a restore attempt on a closed-loop engine, which has no bank to
/// restore and refuses the (empty) snapshot: the restore entry point's
/// fixed cost, for workloads that never warm-start.
pub fn probe_restore(engine: &Engine) -> f64 {
    let start = Instant::now();
    let refused = engine.restore_from_reader(&mut &[][..]).is_err();
    let spent = start.elapsed().as_secs_f64() * 1e6;
    debug_assert!(refused, "an empty snapshot is never accepted");
    spent
}

/// Checks both phases of a traced run and reduces it to the per-layer
/// metrics.
pub fn finish(run: LayerRun<'_>, spans_path: &std::path::Path) -> Result<Finished, String> {
    let untraced = check(run.untraced)?;
    let traced = check(run.traced)?;
    Ok(Finished {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: per_layer(run, spans_path)?,
    })
}
