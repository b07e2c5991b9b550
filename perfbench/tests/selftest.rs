//! Self-tests of the benchmark's own machinery: percentiles, schedules,
//! lag accounting, span self time and the result line.

use std::time::{Duration, Instant};

use hebs_perfbench::inputs::{self, Playlist};
use hebs_perfbench::report::{result_line, Metric};
use hebs_perfbench::schedule::{self, Burst, LagRecorder, TenantRate};
use hebs_perfbench::stats::{self, MIN_BEYOND};
use hebs_perfbench::trace::{self, Span, Tracer};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

#[test]
fn nearest_rank_picks_the_smallest_value_covering_the_share() {
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p50 = stats::nearest_rank(&sample, 500).expect("non-empty");
    assert_eq!(p50.value, 500.0);
    let p99 = stats::nearest_rank(&sample, 990).expect("non-empty");
    assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    assert_eq!(
        stats::nearest_rank(&sample, 1000).expect("non-empty").value,
        1000.0
    );
    assert_eq!(
        stats::nearest_rank(&sample, 0).expect("non-empty").value,
        1.0
    );
    // Rank ⌈0.99 · 7⌉ = 7: the maximum of a small sample.
    let small = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    assert_eq!(
        stats::nearest_rank(&small, 990).expect("non-empty").value,
        7.0
    );
    assert_eq!(
        stats::nearest_rank(&small, 500).expect("non-empty").value,
        4.0
    );
    assert!(stats::nearest_rank(&[], 500).is_none());
    assert!(stats::nearest_rank(&small, 1001).is_none());
}

#[test]
fn percentile_sorts_its_input() {
    let shuffled = [9.0, 1.0, 5.0, 3.0, 7.0];
    assert_eq!(
        stats::percentile(&shuffled, 500).expect("non-empty").value,
        5.0
    );
    assert_eq!(stats::median(&shuffled), 5.0);
    assert_eq!(stats::median(&[]), 0.0);
}

#[test]
fn the_tail_guard_needs_ten_samples_beyond_the_rank() {
    let at = |n: usize| {
        let sample: Vec<f64> = (0..n).map(|i| i as f64).collect();
        stats::nearest_rank(&sample, 990).expect("non-empty")
    };
    assert!(!at(999).supported(), "999 samples leave only 9 beyond p99");
    assert_eq!(at(999).beyond, 9);
    assert!(at(1000).supported());
    assert_eq!(at(1000).beyond, MIN_BEYOND);
    assert!(at(5000).supported());
}

#[test]
fn schedules_repeat_per_seed_and_differ_across_seeds() {
    let rates = [
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
    let burst = Burst {
        from: 0.6,
        until: 0.8,
    };
    let a = schedule::open_loop(7, Duration::from_secs(10), burst, &rates);
    let b = schedule::open_loop(7, Duration::from_secs(10), burst, &rates);
    let c = schedule::open_loop(8, Duration::from_secs(10), burst, &rates);
    assert_eq!(a, b, "the same seed gives the same schedule");
    assert_ne!(a, c, "another seed gives another schedule");
    assert!(
        a.windows(2).all(|w| w[0].due <= w[1].due),
        "sorted by due time"
    );
    assert!(a
        .iter()
        .all(|arrival| arrival.due < Duration::from_secs(10)));
    // The fixed-rate tenant arrives at 60 Hz; the jittered one bursts.
    let count = |tenant: usize, from: f64, until: f64| {
        a.iter()
            .filter(|x| {
                let t = x.due.as_secs_f64();
                x.tenant == tenant && t >= from && t < until
            })
            .count()
    };
    assert!((count(0, 0.0, 10.0) as i64 - 600).abs() <= 1);
    let steady = count(1, 0.0, 6.0) as f64 / 6.0;
    let bursting = count(1, 6.0, 8.0) as f64 / 2.0;
    assert!((steady - 15.0).abs() < 3.0, "steady rate {steady}");
    assert!((bursting - 40.0).abs() < 6.0, "burst rate {bursting}");
    // Per-tenant indices count up from 0 in due order.
    let indices: Vec<usize> = a
        .iter()
        .filter(|x| x.tenant == 1)
        .map(|x| x.index)
        .collect();
    assert_eq!(indices, (0..indices.len()).collect::<Vec<_>>());
}

#[test]
fn inputs_and_playlists_repeat_per_seed() {
    let frames = |seed| inputs::suite_variants(seed, 16, 40);
    assert_eq!(frames(3), frames(3));
    assert_ne!(frames(3), frames(4));
    assert_eq!(
        inputs::suite_variant(&inputs::suite_bases(16), 3, 39),
        frames(3)[39],
        "an on-demand photo is the pooled one"
    );
    let order = |seed| {
        let mut playlist = Playlist::new(seed, 8, 2);
        (0..32).map(|_| playlist.next_scene()).collect::<Vec<_>>()
    };
    assert_eq!(order(5), order(5));
    let played = order(5);
    assert!(
        played.chunks(2).all(|pair| pair[0] == pair[1]),
        "each scene repeats"
    );
    assert_eq!(played[..16], played[16..], "the order cycles");
    let mut scenes = played[..16].to_vec();
    scenes.sort_unstable();
    scenes.dedup();
    assert_eq!(
        scenes,
        (0..8).collect::<Vec<_>>(),
        "every scene plays once a cycle"
    );
}

#[test]
fn lag_counts_lateness_only() {
    let mut lags = LagRecorder::default();
    lags.record(ms(10), ms(10));
    lags.record(ms(20), ms(23));
    lags.record(ms(30), ms(29));
    assert_eq!(
        lags.micros(),
        vec![0.0, 3000.0, 0.0],
        "early hand-offs are on time"
    );
    let mut other = LagRecorder::default();
    other.record(ms(5), ms(7));
    let pooled = LagRecorder::merge([lags, other]);
    assert_eq!(pooled.micros(), vec![0.0, 3000.0, 0.0, 2000.0]);
}

#[test]
fn wait_until_never_returns_early() {
    let due = Instant::now() + ms(3);
    schedule::wait_until(due);
    assert!(Instant::now() >= due);
    let past = Instant::now();
    schedule::wait_until(past - ms(1));
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start: ms(start),
        end: ms(end),
        parent,
        frame: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("replay", 0, 100, None),
        span("core.fit", 10, 40, Some(0)),
        // Overlaps the fit: the overlap counts once.
        span("core.eval", 30, 50, Some(0)),
        // Sticks out of its parent: only 90..100 counts against it.
        span("display.apply", 90, 130, Some(0)),
        // A grandchild: only the fit's business.
        span("core.ghe", 15, 20, Some(1)),
        span("other", 0, 100, None),
    ];
    let own = trace::self_times(&spans);
    assert_eq!(own[0], ms(100 - 40 - 10), "10..50 and 90..100 are covered");
    assert_eq!(own[1], ms(30 - 5));
    assert_eq!(own[2], ms(20));
    assert_eq!(own[3], ms(40));
    assert_eq!(own[4], ms(5));
    assert_eq!(
        own[5],
        ms(100),
        "a root without children keeps its duration"
    );
    let by_name = trace::self_micros_by_name(&spans);
    assert_eq!(by_name["replay"], vec![50_000.0]);
}

#[test]
fn tracers_merge_and_serialize_spans() {
    let origin = Instant::now();
    let mut first = Tracer::new(origin);
    let root = first.open("replay", None, 7);
    let (value, _) = first.time("core.fit", Some(root), 7, || 41 + 1);
    first.close(root);
    assert_eq!(value, 42);
    let mut second = Tracer::new(origin);
    let parent = second.record("frame", None, 9, origin, origin + ms(2));
    second.record(
        "runtime.serve",
        Some(parent),
        9,
        origin + ms(1),
        origin + ms(2),
    );
    let spans = Tracer::merge([first, second]);
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[3].parent, Some(2), "parents are re-based on merge");
    assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);

    let mut out = Vec::new();
    trace::write_jsonl(&spans, &mut out).expect("writing to memory");
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[3].contains("\"name\":\"runtime.serve\""));
    assert!(lines[3].contains("\"parent\":2"));
    assert!(lines[3].contains("\"frame\":9"));
    assert!(lines[3].contains("\"start_ns\":1000000"));
    assert!(lines[0].contains("\"parent\":null"));
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let line = result_line(
        true,
        12,
        0,
        &[
            Metric::new("throughput_fps", 39.25, "fps"),
            Metric::new("setup_s", 0.5, "s"),
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
         \"throughput_fps\": {\"value\": 39.25, \"unit\": \"fps\"}, \
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}
