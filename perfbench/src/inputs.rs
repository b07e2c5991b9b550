//! Seeded input synthesis. Everything here runs before set-up and timing,
//! except [`suite_variant`], which photo clients call between serves; the
//! runtime only ever sees the finished frames.

use std::ops::Range;

use hebs_imaging::rng::StdRng;
use hebs_imaging::{crop, flip_horizontal, synthetic, GrayImage, SipiSuite};

/// Mixes a workload seed with a stream tag so independent streams of one
/// run never share random numbers.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// `count` distinct seeded variants of the 19-image suite at `size`,
/// interleaved so that every prefix cycles through all 19 images: frame
/// `k` is a noisy (and every other round mirrored) copy of image `k % 19`.
pub fn suite_variants(seed: u64, size: u32, count: usize) -> Vec<GrayImage> {
    let bases = suite_bases(size);
    (0..count).map(|k| suite_variant(&bases, seed, k)).collect()
}

/// Frame `k` of [`suite_variants`], derived on demand from the
/// [`suite_bases`]: a few microseconds at 64×64, so a stream of distinct
/// photos never runs out however fast it is served.
pub fn suite_variant(bases: &[GrayImage], seed: u64, k: usize) -> GrayImage {
    let base = &bases[k % bases.len()];
    let round = k / bases.len();
    let mut frame = if round % 2 == 1 {
        flip_horizontal(base)
    } else {
        base.clone()
    };
    synthetic::add_sensor_noise(&mut frame, 3, stream_seed(seed, k as u64));
    frame
}

/// The 19 noiseless suite images: warm-up frames that no timed frame equals.
pub fn suite_bases(size: u32) -> Vec<GrayImage> {
    SipiSuite::with_size(size)
        .entries()
        .iter()
        .map(|(_, image)| image.clone())
        .collect()
}

/// Nearest-neighbour upscale by an integer factor (cheap stand-in for
/// synthesizing full-resolution scenes, which costs ~150 ms a frame).
fn upscale(small: &GrayImage, factor: u32) -> GrayImage {
    let width = small.width() * factor;
    let raw = small.as_raw();
    let mut data = Vec::with_capacity((width * small.height() * factor) as usize);
    for y in 0..small.height() {
        let row = &raw[(y * small.width()) as usize..((y + 1) * small.width()) as usize];
        let start = data.len();
        for &level in row {
            data.extend(std::iter::repeat(level).take(factor as usize));
        }
        for _ in 1..factor {
            data.extend_from_within(start..start + width as usize);
        }
    }
    GrayImage::from_raw(width, small.height() * factor, data)
        .expect("upscaled buffer matches its shape")
}

/// A bank of 1080p video scenes, each served as one batch.
pub struct VideoBank {
    /// Every frame of every scene, scene after scene.
    pub frames: Vec<GrayImage>,
    /// The frame range of each scene.
    pub scenes: Vec<Range<usize>>,
}

/// Distinct frames per scene.
pub const SCENE_FRAMES: usize = 6;

/// Builds eight 1920×1080 scenes of [`SCENE_FRAMES`] frames, all with
/// per-frame sensor noise: five static shots of different content, a slow
/// pan across a wide landscape, a short fade towards black, and a hard cut
/// from a low-key to a high-key shot half way through the scene.
pub fn video_bank(seed: u64) -> VideoBank {
    const FACTOR: u32 = 4;
    let (w, h) = (1920 / FACTOR, 1080 / FACTOR);
    let content = |tag: u64| stream_seed(seed, 100 + tag);
    let statics = [
        synthetic::still_life(w, h, content(0)),
        synthetic::portrait(w, h, content(1)),
        synthetic::low_key(w, h, content(2)),
        synthetic::high_key(w, h, content(3)),
        synthetic::landscape(w, h, content(4)),
    ];
    let mut scenes: Vec<Vec<GrayImage>> = statics
        .iter()
        .map(|shot| vec![upscale(shot, FACTOR); SCENE_FRAMES])
        .collect();
    // The moving scenes keep their content across seeds (only their noise
    // is seeded): how many cache signatures a pan or a fade spans depends
    // on its content, and a seed must not change the run's hit ratio.
    let fixed = |tag: u64| stream_seed(0x5CE7E, tag);
    let wide = upscale(&synthetic::landscape(w + w / 4, h, fixed(5)), FACTOR);
    let step = (wide.width() - 1920) / SCENE_FRAMES as u32;
    scenes.push(
        (0..SCENE_FRAMES as u32)
            .map(|i| {
                crop(&wide, step * i, 0, 1920, 1080).expect("the pan window lies inside the scene")
            })
            .collect(),
    );
    let fading = upscale(&synthetic::still_life(w, h, fixed(6)), FACTOR);
    scenes.push(
        (0..SCENE_FRAMES)
            .map(|i| {
                let gain = 1.0 - 0.2 * i as f64 / SCENE_FRAMES as f64;
                fading.map(|v| (f64::from(v) * gain).round() as u8)
            })
            .collect(),
    );
    let dark = upscale(&synthetic::low_key(w, h, content(7)), FACTOR);
    let bright = upscale(&synthetic::high_key(w, h, content(8)), FACTOR);
    scenes.push(
        (0..SCENE_FRAMES)
            .map(|i| {
                if i < SCENE_FRAMES / 2 {
                    dark.clone()
                } else {
                    bright.clone()
                }
            })
            .collect(),
    );

    let mut frames = Vec::with_capacity(scenes.len() * SCENE_FRAMES);
    let mut ranges = Vec::with_capacity(scenes.len());
    for (s, scene) in scenes.into_iter().enumerate() {
        let start = frames.len();
        for (i, mut frame) in scene.into_iter().enumerate() {
            synthetic::add_sensor_noise(&mut frame, 2, stream_seed(seed, (s * 1000 + i) as u64));
            frames.push(frame);
        }
        ranges.push(start..frames.len());
    }
    VideoBank {
        frames,
        scenes: ranges,
    }
}

/// The video's scene order: a seeded permutation of the scenes, played in
/// a cycle, each scene `repeats` times in a row (its frames shown again,
/// as a low-frame-rate source is on a faster display). Every run serves
/// the same content mix whatever its seed.
pub struct Playlist {
    order: Vec<usize>,
    repeats: usize,
    step: usize,
}

impl Playlist {
    /// A playlist over `scenes` scenes.
    pub fn new(seed: u64, scenes: usize, repeats: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 7));
        let mut order: Vec<usize> = (0..scenes).collect();
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Playlist {
            order,
            repeats: repeats.max(1),
            step: 0,
        }
    }

    /// The scene to serve next.
    pub fn next_scene(&mut self) -> usize {
        let scene = self.order[(self.step / self.repeats) % self.order.len()];
        self.step += 1;
        scene
    }
}

/// `count` small UI frames in three families (dark mode, light mode and
/// chart-like screens), family `k % 3` for frame `k`.
///
/// The screens are an application's fixed designs and take no seed: the
/// class bank built from them, and so the size and cost of every rebuild
/// the display server's tail is made of, are the same in every run.
pub fn ui_frames(count: usize, first: u64) -> Vec<GrayImage> {
    const W: u32 = 128;
    const H: u32 = 80;
    const DESIGN: u64 = 0x0001_5C4E;
    (0..count as u64)
        .map(|k| {
            let s = stream_seed(DESIGN, first + k);
            let mut frame = match k % 3 {
                0 => synthetic::low_key(W, H, s),
                1 => synthetic::high_key(W, H, s),
                _ => {
                    let mut chart = synthetic::bars(W, H, 8 + (s % 9) as u32);
                    synthetic::add_gaussian_blob(&mut chart, 64.0, 40.0, 20.0, 60.0);
                    chart
                }
            };
            synthetic::add_sensor_noise(&mut frame, 1, stream_seed(DESIGN, 10_000 + first + k));
            frame
        })
        .collect()
}
