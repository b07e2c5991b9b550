//! The benchmark image suite.
//!
//! The paper's Table 1 reports power savings for 19 named images from the
//! USC SIPI database. Because those photographs cannot be redistributed, the
//! suite here generates a synthetic stand-in for each of the 19 names with a
//! tonal character chosen to resemble the original (portrait, landscape,
//! still life, fine texture, test chart, …). The substitution is documented
//! in the README's *Reproducing the paper* section: the backlight-scaling
//! policies only consume the image histogram and local structure, both of
//! which the generators control.

use crate::image::GrayImage;
use crate::synthetic;

/// Identifier for one image of the benchmark suite, named after the
/// corresponding USC SIPI photograph used in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SipiImage {
    Lena,
    Autumn,
    Football,
    Peppers,
    Greens,
    Pears,
    Onion,
    Trees,
    West,
    Pout,
    Sail,
    Splash,
    Girl,
    Baboon,
    TreeA,
    HouseA,
    GirlB,
    Testpat,
    Elaine,
}

impl SipiImage {
    /// All 19 benchmark identifiers in the order of the paper's Table 1.
    pub const ALL: [SipiImage; 19] = [
        SipiImage::Lena,
        SipiImage::Autumn,
        SipiImage::Football,
        SipiImage::Peppers,
        SipiImage::Greens,
        SipiImage::Pears,
        SipiImage::Onion,
        SipiImage::Trees,
        SipiImage::West,
        SipiImage::Pout,
        SipiImage::Sail,
        SipiImage::Splash,
        SipiImage::Girl,
        SipiImage::Baboon,
        SipiImage::TreeA,
        SipiImage::HouseA,
        SipiImage::GirlB,
        SipiImage::Testpat,
        SipiImage::Elaine,
    ];

    /// Human-readable name matching the paper's Table 1 row label.
    pub fn name(self) -> &'static str {
        match self {
            SipiImage::Lena => "Lena",
            SipiImage::Autumn => "Autumn",
            SipiImage::Football => "football",
            SipiImage::Peppers => "Peppers",
            SipiImage::Greens => "Greens",
            SipiImage::Pears => "Pears",
            SipiImage::Onion => "Onion",
            SipiImage::Trees => "Trees",
            SipiImage::West => "West",
            SipiImage::Pout => "Pout",
            SipiImage::Sail => "Sail",
            SipiImage::Splash => "Splash",
            SipiImage::Girl => "Girl",
            SipiImage::Baboon => "Baboon",
            SipiImage::TreeA => "TreeA",
            SipiImage::HouseA => "HouseA",
            SipiImage::GirlB => "GirlB",
            SipiImage::Testpat => "Testpat",
            SipiImage::Elaine => "Elaine",
        }
    }

    /// Deterministic seed used for the synthetic generator of this image.
    fn seed(self) -> u64 {
        // Stable per-image seeds; the exact values only matter for
        // reproducibility, not for the result shape.
        match self {
            SipiImage::Lena => 101,
            SipiImage::Autumn => 102,
            SipiImage::Football => 103,
            SipiImage::Peppers => 104,
            SipiImage::Greens => 105,
            SipiImage::Pears => 106,
            SipiImage::Onion => 107,
            SipiImage::Trees => 108,
            SipiImage::West => 109,
            SipiImage::Pout => 110,
            SipiImage::Sail => 111,
            SipiImage::Splash => 112,
            SipiImage::Girl => 113,
            SipiImage::Baboon => 114,
            SipiImage::TreeA => 115,
            SipiImage::HouseA => 116,
            SipiImage::GirlB => 117,
            SipiImage::Testpat => 118,
            SipiImage::Elaine => 119,
        }
    }

    /// Generates the synthetic stand-in image at the given square size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0.
    pub fn generate(self, size: u32) -> GrayImage {
        assert!(size > 0, "image size must be nonzero");
        let seed = self.seed();
        match self {
            // Portraits: trimodal histograms with a dominant mid/bright face.
            SipiImage::Lena | SipiImage::Girl | SipiImage::GirlB | SipiImage::Elaine => {
                synthetic::portrait(size, size, seed)
            }
            // Dark portrait (the SIPI "Pout" child photo is low key).
            SipiImage::Pout => {
                let mut img = synthetic::portrait(size, size, seed);
                synthetic::apply_gamma(&mut img, 1.5);
                img
            }
            // Outdoor scenes with a bright sky band.
            SipiImage::Trees | SipiImage::TreeA | SipiImage::Sail | SipiImage::West => {
                synthetic::landscape(size, size, seed)
            }
            // Autumn: bright, warm, high-key landscape.
            SipiImage::Autumn => {
                let mut img = synthetic::landscape(size, size, seed);
                synthetic::apply_gamma(&mut img, 0.8);
                img
            }
            // Still-life food scenes: several bright blobs on cloth.
            SipiImage::Peppers | SipiImage::Onion | SipiImage::Pears | SipiImage::Greens => {
                synthetic::still_life(size, size, seed)
            }
            // Sports scene: mid-tones with strong local activity.
            SipiImage::Football => {
                let mut img = synthetic::still_life(size, size, seed);
                synthetic::stretch_to_range(&mut img, 20, 230);
                img
            }
            // House exterior: bimodal walls/shadows.
            SipiImage::HouseA => {
                let mut img = synthetic::landscape(size, size, seed);
                synthetic::stretch_to_range(&mut img, 30, 220);
                img
            }
            // Splash: dark background with a bright subject.
            SipiImage::Splash => synthetic::low_key(size, size, seed),
            // Baboon: fine, wide-spectrum texture.
            SipiImage::Baboon => synthetic::fine_texture(size, size, seed),
            // Test chart: discrete grayscale bars.
            SipiImage::Testpat => synthetic::bars(size, size, 16),
        }
    }
}

impl std::fmt::Display for SipiImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full 19-image benchmark suite.
///
/// ```
/// use hebs_imaging::SipiSuite;
///
/// let suite = SipiSuite::standard();
/// assert_eq!(suite.len(), 19);
/// let (name, image) = &suite.entries()[0];
/// assert_eq!(name.name(), "Lena");
/// assert_eq!(image.width(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct SipiSuite {
    entries: Vec<(SipiImage, GrayImage)>,
}

impl SipiSuite {
    /// Default square image size (pixels per side) of the standard suite.
    pub const STANDARD_SIZE: u32 = 256;

    /// Generates the standard suite: all 19 images at 256×256.
    pub fn standard() -> Self {
        Self::with_size(Self::STANDARD_SIZE)
    }

    /// Generates the suite at a custom square size (useful to keep unit tests
    /// and benches fast).
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0.
    pub fn with_size(size: u32) -> Self {
        SipiSuite {
            entries: SipiImage::ALL
                .iter()
                .map(|&id| (id, id.generate(size)))
                .collect(),
        }
    }

    /// Number of images in the suite (always 19 for the standard suite).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty (never true for generated suites).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrow of the `(identifier, image)` pairs in Table 1 order.
    pub fn entries(&self) -> &[(SipiImage, GrayImage)] {
        &self.entries
    }

    /// Looks up one image by identifier.
    pub fn image(&self, id: SipiImage) -> Option<&GrayImage> {
        self.entries
            .iter()
            .find(|(entry_id, _)| *entry_id == id)
            .map(|(_, image)| image)
    }

    /// Iterator over the `(identifier, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(SipiImage, GrayImage)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn suite_contains_all_nineteen_images() {
        let suite = SipiSuite::with_size(64);
        assert_eq!(suite.len(), 19);
        assert!(!suite.is_empty());
        for (id, image) in suite.iter() {
            assert_eq!(image.width(), 64, "{id} has wrong width");
            assert_eq!(image.height(), 64, "{id} has wrong height");
        }
    }

    #[test]
    fn names_match_table_one() {
        assert_eq!(SipiImage::Lena.name(), "Lena");
        assert_eq!(SipiImage::Football.name(), "football");
        assert_eq!(SipiImage::Testpat.name(), "Testpat");
        assert_eq!(SipiImage::ALL.len(), 19);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SipiImage::Peppers.generate(64);
        let b = SipiImage::Peppers.generate(64);
        assert_eq!(a, b);
    }

    #[test]
    fn different_images_are_actually_different() {
        let lena = SipiImage::Lena.generate(64);
        let baboon = SipiImage::Baboon.generate(64);
        assert_ne!(lena, baboon);
    }

    #[test]
    fn suite_images_have_varied_histograms() {
        let suite = SipiSuite::with_size(96);
        let mut means: Vec<f64> = suite.iter().map(|(_, img)| img.mean()).collect();
        means.sort_by(|a, b| a.partial_cmp(b).expect("means are finite"));
        // The darkest and brightest scenes should differ by a healthy margin.
        assert!(means.last().unwrap() - means.first().unwrap() > 40.0);
    }

    #[test]
    fn every_image_has_nontrivial_content() {
        let suite = SipiSuite::with_size(96);
        for (id, image) in suite.iter() {
            let hist = Histogram::of(image);
            assert!(
                hist.occupied_levels() >= 8,
                "{id} has a degenerate histogram"
            );
            assert!(hist.dynamic_range() >= 32, "{id} has almost no range");
        }
    }

    #[test]
    fn lookup_by_identifier() {
        let suite = SipiSuite::with_size(32);
        assert!(suite.image(SipiImage::Baboon).is_some());
        assert_eq!(
            suite.image(SipiImage::Baboon).unwrap(),
            &SipiImage::Baboon.generate(32)
        );
    }

    #[test]
    fn display_uses_table_name() {
        assert_eq!(SipiImage::HouseA.to_string(), "HouseA");
    }

    #[test]
    #[should_panic(expected = "image size must be nonzero")]
    fn zero_size_panics() {
        let _ = SipiImage::Lena.generate(0);
    }
}
