//! Compiled 256-entry lookup tables.
//!
//! The LCD source driver ultimately applies the pixel transformation as a
//! mapping from each of the 256 input grayscale levels to an output level
//! (realized through the reference voltages). [`LookupTable`] is that
//! compiled form; it is what gets applied to images and what the hardware
//! model in `hebs-display` consumes.

use std::sync::Arc;

use hebs_imaging::{apply_lut, apply_lut_into, GrayImage, RgbImage};

/// A compiled level-to-level mapping for 8-bit pixels.
///
/// The table is immutable once built and stores its entries behind an
/// [`Arc`], so cloning is a reference-count bump: the runtime's
/// transformation cache and worker threads share one programmed table
/// without copying it per frame.
///
/// ```
/// use hebs_transform::LookupTable;
///
/// let lut = LookupTable::from_fn(|level| level.saturating_add(10));
/// assert_eq!(lut.map(0), 10);
/// assert_eq!(lut.map(250), 255);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTable {
    entries: Arc<[u8; 256]>,
}

impl Default for LookupTable {
    fn default() -> Self {
        Self::identity()
    }
}

impl LookupTable {
    /// The identity mapping: every level maps to itself.
    pub fn identity() -> Self {
        Self::from_fn(|level| level)
    }

    /// Builds a table by evaluating `f` at every input level.
    pub fn from_fn<F>(mut f: F) -> Self
    where
        F: FnMut(u8) -> u8,
    {
        let mut entries = [0u8; 256];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = f(i as u8);
        }
        LookupTable {
            entries: Arc::new(entries),
        }
    }

    /// Builds a table from a normalized transfer function `φ: [0,1] → [0,1]`.
    ///
    /// Out-of-range outputs are clamped, mirroring what the display hardware
    /// does when a requested grayscale voltage exceeds the supply rails.
    pub fn from_normalized<F>(mut phi: F) -> Self
    where
        F: FnMut(f64) -> f64,
    {
        Self::from_fn(|level| {
            let x = f64::from(level) / 255.0;
            (phi(x).clamp(0.0, 1.0) * 255.0).round() as u8
        })
    }

    /// Wraps an explicit entry array.
    pub fn from_entries(entries: [u8; 256]) -> Self {
        LookupTable {
            entries: Arc::new(entries),
        }
    }

    /// Maps one input level to its output level.
    pub fn map(&self, level: u8) -> u8 {
        self.entries[level as usize]
    }

    /// Borrow of the raw 256-entry table.
    pub fn entries(&self) -> &[u8; 256] {
        &self.entries
    }

    /// Whether the table is non-decreasing (a valid grayscale mapping: the
    /// hardware voltage ladder cannot produce a decreasing curve).
    pub fn is_monotone(&self) -> bool {
        self.entries.windows(2).all(|w| w[0] <= w[1])
    }

    /// Composes two tables: the result maps `level` to `outer.map(self.map(level))`.
    pub fn then(&self, outer: &LookupTable) -> LookupTable {
        LookupTable::from_fn(|level| outer.map(self.map(level)))
    }

    /// Applies the table to a grayscale image.
    ///
    /// Allocates the output; serve paths with a reusable buffer should use
    /// [`LookupTable::apply_into`].
    pub fn apply(&self, image: &GrayImage) -> GrayImage {
        apply_lut(image, &self.entries)
    }

    /// Applies the table into a caller-provided output image, reshaping it
    /// to the source dimensions and reusing its allocation when the
    /// capacity suffices. Every pixel of `out` is overwritten.
    pub fn apply_into(&self, image: &GrayImage, out: &mut GrayImage) {
        apply_lut_into(image, &self.entries, out);
    }

    /// Applies the table to every channel of an RGB image.
    pub fn apply_rgb(&self, image: &RgbImage) -> RgbImage {
        image.map_channels(|v| self.map(v))
    }

    /// Maximum output level produced by the table.
    pub fn max_output(&self) -> u8 {
        *self.entries.iter().max().expect("table has 256 entries")
    }

    /// Minimum output level produced by the table.
    pub fn min_output(&self) -> u8 {
        *self.entries.iter().min().expect("table has 256 entries")
    }

    /// Dynamic range of the output: `max_output − min_output + 1`.
    pub fn output_dynamic_range(&self) -> u32 {
        u32::from(self.max_output()) - u32::from(self.min_output()) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_every_level_to_itself() {
        let lut = LookupTable::identity();
        for level in 0..=255u8 {
            assert_eq!(lut.map(level), level);
        }
        assert!(lut.is_monotone());
        assert_eq!(lut.output_dynamic_range(), 256);
        assert_eq!(LookupTable::default(), lut);
    }

    #[test]
    fn from_normalized_clamps() {
        let lut = LookupTable::from_normalized(|x| x * 2.0);
        assert_eq!(lut.map(0), 0);
        assert_eq!(lut.map(127), 254);
        assert_eq!(lut.map(200), 255);
        assert!(lut.is_monotone());
    }

    #[test]
    fn monotonicity_detection() {
        let mut entries = [0u8; 256];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = i as u8;
        }
        entries[100] = 50;
        assert!(!LookupTable::from_entries(entries).is_monotone());
    }

    #[test]
    fn composition_order() {
        let add_ten = LookupTable::from_fn(|v| v.saturating_add(10));
        let halve = LookupTable::from_fn(|v| v / 2);
        let composed = add_ten.then(&halve);
        // First add ten, then halve.
        assert_eq!(composed.map(10), 10);
        assert_eq!(composed.map(0), 5);
    }

    #[test]
    fn apply_to_images() {
        let lut = LookupTable::from_fn(|v| 255 - v);
        let img = GrayImage::from_fn(4, 4, |x, _| (x * 50) as u8);
        let inverted = lut.apply(&img);
        assert_eq!(inverted.get(0, 0), Some(255));
        assert_eq!(inverted.get(3, 0), Some(105));

        let rgb = RgbImage::from_fn(2, 2, |_, _| hebs_imaging::Rgb::new(0, 100, 255));
        let inv_rgb = lut.apply_rgb(&rgb);
        assert_eq!(inv_rgb.get(0, 0), Some(hebs_imaging::Rgb::new(255, 155, 0)));
    }

    #[test]
    fn apply_rgb_is_channel_independent_and_shape_preserving() {
        let lut = LookupTable::from_fn(|v| v / 2 + 40);
        let rgb = RgbImage::from_fn(5, 3, |x, y| {
            hebs_imaging::Rgb::new((x * 50) as u8, (y * 80) as u8, (x * y * 20) as u8)
        });
        let mapped = lut.apply_rgb(&rgb);
        assert_eq!((mapped.width(), mapped.height()), (5, 3));
        for (before, after) in rgb.pixels().zip(mapped.pixels()) {
            assert_eq!(after.r, lut.map(before.r));
            assert_eq!(after.g, lut.map(before.g));
            assert_eq!(after.b, lut.map(before.b));
        }
        // The identity table is a no-op on color images too.
        assert_eq!(LookupTable::identity().apply_rgb(&rgb), rgb);
    }

    #[test]
    fn apply_rgb_on_gray_pixels_matches_the_grayscale_path() {
        // A gray RGB image pushed through the LUT per channel must agree
        // with converting to luminance first and applying the LUT there:
        // the luminance round-trip the color pipeline relies on.
        let lut = LookupTable::from_fn(|v| v.saturating_add(25));
        let rgb = RgbImage::from_fn(8, 8, |x, y| hebs_imaging::Rgb::gray((x * 31 + y * 3) as u8));
        let gray_then_lut = lut.apply(&rgb.to_luminance());
        let lut_then_gray = lut.apply_rgb(&rgb).to_luminance();
        assert_eq!(gray_then_lut, lut_then_gray);
        // Rec. 601 luma of a gray pixel is the gray level itself.
        for level in [0u8, 1, 100, 254, 255] {
            assert_eq!(hebs_imaging::Rgb::gray(level).luminance(), level);
        }
    }

    #[test]
    fn output_range_of_compressive_table() {
        let lut = LookupTable::from_fn(|v| 100 + v / 4);
        assert_eq!(lut.min_output(), 100);
        assert_eq!(lut.max_output(), 163);
        assert_eq!(lut.output_dynamic_range(), 64);
    }
}
