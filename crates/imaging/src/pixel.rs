//! Pixel primitives.
//!
//! The HEBS paper works with 8-bit grayscale values `X ∈ [0, 255]` and their
//! normalized form `x = X / 255 ∈ [0, 1]`. Color images are handled by
//! converting to luminance first (the backlight and transmissivity models act
//! on luminance).

/// Maximum representable grayscale level of an 8-bit display (`255`).
pub const MAX_LEVEL: u8 = u8::MAX;

/// An 8-bit RGB pixel.
///
/// ```
/// use hebs_imaging::Rgb;
/// let white = Rgb::new(255, 255, 255);
/// assert_eq!(white.luminance(), 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a new pixel from its three channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray pixel with all three channels equal to `level`.
    pub const fn gray(level: u8) -> Self {
        Rgb {
            r: level,
            g: level,
            b: level,
        }
    }

    /// Rec. 601 luma of the pixel, rounded to the nearest integer level.
    ///
    /// The weights (0.299, 0.587, 0.114) are the classical CRT/LCD luma
    /// weights; the LCD transmissivity models in the paper act on this value.
    pub fn luminance(self) -> u8 {
        let y = 0.299 * f64::from(self.r) + 0.587 * f64::from(self.g) + 0.114 * f64::from(self.b);
        y.round().clamp(0.0, 255.0) as u8
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(value: [u8; 3]) -> Self {
        Rgb::new(value[0], value[1], value[2])
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(value: Rgb) -> Self {
        [value.r, value.g, value.b]
    }
}

/// Converts an 8-bit level to its normalized value `x = X / 255`.
pub(crate) fn normalize(level: u8) -> f64 {
    f64::from(level) / f64::from(MAX_LEVEL)
}

/// Converts a normalized value in `[0, 1]` back to an 8-bit level, clamping
/// out-of-range inputs.
#[cfg(test)]
pub(crate) fn denormalize(value: f64) -> u8 {
    (value * f64::from(MAX_LEVEL)).round().clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luminance_of_primaries() {
        assert_eq!(Rgb::new(255, 0, 0).luminance(), 76);
        assert_eq!(Rgb::new(0, 255, 0).luminance(), 150);
        assert_eq!(Rgb::new(0, 0, 255).luminance(), 29);
    }

    #[test]
    fn luminance_of_gray_is_identity() {
        for level in [0u8, 1, 17, 100, 200, 255] {
            assert_eq!(Rgb::gray(level).luminance(), level);
        }
    }

    #[test]
    fn conversion_round_trip() {
        let px = Rgb::new(12, 200, 77);
        let arr: [u8; 3] = px.into();
        assert_eq!(Rgb::from(arr), px);
    }

    #[test]
    fn normalize_bounds() {
        assert_eq!(normalize(0), 0.0);
        assert_eq!(normalize(255), 1.0);
        assert_eq!(denormalize(0.0), 0);
        assert_eq!(denormalize(1.0), 255);
        assert_eq!(denormalize(2.0), 255);
        assert_eq!(denormalize(-1.0), 0);
    }

    #[test]
    fn denormalize_rounds_to_nearest() {
        assert_eq!(denormalize(0.5), 128);
        assert_eq!(denormalize(127.4 / 255.0), 127);
    }
}
