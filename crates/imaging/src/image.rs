//! Owned raster image containers.

use crate::error::{ImageError, Result};
use crate::pixel::{normalize, Rgb, MAX_LEVEL};

/// An owned 8-bit grayscale image stored in row-major order.
///
/// This is the primary data type of the HEBS pipeline: the pixel values are
/// the grayscale levels `X ∈ [0, 255]` whose histogram drives the backlight
/// scaling policy.
///
/// ```
/// use hebs_imaging::GrayImage;
///
/// let ramp = GrayImage::from_fn(256, 1, |x, _| x as u8);
/// assert_eq!(ramp.get(0, 0), Some(0));
/// assert_eq!(ramp.get(255, 0), Some(255));
/// assert_eq!(ramp.dynamic_range(), 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black (all-zero) image of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] when either dimension is 0.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                buffer_len: 0,
            });
        }
        Ok(GrayImage {
            width,
            height,
            data: vec![0; width as usize * height as usize],
        })
    }

    /// Creates an image filled with a constant level.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn filled(width: u32, height: u32, level: u8) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage {
            width,
            height,
            data: vec![level; width as usize * height as usize],
        }
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn from_fn<F>(width: u32, height: u32, mut f: F) -> Self
    where
        F: FnMut(u32, u32) -> u8,
    {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] when the buffer length does
    /// not equal `width * height` or either dimension is 0.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 || data.len() != width as usize * height as usize {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                buffer_len: data.len(),
            });
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels in the image.
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Borrow of the raw row-major pixel buffer.
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutable borrow of the raw row-major pixel buffer.
    pub fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reshapes the image in place to the given dimensions, reusing the
    /// existing allocation whenever its capacity suffices. The pixel
    /// contents after a reshape are unspecified; callers are expected to
    /// overwrite every pixel. This is the primitive behind the pipeline's
    /// reusable frame-buffer scratch.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn reshape(&mut self, width: u32, height: u32) {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        self.width = width;
        self.height = height;
        self.data.resize(width as usize * height as usize, 0);
    }

    /// Returns the pixel at `(x, y)`, or `None` if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Option<u8> {
        if x < self.width && y < self.height {
            Some(self.data[self.index(x, y)])
        } else {
            None
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfBounds`] when `(x, y)` is outside of the
    /// image.
    pub fn set(&mut self, x: u32, y: u32, level: u8) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(ImageError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        let idx = self.index(x, y);
        self.data[idx] = level;
        Ok(())
    }

    /// Iterator over all pixel values in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = u8> + '_ {
        self.data.iter().copied()
    }

    /// Iterator over `(x, y, value)` triples in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, u8)> + '_ {
        let width = self.width;
        self.data.iter().enumerate().map(move |(i, &v)| {
            let x = (i as u32) % width;
            let y = (i as u32) / width;
            (x, y, v)
        })
    }

    /// Returns a new image with `f` applied to every pixel value.
    pub fn map<F>(&self, mut f: F) -> GrayImage
    where
        F: FnMut(u8) -> u8,
    {
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every pixel value in place.
    pub fn map_in_place<F>(&mut self, mut f: F)
    where
        F: FnMut(u8) -> u8,
    {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Minimum pixel level present in the image.
    pub fn min_level(&self) -> u8 {
        self.data.iter().copied().min().unwrap_or(0)
    }

    /// Maximum pixel level present in the image.
    pub fn max_level(&self) -> u8 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Dynamic range of the image: number of levels spanned,
    /// `max − min + 1`.
    ///
    /// The paper's transformation targets a *reduced* dynamic range `R`; this
    /// accessor measures the range actually occupied by an image.
    pub fn dynamic_range(&self) -> u32 {
        u32::from(self.max_level()) - u32::from(self.min_level()) + 1
    }

    /// Mean pixel value (as a float level in `[0, 255]`).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.data.len() as f64
    }

    /// Mean of the *normalized* pixel values `x = X/255`.
    pub fn normalized_mean(&self) -> f64 {
        self.mean() / f64::from(MAX_LEVEL)
    }

    /// Iterator over normalized pixel values `x = X/255`.
    pub fn normalized_pixels(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().map(|&v| normalize(v))
    }

    fn index(&self, x: u32, y: u32) -> usize {
        y as usize * self.width as usize + x as usize
    }
}

/// An owned 8-bit RGB image stored in row-major order.
///
/// HEBS operates on luminance; color images are converted with
/// [`RgbImage::to_luminance`] before being fed to the pipeline, and the
/// resulting pixel transformation is applied per channel.
///
/// ```
/// use hebs_imaging::{Rgb, RgbImage};
///
/// let img = RgbImage::from_fn(4, 4, |x, y| Rgb::new((x * 60) as u8, (y * 60) as u8, 0));
/// let luma = img.to_luminance();
/// assert_eq!(luma.width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: u32,
    height: u32,
    data: Vec<Rgb>,
}

impl RgbImage {
    /// Creates a black image of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] when either dimension is 0.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                buffer_len: 0,
            });
        }
        Ok(RgbImage {
            width,
            height,
            data: vec![Rgb::default(); width as usize * height as usize],
        })
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn from_fn<F>(width: u32, height: u32, mut f: F) -> Self
    where
        F: FnMut(u32, u32) -> Rgb,
    {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels in the image.
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Returns the pixel at `(x, y)`, or `None` if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Option<Rgb> {
        if x < self.width && y < self.height {
            Some(self.data[y as usize * self.width as usize + x as usize])
        } else {
            None
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfBounds`] when `(x, y)` is outside of the
    /// image.
    pub fn set(&mut self, x: u32, y: u32, pixel: Rgb) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(ImageError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        let idx = y as usize * self.width as usize + x as usize;
        self.data[idx] = pixel;
        Ok(())
    }

    /// Iterator over all pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = Rgb> + '_ {
        self.data.iter().copied()
    }

    /// Converts the image to grayscale using Rec. 601 luma weights.
    pub fn to_luminance(&self) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|p| p.luminance()).collect(),
        }
    }

    /// Returns a new image with `f` applied to every channel of every pixel.
    ///
    /// This is how a grayscale pixel-transformation function (a lookup table
    /// on levels) is applied to a colour image: each of R, G and B is pushed
    /// through the same curve, which preserves hue to first order while
    /// raising transmittance.
    pub fn map_channels<F>(&self, mut f: F) -> RgbImage
    where
        F: FnMut(u8) -> u8,
    {
        RgbImage {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .map(|p| Rgb::new(f(p.r), f(p.g), f(p.b)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(GrayImage::new(0, 10).is_err());
        assert!(GrayImage::new(10, 0).is_err());
        assert!(RgbImage::new(0, 1).is_err());
    }

    #[test]
    fn from_raw_checks_length() {
        assert!(GrayImage::from_raw(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::from_raw(2, 2, vec![0; 5]).is_err());
        assert!(GrayImage::from_raw(2, 2, vec![0; 3]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = GrayImage::new(4, 3).unwrap();
        img.set(2, 1, 200).unwrap();
        assert_eq!(img.get(2, 1), Some(200));
        assert_eq!(img.get(4, 1), None);
        assert!(img.set(0, 3, 1).is_err());
    }

    #[test]
    fn from_fn_is_row_major() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 3 + x) as u8);
        assert_eq!(img.as_raw(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn enumerate_pixels_coordinates() {
        let img = GrayImage::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        let collected: Vec<_> = img.enumerate_pixels().collect();
        assert_eq!(collected[0], (0, 0, 0));
        assert_eq!(collected[4], (1, 1, 11));
        assert_eq!(collected.len(), 6);
    }

    #[test]
    fn map_preserves_dimensions() {
        let img = GrayImage::filled(5, 7, 10);
        let doubled = img.map(|v| v * 2);
        assert_eq!(doubled.width(), 5);
        assert_eq!(doubled.height(), 7);
        assert!(doubled.pixels().all(|v| v == 20));
    }

    #[test]
    fn map_in_place_matches_map() {
        let img = GrayImage::from_fn(8, 8, |x, y| (x * y) as u8);
        let mapped = img.map(|v| v.saturating_add(5));
        let mut in_place = img.clone();
        in_place.map_in_place(|v| v.saturating_add(5));
        assert_eq!(mapped, in_place);
    }

    #[test]
    fn reshape_reuses_capacity_and_sets_dimensions() {
        let mut img = GrayImage::filled(8, 8, 3);
        let capacity_before = img.data.capacity();
        img.reshape(4, 4);
        assert_eq!((img.width(), img.height()), (4, 4));
        assert_eq!(img.pixel_count(), 16);
        assert_eq!(img.data.capacity(), capacity_before, "shrink keeps buffer");
        img.as_raw_mut().fill(9);
        assert!(img.pixels().all(|v| v == 9));
        img.reshape(16, 2);
        assert_eq!(img.pixel_count(), 32);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn reshape_rejects_zero_dimensions() {
        GrayImage::filled(2, 2, 0).reshape(0, 2);
    }

    #[test]
    fn dynamic_range_of_constant_image_is_one() {
        let img = GrayImage::filled(4, 4, 128);
        assert_eq!(img.dynamic_range(), 1);
        assert_eq!(img.min_level(), 128);
        assert_eq!(img.max_level(), 128);
    }

    #[test]
    fn dynamic_range_of_full_ramp() {
        let img = GrayImage::from_fn(256, 1, |x, _| x as u8);
        assert_eq!(img.dynamic_range(), 256);
    }

    #[test]
    fn mean_of_ramp() {
        let img = GrayImage::from_fn(256, 1, |x, _| x as u8);
        assert!((img.mean() - 127.5).abs() < 1e-9);
        assert!((img.normalized_mean() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn rgb_to_luminance_of_gray_image_is_identity() {
        let img = RgbImage::from_fn(4, 4, |x, y| Rgb::gray((x * 16 + y) as u8));
        let luma = img.to_luminance();
        for (x, y, v) in luma.enumerate_pixels() {
            assert_eq!(v, (x * 16 + y) as u8);
        }
    }

    #[test]
    fn rgb_map_channels_applies_curve() {
        let img = RgbImage::from_fn(2, 2, |_, _| Rgb::new(10, 20, 30));
        let brighter = img.map_channels(|v| v + 100);
        assert_eq!(brighter.get(0, 0), Some(Rgb::new(110, 120, 130)));
    }

    #[test]
    fn rgb_get_set() {
        let mut img = RgbImage::new(3, 3).unwrap();
        img.set(1, 2, Rgb::new(1, 2, 3)).unwrap();
        assert_eq!(img.get(1, 2), Some(Rgb::new(1, 2, 3)));
        assert_eq!(img.get(3, 0), None);
        assert!(img.set(9, 9, Rgb::default()).is_err());
    }

    #[test]
    fn normalized_pixels_in_unit_interval() {
        let img = GrayImage::from_fn(16, 16, |x, y| (x * 16 + y) as u8);
        assert!(img.normalized_pixels().all(|x| (0.0..=1.0).contains(&x)));
    }
}
