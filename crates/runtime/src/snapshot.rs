//! Versioned characteristic snapshots: the warm-start wire format.
//!
//! A restarted engine re-learns its distortion characteristics from live
//! traffic — a blue-green deploy eats the full cold-start savings cliff
//! before the per-class bank recovers open-loop serving. This module gives
//! the learned state a durable form: a **snapshot** serializes a tenant's
//! installed characteristic bank (centroids, per-class curve samples,
//! [`CurveFit`] mode, generations) plus an optional spill of the hottest
//! transformation-cache entries, so a canary node can characterize once
//! and a whole fleet can restore and serve warm from its first frame.
//!
//! The format is deliberately boring: std-only, little-endian, versioned
//! and self-checking —
//!
//! * an 8-byte magic (`HEBSSNAP`), a format version (how bytes are laid
//!   out) and a schema version (what the records mean);
//! * per-section length framing (`BANK`, `CACHE`), so readers can skip or
//!   bound-check sections without trusting their contents;
//! * a trailing seeded 128-bit content checksum using the same
//!   SplitMix64-finalizer mixing as `hebs_imaging::frame_hash128`, so a
//!   truncated or bit-flipped file is refused before any record is
//!   interpreted.
//!
//! Decoding never panics: every failure is a typed [`SnapshotError`], and
//! the engine-level restore ([`Engine::restore_from_reader`]) counts the
//! rejection ([`EngineStats::snapshot_rejected`]) and keeps serving cold.
//! Restored state re-enters through the existing validated paths
//! (`install_bank`, normal cache inserts), so a snapshot can never place
//! the engine somewhere live traffic couldn't.
//!
//! [`Engine::restore_from_reader`]: crate::Engine::restore_from_reader
//! [`EngineStats::snapshot_rejected`]: crate::EngineStats::snapshot_rejected
//! [`CurveFit`]: hebs_core::CurveFit

use std::fmt;

use hebs_core::CurveFit;
use hebs_imaging::SIGNATURE_BINS;

/// Magic bytes opening every engine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HEBSSNAP";

/// Magic bytes opening a registry-level (multi-tenant) snapshot container.
pub const REGISTRY_MAGIC: [u8; 8] = *b"HEBSREGS";

/// Version of the byte layout. Bump when framing/encoding changes shape.
pub const SNAPSHOT_FORMAT_VERSION: u16 = 1;

/// Version of the record semantics (what the bank/cache sections mean).
/// Bump when the engine's characteristic or cache schema changes
/// incompatibly; old snapshots are then refused with
/// [`SnapshotError::SchemaMismatch`] and the engine cold-starts.
pub const SNAPSHOT_SCHEMA_VERSION: u16 = 1;

/// Section tag: the serialized characteristic bank.
const SECTION_BANK: u8 = 1;
/// Section tag: the spilled hot-cache entries.
const SECTION_CACHE: u8 = 2;

/// Hard ceilings a decoder enforces before allocating, so a corrupt length
/// field cannot balloon memory. Generous relative to any real deployment.
const MAX_CLASSES: usize = 4096;
const MAX_SAMPLES_PER_CLASS: usize = 1 << 20;
const MAX_SPILL_ENTRIES: usize = 1 << 16;
const MAX_STRING_BYTES: usize = 1 << 16;
const MAX_CURVE_POINTS: usize = 1 << 12;

/// Why a snapshot could not be saved or restored. Every variant degrades
/// the restoring engine to a cold start; none corrupts installed state.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The data ended before a complete record was read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The leading magic bytes did not identify a snapshot.
    BadMagic,
    /// The byte-layout version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// The record schema does not match this build's engine schema.
    SchemaMismatch {
        /// Schema version found in the header.
        found: u16,
        /// Schema version this build writes and reads.
        expected: u16,
    },
    /// The seeded 128-bit content checksum did not verify (truncation is
    /// reported as [`SnapshotError::Truncated`] instead when the framing
    /// already shows bytes missing).
    ChecksumMismatch,
    /// A record was structurally invalid (bad tag, out-of-range field,
    /// rejected by a validated constructor on restore).
    Malformed {
        /// What was being decoded or rebuilt.
        context: &'static str,
        /// Why it was refused.
        reason: String,
    },
    /// An I/O error from the caller's reader or writer.
    Io(std::io::Error),
    /// The engine has no installed characteristic bank to snapshot (it is
    /// closed-loop, or open-loop but not yet characterized).
    NoBank,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a HEBS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported {supported}"
            ),
            SnapshotError::SchemaMismatch { found, expected } => write!(
                f,
                "snapshot schema version {found} does not match engine schema {expected}"
            ),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot content checksum mismatch (corrupt file)")
            }
            SnapshotError::Malformed { context, reason } => {
                write!(f, "malformed snapshot {context}: {reason}")
            }
            SnapshotError::Io(err) => write!(f, "snapshot i/o: {err}"),
            SnapshotError::NoBank => {
                write!(f, "engine has no installed characteristic bank to snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// What a successful restore installed, returned by
/// [`Engine::restore_from_reader`](crate::Engine::restore_from_reader).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Content classes in the installed bank.
    pub classes: usize,
    /// The bank's largest characteristic generation after the install.
    pub generation: u64,
    /// Spilled cache entries re-admitted through the normal insert path.
    pub cache_restored: usize,
    /// Spilled cache entries skipped (mode/band mismatch with this
    /// engine's cache, refused by the byte budget, or individually
    /// malformed). Skipped entries are cold misses later, never errors.
    pub cache_skipped: usize,
}

// ---------------------------------------------------------------------------
// Records: the decoded form, decoupled from engine internals. The engine
// builds these from its installed state and rebuilds state from them
// through the validated install/insert paths.
// ---------------------------------------------------------------------------

/// One characterization sample of a class curve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampleRecord {
    pub(crate) image: String,
    pub(crate) dynamic_range: u32,
    pub(crate) distortion: f64,
    pub(crate) power_saving: f64,
}

/// One content class: its routing centroid, the generation it served under
/// when snapshotted (informational — restores stamp fresh generations), and
/// the samples its curve is refit from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassRecord {
    pub(crate) centroid: [f64; SIGNATURE_BINS],
    pub(crate) generation: u64,
    pub(crate) samples: Vec<SampleRecord>,
}

/// The serialized characteristic bank.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BankRecord {
    pub(crate) fit: CurveFit,
    pub(crate) classes: Vec<ClassRecord>,
}

/// A spilled cache entry: the key parts both modes share plus the mode's
/// `body` (the stored frame and outcome, or the signature and transform).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpillRecord<B> {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) budget_band: u32,
    pub(crate) class: u16,
    pub(crate) body: B,
}

/// The body of a spilled exact-mode entry: the stored frame plus the full
/// outcome it replays.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExactSpill {
    pub(crate) pixels: Vec<u8>,
    pub(crate) outcome: OutcomeRecord,
}

/// The serializable parts of a [`hebs_core::ScalingOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OutcomeRecord {
    pub(crate) policy: String,
    pub(crate) beta: f64,
    pub(crate) dynamic_range: Option<u32>,
    pub(crate) distortion: f64,
    /// `(ccfl, panel, controller, beta)` of the power breakdown.
    pub(crate) power: [f64; 4],
    pub(crate) power_saving: f64,
    pub(crate) lut: [u8; 256],
    pub(crate) displayed_width: u32,
    pub(crate) displayed_height: u32,
    pub(crate) displayed: Vec<u8>,
    pub(crate) fit_evaluations: u32,
}

/// The body of a spilled approximate-mode entry: the signature key part
/// plus the fitted transform (its display response is recomposed on
/// restore).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ApproxSpill {
    pub(crate) signature: [u8; SIGNATURE_BINS],
    pub(crate) target_min: u8,
    pub(crate) target_max: u8,
    pub(crate) beta: f64,
    pub(crate) blend_weight: f64,
    pub(crate) points: Vec<(f64, f64)>,
    pub(crate) lut: [u8; 256],
}

/// The spilled hot-cache section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CacheRecord {
    /// Budget-band width the spilled bands were quantized with.
    pub(crate) band_width: f64,
    pub(crate) entries: SpilledEntries,
}

/// Spilled entries, in the keying mode of the source cache.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SpilledEntries {
    Exact(Vec<SpillRecord<ExactSpill>>),
    Approximate {
        /// Signature quantization resolution of the spilled keys.
        resolution: u8,
        entries: Vec<SpillRecord<ApproxSpill>>,
    },
}

impl SpilledEntries {
    /// Number of spilled entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            SpilledEntries::Exact(entries) => entries.len(),
            SpilledEntries::Approximate { entries, .. } => entries.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Checksum: seeded two-lane 128-bit mixing over the framed bytes, built
// from the same SplitMix64 finalizer as `frame_hash128` and the seeded
// interleaving schedule hash.
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer — a cheap, well-distributed bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded 128-bit content checksum over `data`: two independently seeded
/// 64-bit lanes, each folding every 8-byte word through the finalizer, so
/// single-bit flips and block swaps both disturb the digest.
pub(crate) fn checksum128(seed: u64, data: &[u8]) -> u128 {
    let mut hi = mix(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut lo = mix(seed.rotate_left(32) ^ 0xbf58_476d_1ce4_e5b9);
    for (index, chunk) in data.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(word) ^ mix(index as u64);
        hi = mix(hi ^ word);
        lo = mix(lo.wrapping_add(word).rotate_left(17));
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

// ---------------------------------------------------------------------------
// Little-endian primitives.
// ---------------------------------------------------------------------------

/// An append-only little-endian byte writer.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats travel as IEEE-754 bit patterns so round-trips are exact.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed (u32) byte run.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Length-prefixed (u16) UTF-8 string, truncated at the prefix bound
    /// (sample image names are short identifiers in practice).
    pub(crate) fn str16(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.u16(len as u16);
        self.raw(&bytes[..len]);
    }
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// names its context so truncation errors say what was being decoded.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn take(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < len {
            return Err(SnapshotError::Truncated { context });
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Length-prefixed (u32) byte run, bounded by `max`.
    pub(crate) fn bytes(
        &mut self,
        max: usize,
        context: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32(context)? as usize;
        if len > max {
            return Err(SnapshotError::Malformed {
                context,
                reason: format!("length {len} exceeds bound {max}"),
            });
        }
        self.take(len, context)
    }

    /// Length-prefixed (u16) UTF-8 string.
    pub(crate) fn str16(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let len = usize::from(self.u16(context)?);
        if len > MAX_STRING_BYTES {
            return Err(SnapshotError::Malformed {
                context,
                reason: format!("string length {len} exceeds bound {MAX_STRING_BYTES}"),
            });
        }
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            context,
            reason: "invalid UTF-8".to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------------

fn fit_tag(fit: CurveFit) -> u8 {
    match fit {
        CurveFit::Average => 0,
        CurveFit::Envelope => 1,
        CurveFit::WorstCase => 2,
    }
}

fn fit_from_tag(tag: u8) -> Result<CurveFit, SnapshotError> {
    match tag {
        0 => Ok(CurveFit::Average),
        1 => Ok(CurveFit::Envelope),
        2 => Ok(CurveFit::WorstCase),
        other => Err(SnapshotError::Malformed {
            context: "curve fit",
            reason: format!("unknown fit tag {other}"),
        }),
    }
}

fn encode_bank(w: &mut ByteWriter, bank: &BankRecord) {
    w.u8(fit_tag(bank.fit));
    w.u32(bank.classes.len() as u32);
    for class in &bank.classes {
        w.u64(class.generation);
        for &coord in &class.centroid {
            w.f64(coord);
        }
        w.u32(class.samples.len() as u32);
        for sample in &class.samples {
            w.str16(&sample.image);
            w.u32(sample.dynamic_range);
            w.f64(sample.distortion);
            w.f64(sample.power_saving);
        }
    }
}

fn decode_bank(r: &mut ByteReader<'_>) -> Result<BankRecord, SnapshotError> {
    let fit = fit_from_tag(r.u8("bank fit")?)?;
    let class_count = r.u32("bank class count")? as usize;
    if class_count == 0 || class_count > MAX_CLASSES {
        return Err(SnapshotError::Malformed {
            context: "bank class count",
            reason: format!("{class_count} outside 1..={MAX_CLASSES}"),
        });
    }
    let mut classes = Vec::with_capacity(class_count);
    for _ in 0..class_count {
        let generation = r.u64("class generation")?;
        let mut centroid = [0.0; SIGNATURE_BINS];
        for coord in &mut centroid {
            *coord = r.f64("class centroid")?;
        }
        let sample_count = r.u32("class sample count")? as usize;
        if sample_count > MAX_SAMPLES_PER_CLASS {
            return Err(SnapshotError::Malformed {
                context: "class sample count",
                reason: format!("{sample_count} exceeds bound {MAX_SAMPLES_PER_CLASS}"),
            });
        }
        let mut samples = Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            samples.push(SampleRecord {
                image: r.str16("sample image")?,
                dynamic_range: r.u32("sample range")?,
                distortion: r.f64("sample distortion")?,
                power_saving: r.f64("sample saving")?,
            });
        }
        classes.push(ClassRecord {
            centroid,
            generation,
            samples,
        });
    }
    Ok(BankRecord { fit, classes })
}

fn encode_outcome(w: &mut ByteWriter, outcome: &OutcomeRecord) {
    w.str16(&outcome.policy);
    w.f64(outcome.beta);
    match outcome.dynamic_range {
        Some(range) => {
            w.u8(1);
            w.u32(range);
        }
        None => w.u8(0),
    }
    w.f64(outcome.distortion);
    for &p in &outcome.power {
        w.f64(p);
    }
    w.f64(outcome.power_saving);
    w.raw(&outcome.lut);
    w.u32(outcome.displayed_width);
    w.u32(outcome.displayed_height);
    w.bytes(&outcome.displayed);
    w.u32(outcome.fit_evaluations);
}

fn decode_outcome(r: &mut ByteReader<'_>) -> Result<OutcomeRecord, SnapshotError> {
    let policy = r.str16("outcome policy")?;
    let beta = r.f64("outcome beta")?;
    let dynamic_range = match r.u8("outcome range flag")? {
        0 => None,
        1 => Some(r.u32("outcome range")?),
        other => {
            return Err(SnapshotError::Malformed {
                context: "outcome range flag",
                reason: format!("unknown flag {other}"),
            })
        }
    };
    let distortion = r.f64("outcome distortion")?;
    let mut power = [0.0; 4];
    for p in &mut power {
        *p = r.f64("outcome power")?;
    }
    let power_saving = r.f64("outcome saving")?;
    let mut lut = [0u8; 256];
    lut.copy_from_slice(r.take(256, "outcome lut")?);
    let displayed_width = r.u32("outcome displayed width")?;
    let displayed_height = r.u32("outcome displayed height")?;
    let expected = displayed_width as usize * displayed_height as usize;
    let displayed = r.bytes(expected.max(1), "outcome displayed pixels")?;
    if displayed.len() != expected {
        return Err(SnapshotError::Malformed {
            context: "outcome displayed pixels",
            reason: format!(
                "{} bytes for a {displayed_width}×{displayed_height} frame",
                displayed.len()
            ),
        });
    }
    let fit_evaluations = r.u32("outcome evaluations")?;
    Ok(OutcomeRecord {
        policy,
        beta,
        dynamic_range,
        distortion,
        power,
        power_saving,
        lut,
        displayed_width,
        displayed_height,
        displayed: displayed.to_vec(),
        fit_evaluations,
    })
}

fn encode_cache(w: &mut ByteWriter, cache: &CacheRecord) {
    match &cache.entries {
        SpilledEntries::Exact(entries) => {
            w.u8(0);
            w.f64(cache.band_width);
            encode_spills(w, entries, |w, body| {
                w.bytes(&body.pixels);
                encode_outcome(w, &body.outcome);
            });
        }
        SpilledEntries::Approximate {
            resolution,
            entries,
        } => {
            w.u8(1);
            w.f64(cache.band_width);
            w.u8(*resolution);
            encode_spills(w, entries, |w, body| {
                w.raw(&body.signature);
                w.u8(body.target_min);
                w.u8(body.target_max);
                w.f64(body.beta);
                w.f64(body.blend_weight);
                w.u32(body.points.len() as u32);
                for &(x, y) in &body.points {
                    w.f64(x);
                    w.f64(y);
                }
                w.raw(&body.lut);
            });
        }
    }
}

/// Writes the entry count, then each entry's shared key parts followed by
/// its mode-specific body.
fn encode_spills<B>(
    w: &mut ByteWriter,
    entries: &[SpillRecord<B>],
    body: impl Fn(&mut ByteWriter, &B),
) {
    w.u32(entries.len() as u32);
    for entry in entries {
        w.u32(entry.width);
        w.u32(entry.height);
        w.u32(entry.budget_band);
        w.u16(entry.class);
        body(w, &entry.body);
    }
}

fn decode_cache(r: &mut ByteReader<'_>) -> Result<CacheRecord, SnapshotError> {
    let mode = r.u8("cache mode")?;
    let band_width = r.f64("cache band width")?;
    let entries = match mode {
        0 => SpilledEntries::Exact(decode_spills(r, |r, width, height| {
            let expected = width as usize * height as usize;
            let pixels = r.bytes(expected.max(1), "spill pixels")?;
            if pixels.len() != expected {
                return Err(SnapshotError::Malformed {
                    context: "spill pixels",
                    reason: format!("{} bytes for a {width}×{height} frame", pixels.len()),
                });
            }
            Ok(ExactSpill {
                pixels: pixels.to_vec(),
                outcome: decode_outcome(r)?,
            })
        })?),
        1 => {
            let resolution = r.u8("cache resolution")?;
            let entries = decode_spills(r, |r, _, _| {
                let mut signature = [0u8; SIGNATURE_BINS];
                signature.copy_from_slice(r.take(SIGNATURE_BINS, "spill signature")?);
                let target_min = r.u8("spill target min")?;
                let target_max = r.u8("spill target max")?;
                let beta = r.f64("spill beta")?;
                let blend_weight = r.f64("spill blend")?;
                let point_count = r.u32("spill point count")? as usize;
                if point_count > MAX_CURVE_POINTS {
                    return Err(SnapshotError::Malformed {
                        context: "spill point count",
                        reason: format!("{point_count} exceeds bound {MAX_CURVE_POINTS}"),
                    });
                }
                let mut points = Vec::with_capacity(point_count);
                for _ in 0..point_count {
                    let x = r.f64("spill point")?;
                    let y = r.f64("spill point")?;
                    points.push((x, y));
                }
                let mut lut = [0u8; 256];
                lut.copy_from_slice(r.take(256, "spill lut")?);
                Ok(ApproxSpill {
                    signature,
                    target_min,
                    target_max,
                    beta,
                    blend_weight,
                    points,
                    lut,
                })
            })?;
            SpilledEntries::Approximate {
                resolution,
                entries,
            }
        }
        other => {
            return Err(SnapshotError::Malformed {
                context: "cache mode",
                reason: format!("unknown mode tag {other}"),
            })
        }
    };
    Ok(CacheRecord {
        band_width,
        entries,
    })
}

/// Reads a bounded entry count, then each entry's shared key parts
/// followed by its body (`body` gets the entry's frame width and height).
fn decode_spills<'a, B>(
    r: &mut ByteReader<'a>,
    mut body: impl FnMut(&mut ByteReader<'a>, u32, u32) -> Result<B, SnapshotError>,
) -> Result<Vec<SpillRecord<B>>, SnapshotError> {
    let count = r.u32("cache entry count")? as usize;
    if count > MAX_SPILL_ENTRIES {
        return Err(SnapshotError::Malformed {
            context: "cache entry count",
            reason: format!("{count} exceeds bound {MAX_SPILL_ENTRIES}"),
        });
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let width = r.u32("spill width")?;
        let height = r.u32("spill height")?;
        let budget_band = r.u32("spill band")?;
        let class = r.u16("spill class")?;
        entries.push(SpillRecord {
            width,
            height,
            budget_band,
            class,
            body: body(r, width, height)?,
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Top-level framing.
// ---------------------------------------------------------------------------

/// Serializes a bank (and optional cache spill) into the framed,
/// checksummed snapshot byte form. `seed` seeds the content checksum and
/// is stored in the header, so any seed verifies on any reader.
pub(crate) fn encode(bank: &BankRecord, cache: Option<&CacheRecord>, seed: u64) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.raw(&SNAPSHOT_MAGIC);
    body.u16(SNAPSHOT_FORMAT_VERSION);
    body.u16(SNAPSHOT_SCHEMA_VERSION);
    body.u64(seed);
    let sections = 1 + usize::from(cache.is_some());
    body.u32(sections as u32);

    let mut section = ByteWriter::new();
    encode_bank(&mut section, bank);
    let payload = section.into_bytes();
    body.u8(SECTION_BANK);
    body.u64(payload.len() as u64);
    body.raw(&payload);

    if let Some(cache) = cache {
        let mut section = ByteWriter::new();
        encode_cache(&mut section, cache);
        let payload = section.into_bytes();
        body.u8(SECTION_CACHE);
        body.u64(payload.len() as u64);
        body.raw(&payload);
    }

    let mut framed = body.into_bytes();
    let digest = checksum128(seed, &framed);
    framed.extend_from_slice(&digest.to_le_bytes());
    framed
}

/// Parses and verifies a snapshot: magic, versions, section framing and
/// the trailing seeded checksum, then the records themselves. Never
/// panics; every malformation is a typed [`SnapshotError`].
pub(crate) fn decode(data: &[u8]) -> Result<(BankRecord, Option<CacheRecord>), SnapshotError> {
    // Header + checksum are the minimum viable snapshot.
    let header_len = 8 + 2 + 2 + 8 + 4;
    if data.len() < header_len + 16 {
        return Err(SnapshotError::Truncated { context: "header" });
    }
    let (framed, trailer) = data.split_at(data.len() - 16);
    let mut r = ByteReader::new(framed);
    if r.take(8, "magic")? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let format = r.u16("format version")?;
    if format > SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: format,
            supported: SNAPSHOT_FORMAT_VERSION,
        });
    }
    let schema = r.u16("schema version")?;
    if schema != SNAPSHOT_SCHEMA_VERSION {
        return Err(SnapshotError::SchemaMismatch {
            found: schema,
            expected: SNAPSHOT_SCHEMA_VERSION,
        });
    }
    let seed = r.u64("checksum seed")?;
    let mut expected = [0u8; 16];
    expected.copy_from_slice(trailer);
    if checksum128(seed, framed) != u128::from_le_bytes(expected) {
        return Err(SnapshotError::ChecksumMismatch);
    }

    let sections = r.u32("section count")? as usize;
    let mut bank = None;
    let mut cache = None;
    for _ in 0..sections {
        let tag = r.u8("section tag")?;
        let len = r.u64("section length")? as usize;
        let payload = r.take(len, "section payload")?;
        let mut section = ByteReader::new(payload);
        match tag {
            SECTION_BANK => bank = Some(decode_bank(&mut section)?),
            SECTION_CACHE => cache = Some(decode_cache(&mut section)?),
            other => {
                return Err(SnapshotError::Malformed {
                    context: "section tag",
                    reason: format!("unknown section {other}"),
                })
            }
        }
        if section.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                context: "section payload",
                reason: format!("{} trailing bytes in section {tag}", section.remaining()),
            });
        }
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed {
            context: "snapshot frame",
            reason: format!("{} trailing bytes after sections", r.remaining()),
        });
    }
    let bank = bank.ok_or(SnapshotError::Malformed {
        context: "snapshot frame",
        reason: "no bank section".to_string(),
    })?;
    Ok((bank, cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u32) -> SampleRecord {
        SampleRecord {
            image: format!("s{i}"),
            dynamic_range: 40 + 10 * i,
            distortion: 0.3 - 0.02 * f64::from(i),
            power_saving: 0.4,
        }
    }

    fn bank_record(classes: usize) -> BankRecord {
        BankRecord {
            fit: CurveFit::WorstCase,
            classes: (0..classes)
                .map(|c| ClassRecord {
                    centroid: [c as f64; SIGNATURE_BINS],
                    generation: c as u64 + 1,
                    samples: (1..=5).map(sample).collect(),
                })
                .collect(),
        }
    }

    fn cache_record() -> CacheRecord {
        CacheRecord {
            band_width: 0.01,
            entries: SpilledEntries::Approximate {
                resolution: 16,
                entries: vec![SpillRecord {
                    width: 8,
                    height: 8,
                    budget_band: 10,
                    class: 0,
                    body: ApproxSpill {
                        signature: [3; SIGNATURE_BINS],
                        target_min: 0,
                        target_max: 127,
                        beta: 0.5,
                        blend_weight: 1.0,
                        points: vec![(0.0, 0.0), (1.0, 0.5)],
                        lut: [7; 256],
                    },
                }],
            },
        }
    }

    #[test]
    fn round_trips_bank_and_cache_sections() {
        let bank = bank_record(3);
        let cache = cache_record();
        let bytes = encode(&bank, Some(&cache), 42);
        let (decoded_bank, decoded_cache) = decode(&bytes).unwrap();
        assert_eq!(decoded_bank, bank);
        assert_eq!(decoded_cache, Some(cache));

        let bytes = encode(&bank, None, 7);
        let (decoded_bank, decoded_cache) = decode(&bytes).unwrap();
        assert_eq!(decoded_bank, bank);
        assert_eq!(decoded_cache, None);
    }

    #[test]
    fn exact_cache_round_trips() {
        let cache = CacheRecord {
            band_width: 0.01,
            entries: SpilledEntries::Exact(vec![SpillRecord {
                width: 4,
                height: 2,
                budget_band: 9,
                class: 1,
                body: ExactSpill {
                    pixels: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    outcome: OutcomeRecord {
                        policy: "hebs".to_string(),
                        beta: 0.6,
                        dynamic_range: Some(128),
                        distortion: 0.05,
                        power: [1.0, 2.0, 0.5, 0.6],
                        power_saving: 0.3,
                        lut: [9; 256],
                        displayed_width: 4,
                        displayed_height: 2,
                        displayed: vec![0; 8],
                        fit_evaluations: 1,
                    },
                },
            }]),
        };
        let bytes = encode(&bank_record(1), Some(&cache), 3);
        let (_, decoded) = decode(&bytes).unwrap();
        assert_eq!(decoded, Some(cache));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let bytes = encode(&bank_record(2), Some(&cache_record()), 11);
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch
                ),
                "unexpected error at length {len}: {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode(&bank_record(1), None, 99);
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                decode(&corrupt).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_and_versions_are_typed() {
        let bytes = encode(&bank_record(1), None, 1);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        // The magic is checked before the checksum, so the error names it.
        assert!(matches!(decode(&bad_magic), Err(SnapshotError::BadMagic)));

        let mut newer = bytes.clone();
        newer[8] = 0xFF;
        newer[9] = 0xFF;
        assert!(matches!(
            decode(&newer),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));

        let mut schema = bytes.clone();
        schema[10] = 0xEE;
        assert!(matches!(
            decode(&schema),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn checksum_is_seed_and_content_sensitive() {
        let a = checksum128(1, b"hello snapshot");
        assert_ne!(a, checksum128(2, b"hello snapshot"), "seed matters");
        assert_ne!(a, checksum128(1, b"hello snapshoT"), "content matters");
        assert_ne!(
            checksum128(1, b"ab"),
            checksum128(1, b"ba"),
            "order matters"
        );
        assert_eq!(a, checksum128(1, b"hello snapshot"), "deterministic");
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotError>();
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::NoBank.to_string().contains("bank"));
        assert!(SnapshotError::Truncated { context: "header" }
            .to_string()
            .contains("header"));
        assert!(SnapshotError::SchemaMismatch {
            found: 9,
            expected: 1
        }
        .to_string()
        .contains('9'));
    }
}
