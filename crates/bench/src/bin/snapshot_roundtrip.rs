//! CI snapshot round-trip harness: save and restore across *separate
//! process invocations*, plus a corruption fuzz pass.
//!
//! ```text
//! cargo run --release -p hebs-bench --bin snapshot_roundtrip -- save <path>
//! cargo run --release -p hebs-bench --bin snapshot_roundtrip -- restore <path>
//! cargo run --release -p hebs-bench --bin snapshot_roundtrip -- fuzz <path>
//! ```
//!
//! The in-process unit and integration tests already pin the round-trip
//! semantics; what only two fresh invocations can pin is that the *file
//! on disk* is the whole contract — no shared memory, no process-local
//! seed, no ambient state. CI runs `save` and `restore` as separate
//! `cargo run` invocations sharing a temp file, then `fuzz` truncates
//! and bit-flips the same file and proves every mutation is rejected
//! with a typed [`hebs::runtime::SnapshotError`] — never a panic — while
//! the engine stays serviceable (cold-start degradation). All three
//! subcommands exit 0 on success and 1 with a diagnostic on any broken
//! invariant.

use std::process::ExitCode;

use hebs_bench::warm_start_engine;
use hebs_core::{CharacteristicBank, DEFAULT_RANGES};
use hebs_imaging::{GrayImage, Histogram, SipiSuite};
use hebs_quality::GlobalUiqiDistortion;
use hebs_runtime::{Engine, RuntimeError};

const BUDGET: f64 = 0.10;
const CLASSES: usize = 2;
const FRAME_SIZE: u32 = 32;

fn suite_frames() -> Vec<GrayImage> {
    SipiSuite::with_size(FRAME_SIZE)
        .iter()
        .map(|(_, img)| img.clone())
        .collect()
}

/// The fleet-node engine every subcommand builds: identical across
/// processes, so the snapshot file is the only state that travels.
fn fleet_engine() -> Result<Engine, String> {
    warm_start_engine(BUDGET, CLASSES, None).map_err(|e| format!("engine construction: {e}"))
}

/// Characterizes a bank from the synthetic suite, serves the suite to
/// populate the hot cache, and snapshots bank + spill to `path`.
fn save(path: &str) -> Result<(), String> {
    let engine = fleet_engine()?;
    let frames = suite_frames();
    let histograms: Vec<Histogram> = frames.iter().map(Histogram::of).collect();
    // The same histogram-capable pipeline the engine serves with, so the
    // characterized curves match what the fleet node will evaluate.
    let pipeline = hebs_core::PipelineConfig::default().with_measure(GlobalUiqiDistortion);
    let bank = CharacteristicBank::build(&pipeline, &histograms, &DEFAULT_RANGES, CLASSES)
        .map_err(|e| format!("bank characterization: {e}"))?;
    engine
        .install_bank(bank)
        .map_err(|e| format!("bank install: {e}"))?;
    for frame in &frames {
        engine
            .process_frame(frame)
            .map_err(|e| format!("canary serve: {e}"))?;
    }
    engine.quiesce_rebuilds();
    let mut bytes = Vec::new();
    engine
        .snapshot_to_writer(&mut bytes)
        .map_err(|e| format!("snapshot: {e}"))?;
    std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "saved {} bytes ({} classes, generation {}) to {path}",
        bytes.len(),
        engine.characteristic_classes(),
        engine.characteristic_generation(),
    );
    Ok(())
}

/// Restores `path` into a fresh engine (a separate process from `save`)
/// and proves the warm-start contract: the bank arrives intact and the
/// first serve costs at most one fit evaluation with no rebuild.
fn restore(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let engine = fleet_engine()?;
    let report = engine
        .restore_from_reader(&mut &bytes[..])
        .map_err(|e| format!("restore: {e}"))?;
    if report.classes != CLASSES {
        return Err(format!(
            "restored {} classes, expected {CLASSES}",
            report.classes
        ));
    }
    if report.cache_restored == 0 {
        return Err("no hot-cache spill was restored".to_string());
    }
    // Day-2 frame the canary never served: a genuine miss, served warm.
    let frame = SipiSuite::with_size(FRAME_SIZE + 8)
        .iter()
        .map(|(_, img)| img.clone())
        .next()
        .ok_or("empty suite")?;
    engine
        .process_frame(&frame)
        .map_err(|e| format!("warm serve: {e}"))?;
    engine.quiesce_rebuilds();
    let stats = engine.stats();
    if stats.fit_evaluations > 1 || stats.recharacterizations != 0 {
        return Err(format!(
            "first warm serve cost {} fit evaluations and {} rebuilds (expected <= 1 and 0)",
            stats.fit_evaluations, stats.recharacterizations
        ));
    }
    println!(
        "restored {} classes, {} spilled entries; first miss served at {} fit evaluation(s)",
        report.classes, report.cache_restored, stats.fit_evaluations
    );
    Ok(())
}

/// One corruption trial: the mutated bytes must be rejected with a typed
/// snapshot error, the rejection counter must move, and the engine must
/// still serve afterwards (cold, but alive).
fn expect_rejection(label: &str, bytes: &[u8]) -> Result<(), String> {
    let engine = fleet_engine()?;
    match engine.restore_from_reader(&mut &bytes[..]) {
        Err(RuntimeError::Snapshot(err)) => {
            println!("  {label}: rejected as expected ({err})");
        }
        Err(other) => return Err(format!("{label}: non-snapshot error {other}")),
        Ok(report) => {
            return Err(format!(
                "{label}: corrupt snapshot was accepted ({} classes)",
                report.classes
            ))
        }
    }
    let stats = engine.stats();
    if stats.snapshot_rejected != 1 {
        return Err(format!(
            "{label}: snapshot_rejected counter is {} (expected 1)",
            stats.snapshot_rejected
        ));
    }
    // Cold-start degradation, not a wedge: the engine still serves.
    let frame = suite_frames().into_iter().next().ok_or("empty suite")?;
    engine
        .process_frame(&frame)
        .map_err(|e| format!("{label}: engine wedged after rejection: {e}"))?;
    Ok(())
}

/// Truncates and bit-flips the snapshot at `path`: every mutation must be
/// rejected typed; the pristine bytes must still restore afterwards.
fn fuzz(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    println!("fuzzing {} snapshot bytes from {path}", bytes.len());

    // Truncations: empty, mid-header, mid-payload, one byte short.
    let cuts = [0, 4, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1];
    for cut in cuts {
        expect_rejection(&format!("truncate to {cut}"), &bytes[..cut])?;
    }
    // Bit flips spread across the file: header, framing, payload, trailer.
    let step = (bytes.len() / 16).max(1);
    for offset in (0..bytes.len()).step_by(step) {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x01;
        expect_rejection(&format!("bit-flip at {offset}"), &mutated)?;
    }
    // The pristine file still restores — the fuzz read it, never wrote it.
    let engine = fleet_engine()?;
    let report = engine
        .restore_from_reader(&mut &bytes[..])
        .map_err(|e| format!("pristine restore after fuzz: {e}"))?;
    println!(
        "pristine snapshot still restores ({} classes) — fuzz pass clean",
        report.classes
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = match (args.get(1).map(String::as_str), args.get(2)) {
        (Some("save"), Some(path)) => save(path),
        (Some("restore"), Some(path)) => restore(path),
        (Some("fuzz"), Some(path)) => fuzz(path),
        _ => Err("usage: snapshot_roundtrip <save|restore|fuzz> <path>".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("snapshot_roundtrip: {err}");
            ExitCode::FAILURE
        }
    }
}
