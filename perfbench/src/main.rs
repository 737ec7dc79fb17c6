//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-be|gap-faulted|serve-fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run builds the workload's inputs from the seed
//! (timed as `setup_s`), runs whole passes of its items back to back until
//! `--seconds` have passed, checks every item, and prints the end-to-end
//! metrics. With `--trace 1` it prints the per-layer metrics instead and
//! writes its spans under `perfbench/out/`. The last line of standard
//! output is always one JSON object; the exit code is non-zero when any
//! oracle, equivalence or determinism check failed. See `README.md`.

mod alloc;
mod host;
mod layers;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{composed_median, median, per_second_millions, percentile, ratio};
use workloads::{model_pass, run_pass, setup, Kind, Plain, Setup, SysPass};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A seed kept out of tuning, for re-checking a claim made on other seeds.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// How many times a run builds its inputs; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <suite-be|gap-faulted|serve-fleet> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--help" | "-h" => {
                return Err(format!(
                    "{USAGE}\nheld-out seed for re-checking claims: {HELD_OUT_SEED}"
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs write their spans and digest records: `out/` beside the
/// benchmark's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// How often the timed passes pause to sample the host reference.
const REFERENCE_EVERY: Duration = Duration::from_secs(1);

/// Builds the inputs [`SETUP_REPEATS`] times, sampling the host reference
/// before the first build and after the last; returns the last build, the
/// build times in seconds and the samples.
fn timed_setup(kind: Kind, seed: u64) -> (Setup, Vec<f64>, Vec<f64>) {
    let refs = host::sample();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup(kind, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("at least one setup"), times, vec![refs, host::sample()])
}

/// Passes run back to back, with the host reference sampled before the
/// first pass, after the last, and between passes every
/// [`REFERENCE_EVERY`].
struct Timed {
    passes: Vec<SysPass>,
    /// Reference samples in ms.
    refs: Vec<f64>,
}

/// Runs whole passes until `seconds` have passed and the workload's
/// minimum pass count is met.
fn timed_passes(setup: &Setup, seconds: f64) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut timed = Timed { passes: Vec::new(), refs: vec![host::sample()] };
    let mut sampled = Instant::now();
    while timed.passes.len() < setup.kind.min_passes() || start.elapsed() < budget {
        timed.passes.push(run_pass(setup, &mut Plain));
        if sampled.elapsed() >= REFERENCE_EVERY {
            timed.refs.push(host::sample());
            sampled = Instant::now();
        }
    }
    timed.refs.push(host::sample());
    timed
}

/// The run's verdict: items attempted and failed, fatal messages, and the
/// determinism digests checked against earlier runs.
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digests: Vec<(&'static str, u64)>,
}

impl Verdict {
    /// Counts every pass's items and requires all passes (runs of the
    /// same items) to share one digest.
    fn of(passes: &[&SysPass]) -> Verdict {
        let first = passes[0].digest;
        let mut verdict =
            Verdict { attempted: 0, failed: 0, errors: Vec::new(), digests: vec![("pass", first)] };
        for pass in passes {
            verdict.absorb(pass);
        }
        if let Some(bad) = passes.iter().find(|p| p.digest != first) {
            verdict.errors.push(format!(
                "determinism digest mismatch: {first:016x} then {:016x}",
                bad.digest
            ));
        }
        verdict
    }

    /// Counts a pass's items and failures.
    fn absorb(&mut self, pass: &SysPass) {
        self.attempted += pass.attempted();
        self.failed += pass.failures.len() as u64;
        self.errors.extend(pass.failures.iter().take(3).cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

fn end_to_end(args: &Args) -> (Vec<Metric>, Verdict) {
    let (setup, setup_times, mut refs) = timed_setup(args.kind, args.seed);
    let drift_before = layers::gpp_step_ns(&setup);
    let timed = timed_passes(&setup, args.seconds);
    let drift_after = layers::gpp_step_ns(&setup);
    let passes = &timed.passes;
    let mut verdict = Verdict::of(&passes.iter().collect::<Vec<_>>());
    if let Some(calibration) = &setup.calibration {
        verdict.absorb(calibration);
    }

    refs.extend(&timed.refs);
    let scale = host::scale(&refs);
    // Every pass runs the same items, so a pass's simulated work is fixed;
    // its time is composed of each item's median over the passes, which
    // keeps a transient host slowdown in one pass out of the result.
    let item_runs: Vec<&[f64]> = passes.iter().map(|p| p.item_s.as_slice()).collect();
    let raw_wall = composed_median(&item_runs);
    let wall = raw_wall * scale;
    let items: Vec<f64> =
        passes.iter().flat_map(|p| p.item_s.iter().map(|s| s * scale * 1e3)).collect();
    let per_pass = passes[0].item_s.len();
    let tail_p = args.kind.tail_percentile(per_pass);
    let model = model_pass(&setup, &passes[0]);
    let lifetime_gain = model.lifetime_gain();

    println!(
        "workload {} seed {} passes {} items {} ({} per pass)",
        args.kind.name(),
        args.seed,
        passes.len(),
        items.len(),
        per_pass
    );
    println!("item_ms_tail is p{tail_p} over {} items", items.len());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("pass wall_s: {}", walls.join(" "));
    let samples: Vec<String> = refs.iter().map(|r| format!("{r:.1}")).collect();
    println!("host reference samples, ms: {}", samples.join(" "));
    println!(
        "host drift: rv32.step_ns {drift_before:.3} before, {drift_after:.3} after ({:+.1}%)",
        stats::overhead_pct(drift_after, drift_before)
    );
    println!(
        "host reference: median {:.3} ms (nominal {} ms, scale {scale:.4}); \
         unscaled wall_s {raw_wall:.4}, setup_s {:.4}",
        median(&refs),
        host::NOMINAL_MS,
        median(&setup_times)
    );
    println!("lifetime_gain_x {lifetime_gain:.3} (paper, Table I BE: 2.2)");

    let metrics = vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("setup_s", median(&setup_times) * scale, "s"),
        Metric::new("sim_mips", per_second_millions(passes[0].instrs, wall), "MIPS"),
        Metric::new("served_req_per_s", ratio(passes[0].requests as f64, wall), "1/s"),
        Metric::new("item_ms_p50", percentile(&items, 50.0), "ms"),
        Metric::new("item_ms_tail", percentile(&items, tail_p), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new(
            "pass_ratio",
            1.0 - ratio(verdict.failed as f64, verdict.attempted as f64),
            "ratio",
        ),
        Metric::new("lifetime_gain_x", lifetime_gain, "x"),
        Metric::new("sim_speedup_x", model.speedup(), "x"),
    ];
    (metrics, verdict)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn report(metrics: &[Metric], verdict: &Verdict) -> bool {
    let mut correct = verdict.correct();
    let mut fields = Vec::new();
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite", m.name);
            correct = false;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            json_escape(&m.name),
            m.unit
        ));
    }
    for e in &verdict.errors {
        eprintln!("FAILED: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        fields.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (metrics, mut verdict) = if args.trace {
        layers::traced(args.kind, args.seed, args.seconds, &out_dir())
    } else {
        end_to_end(&args)
    };
    let digests: Vec<String> =
        verdict.digests.iter().map(|(name, d)| format!("{name} {d:016x}")).collect();
    println!("digests: {}", digests.join(", "));
    if let Err(e) = record::check(&out_dir(), args.kind.name(), args.seed, &verdict.digests) {
        verdict.errors.push(e);
    }
    if report(&metrics, &verdict) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
