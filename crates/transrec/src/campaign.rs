//! The campaign engine behind fleet and serving runs (DESIGN.md §12, §13):
//! the only code that knows the wave algorithm and the checkpoint format.
//! Phase 1 simulates one reference trajectory per equivalence-class cell;
//! phase 2 streams device shards, wave by wave, through a fold of those
//! trajectories into one merge-monoid accumulator per report cell. With a
//! checkpoint path, progress is saved after phase 1 and after every wave,
//! so a killed run resumes into a byte-identical report; an unusable
//! checkpoint is a typed [`SystemError::Checkpoint`], never resumed.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use mibench::Workload;
use obs::Registry;
use serde::{de_field, Deserialize, Serialize, Value};
use threadpool::ThreadPool;
use tracing::{span, Level};
use uaware::{derive_cell_seed, PolicySpec};

use crate::sweep::SuiteSpec;
use crate::system::{BuildError, SystemConfig, SystemError};

/// Checkpoint format version; bumped on any layout change so stale files
/// are rejected instead of misread. v2 added the metrics registry
/// (DESIGN.md §16); v3 is the envelope shared by both campaign kinds,
/// with a completed-shard count and a payload checksum.
const CHECKPOINT_VERSION: u32 = 3;

/// Campaign-level controls of
/// [`run_fleet_campaign`](crate::fleet::run_fleet_campaign) and
/// [`run_serving_campaign`](crate::traffic::run_serving_campaign):
/// checkpointing and cooperative early stop (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Persist progress to this path (and resume from it if it exists).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint after every wave of this many shards (`0` acts as `1`).
    /// Only meaningful with a checkpoint path; also the parallel wave
    /// width, so raise it to at least the worker count on big campaigns.
    pub checkpoint_every_shards: usize,
    /// Stop (with a checkpoint, if configured) once this many shards have
    /// completed, returning [`CampaignStatus::Paused`] — the hook the
    /// kill/resume regression tests and the CI resume leg drive.
    pub stop_after_shards: Option<usize>,
    /// Collect the deterministic metrics registry while the campaign runs
    /// and fold it into [`obs::global`] on completion (DESIGN.md §16). Off
    /// by default: per-event collection has a real cost on the phase-1
    /// simulation hot paths, and most callers (tests, benches) do not read
    /// the registry.
    pub collect_metrics: bool,
}

/// What a campaign came back with; `R` is its report type.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignStatus<R> {
    /// The campaign ran to the horizon; here is the full report.
    Complete(Box<R>),
    /// The campaign stopped early at a shard boundary
    /// ([`CampaignOptions::stop_after_shards`]); re-run with the same
    /// checkpoint path to continue.
    Paused {
        /// Shards completed so far (also the resume point).
        completed_shards: usize,
        /// Total shards in the campaign.
        total_shards: usize,
    },
}

/// Why a checkpoint could not be saved or resumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointErrorKind {
    /// Reading, writing, syncing or renaming the file failed.
    Io(String),
    /// Not an intact checkpoint: unparsable, truncated, a checksum
    /// mismatch, or a payload shaped unlike the plan.
    Corrupt(String),
    /// A file carrying this magic instead of this campaign kind's.
    Foreign(String),
    /// A checkpoint of this format version instead of the current one.
    Version(u64),
    /// A checkpoint of a different plan (or shard split).
    PlanMismatch,
}

impl fmt::Display for CheckpointErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointErrorKind::Io(e) => write!(f, "i/o failure: {e}"),
            CheckpointErrorKind::Corrupt(e) => write!(f, "corrupt: {e}"),
            CheckpointErrorKind::Foreign(magic) => write!(f, "foreign file (magic {magic:?})"),
            CheckpointErrorKind::Version(v) => write!(f, "unsupported format version {v}"),
            CheckpointErrorKind::PlanMismatch => write!(f, "belongs to a different plan"),
        }
    }
}

/// What the engine reads of a campaign's plan.
pub(crate) struct Shape<'a> {
    /// The plan; its debug form is the checkpoint fingerprint.
    pub plan: &'a (dyn fmt::Debug + Sync),
    pub config: &'a SystemConfig,
    pub policies: &'a [PolicySpec],
    pub suite: &'a SuiteSpec,
    pub base_seed: u64,
    /// Workload lanes phase 1 builds suites for.
    pub lanes: usize,
    /// Phase-1 cells, one trajectory each.
    pub trajectories: usize,
    /// Device shards phase 2 streams through.
    pub shards: usize,
    /// Report cells, one accumulator each.
    pub cells: usize,
}

/// One campaign kind, described once for the engine.
pub(crate) trait Campaign: Sync {
    /// Span-name and checkpoint-magic prefix (`"fleet"`, `"serve"`).
    const NAME: &'static str;
    /// One phase-1 cell's reference simulation.
    type Trajectory: Serialize + Deserialize + Send + Sync;
    /// One report cell's merge monoid; `Default` is the identity.
    type Accum: Serialize + Deserialize + Default + Send;
    /// The completed campaign's report.
    type Report;

    /// The plan as the engine reads it.
    fn shape(&self) -> Shape<'_>;
    /// Simulates phase-1 cell `cell`, given every lane's workloads.
    fn simulate(
        &self,
        cell: usize,
        lanes: &[Vec<Workload>],
    ) -> Result<Self::Trajectory, SystemError>;
    /// Shard `shard`'s partial for report cell `cell`, plus the metrics it
    /// recorded (if `collect_metrics`).
    fn shard_cell(
        &self,
        trajectories: &[Self::Trajectory],
        shard: usize,
        cell: usize,
        collect_metrics: bool,
    ) -> (Self::Accum, Registry);
    /// Absorbs `partial`, the next shard's contribution.
    fn merge(accum: &mut Self::Accum, partial: Self::Accum);
    /// The report of a completed campaign.
    fn report(&self, trajectories: &[Self::Trajectory], accums: Vec<Self::Accum>) -> Self::Report;
}

/// A campaign's progress, and verbatim its checkpoint's payload. Shards
/// are deterministic functions of (plan, trajectories), so only completed
/// shards are stored and an interrupted one re-runs on resume — which is
/// what makes resume byte-identical.
struct Checkpoint<C: Campaign> {
    trajectories: Vec<C::Trajectory>,
    /// Completed shards: always the prefix `0..completed_shards`.
    completed_shards: usize,
    accums: Vec<C::Accum>,
    /// Phase-1 and completed-shard metrics, persisted so
    /// `results/metrics.json` survives kill/resume (DESIGN.md §16).
    metrics: Registry,
}

/// Runs `campaign` across `jobs` workers (`0` = all cores, `1` =
/// sequential). The report is byte-identical for every worker count,
/// shard split and kill/resume point: trajectories are deterministic per
/// cell, shard folds are pure, and partials merge in (shard, cell) order.
pub(crate) fn run<C: Campaign>(
    campaign: &C,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<CampaignStatus<C::Report>, SystemError> {
    let shape = campaign.shape();
    for spec in shape.policies {
        if spec.needs_movement() && !shape.config.movement_hardware {
            return Err(BuildError::MovementHardwareAbsent { policy: spec.to_string() }.into());
        }
    }
    let pool = if jobs == 0 { ThreadPool::with_default_workers() } else { ThreadPool::new(jobs) };
    let path = options.checkpoint.as_deref();
    let resumed = match path {
        Some(path) => load::<C>(path, &shape)
            .map_err(|kind| SystemError::Checkpoint { path: path.to_path_buf(), kind })?,
        None => None,
    };
    let mut progress = match resumed {
        Some(progress) => progress,
        None => {
            // Phase 1: each lane's workloads are built once, so every policy
            // faces the identical population; per-cell metrics fold in cell
            // order, and the lowest-indexed failing cell's error wins.
            let _phase = span!(Level::INFO, &format!("{}.trajectories", C::NAME)).entered();
            let lanes: Vec<Vec<Workload>> = pool.par_map((0..shape.lanes).collect(), |_, lane| {
                shape.suite.workloads(derive_cell_seed(shape.base_seed, lane as u64))
            });
            let outcomes = pool.par_map((0..shape.trajectories).collect(), |_, cell| {
                let work = || campaign.simulate(cell, &lanes);
                if options.collect_metrics {
                    obs::collect(work)
                } else {
                    (work(), Registry::new())
                }
            });
            let mut progress = Checkpoint::<C> {
                trajectories: Vec::with_capacity(outcomes.len()),
                completed_shards: 0,
                accums: (0..shape.cells).map(|_| C::Accum::default()).collect(),
                metrics: Registry::new(),
            };
            for (outcome, registry) in outcomes {
                progress.trajectories.push(outcome?);
                progress.metrics.merge(&registry);
            }
            if let Some(path) = path {
                save(path, &shape, &progress)?;
            }
            progress
        }
    };

    // Phase 2: stream device shards in waves, merging each wave's partials
    // in (shard, cell) order.
    let wave_shards =
        if path.is_some() { options.checkpoint_every_shards.max(1) } else { usize::MAX };
    while progress.completed_shards < shape.shards {
        let completed = progress.completed_shards;
        if options.stop_after_shards.is_some_and(|stop| completed >= stop) {
            return Ok(CampaignStatus::Paused {
                completed_shards: completed,
                total_shards: shape.shards,
            });
        }
        let mut wave_end = completed.saturating_add(wave_shards).min(shape.shards);
        if let Some(stop) = options.stop_after_shards {
            wave_end = wave_end.min(stop.max(completed + 1));
        }
        let _wave = span!(Level::INFO, &format!("{}.shards", C::NAME)).entered();
        let work: Vec<(usize, usize)> =
            (completed..wave_end).flat_map(|s| (0..shape.cells).map(move |c| (s, c))).collect();
        let partials = pool.par_map(work, |_, (s, c)| {
            campaign.shard_cell(&progress.trajectories, s, c, options.collect_metrics)
        });
        for (i, (partial, registry)) in partials.into_iter().enumerate() {
            C::merge(&mut progress.accums[i % shape.cells], partial);
            progress.metrics.merge(&registry);
        }
        progress.completed_shards = wave_end;
        if let Some(path) = path {
            save(path, &shape, &progress)?;
        }
    }

    // Metrics reach the global accumulator only on completion, so a
    // stop/resume pair folds exactly once, like the report (DESIGN.md §16).
    if options.collect_metrics {
        obs::global::fold(&progress.metrics);
    }
    Ok(CampaignStatus::Complete(Box::new(campaign.report(&progress.trajectories, progress.accums))))
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The plan fingerprint a checkpoint is bound to. `f64` debug formatting
/// is shortest-roundtrip, so two plans fingerprint equal iff every knob
/// (including the shard split) is bit-identical.
pub(crate) fn fingerprint(plan: &dyn fmt::Debug) -> u64 {
    fnv1a64(format!("v{CHECKPOINT_VERSION}:{plan:?}").as_bytes())
}

/// FNV-1a over the compact rendering of an envelope's entries (the
/// checksum itself excluded): any changed payload byte changes it, so a
/// damaged file is rejected instead of resumed into a different report.
fn checksum(entries: &[(String, Value)]) -> u64 {
    fnv1a64(serde_json::to_string(&entries).expect("JSON values render").as_bytes())
}

/// Persists `progress` as the envelope — magic, version, fingerprint, the
/// payload, a trailing checksum — atomically and durably: write a
/// temporary file, sync it, rename it over `path`, sync the directory. A
/// kill at any point leaves the old checkpoint or the new one.
fn save<C: Campaign>(
    path: &Path,
    shape: &Shape<'_>,
    progress: &Checkpoint<C>,
) -> Result<(), SystemError> {
    let _save = span!(Level::INFO, &format!("{}.checkpoint", C::NAME)).entered();
    let mut entries: Vec<(String, Value)> = vec![
        ("magic".into(), format!("uaware-{}-checkpoint", C::NAME).to_value()),
        ("version".into(), CHECKPOINT_VERSION.to_value()),
        ("fingerprint".into(), fingerprint(shape.plan).to_value()),
        ("trajectories".into(), progress.trajectories.to_value()),
        ("completed_shards".into(), progress.completed_shards.to_value()),
        ("accums".into(), progress.accums.to_value()),
        ("metrics".into(), progress.metrics.to_value()),
    ];
    entries.push(("checksum".into(), checksum(&entries).to_value()));
    let json = serde_json::to_string(&Value::Object(entries)).expect("JSON values render");
    let write = || {
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()
    };
    write().map_err(|e: std::io::Error| SystemError::Checkpoint {
        path: path.to_path_buf(),
        kind: CheckpointErrorKind::Io(e.to_string()),
    })
}

/// Loads the checkpoint at `path` (`Ok(None)` if there is none yet),
/// checking in order: readable, JSON, this kind's magic, this version, an
/// intact checksum, this plan's fingerprint, a payload shaped like it.
fn load<C: Campaign>(
    path: &Path,
    shape: &Shape<'_>,
) -> Result<Option<Checkpoint<C>>, CheckpointErrorKind> {
    let corrupt = |e: &dyn fmt::Display| CheckpointErrorKind::Corrupt(e.to_string());
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointErrorKind::Io(e.to_string())),
    };
    let text = String::from_utf8(bytes).map_err(|e| corrupt(&e))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| corrupt(&e))?;
    let magic = value.get("magic").and_then(Value::as_str).unwrap_or_default();
    if magic != format!("uaware-{}-checkpoint", C::NAME) {
        return Err(CheckpointErrorKind::Foreign(magic.to_string()));
    }
    match value.get("version").and_then(Value::as_u64) {
        Some(v) if v == u64::from(CHECKPOINT_VERSION) => {}
        Some(v) => return Err(CheckpointErrorKind::Version(v)),
        None => return Err(corrupt(&"no format version")),
    }
    let plan = value.get("fingerprint").and_then(Value::as_u64);
    let Value::Object(mut entries) = value else { return Err(corrupt(&"not a JSON object")) };
    let stored = match entries.pop() {
        Some((key, value)) if key == "checksum" => value.as_u64(),
        _ => None,
    };
    if stored != Some(checksum(&entries)) {
        return Err(corrupt(&"checksum mismatch"));
    }
    if plan != Some(fingerprint(shape.plan)) {
        return Err(CheckpointErrorKind::PlanMismatch);
    }
    let progress = Checkpoint::<C> {
        trajectories: de_field(&entries, "trajectories").map_err(|e| corrupt(&e))?,
        completed_shards: de_field(&entries, "completed_shards").map_err(|e| corrupt(&e))?,
        accums: de_field(&entries, "accums").map_err(|e| corrupt(&e))?,
        metrics: de_field(&entries, "metrics").map_err(|e| corrupt(&e))?,
    };
    if progress.trajectories.len() != shape.trajectories
        || progress.accums.len() != shape.cells
        || progress.completed_shards > shape.shards
    {
        return Err(corrupt(&"payload shape does not match the plan"));
    }
    Ok(Some(progress))
}
