//! The closed-loop workloads: inputs built from the seed, one pass of
//! items run back to back, and the correctness and determinism checks
//! applied to every item.
//!
//! * `suite-be` — the ten-kernel mibench suite on the BE fabric (`2x16`)
//!   under the baseline and `rotation:snake@per-exec`, over
//!   [`SUITE_BE_SUITES`] suites whose input seeds derive from the run seed.
//!   One item is one `System` run.
//! * `gap-faulted` — the optimality-gap cells with injected dead FUs and
//!   `fault_fallback` on, under baseline, rotation and the exact oracle.
//!   One item is one `System` run.
//! * `serve-fleet` — an 8-device, 4-lane serving fleet on BE (baseline and
//!   rotation, the default diurnal + heavy traffic mix, 30 days). One item
//!   is one lane of the fleet under one traffic spec: a `run_serving` call
//!   on a 2-device, 1-lane plan whose lane streams are the fleet's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cgra::{Fabric, FabricSpec, FaultMask};
use mibench::Workload as Kernel;
use nbti::CalibratedAging;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rv32::cpu::Exit;
use transrec::{run_gpp_only, run_serving, ServePlan, System, SystemConfig, TrafficSpec};
use uaware::{derive_cell_seed, AllocationPolicy, PolicySpec, UtilizationTracker};

use crate::stats::{geo_mean, Fnv};

/// Suites (input seeds) one `suite-be` pass runs.
pub const SUITE_BE_SUITES: u64 = 20;

/// Suites (input seeds) one `gap-faulted` pass runs.
pub const GAP_SUITES: u64 = 1;

/// The `gap-faulted` cells: fabric spec and dead-FU density. The
/// bandwidth-budgeted cell is the one that over-subscribes columns.
pub const GAP_CELLS: [(&str, f64); 5] = [
    ("4x8", 0.125),
    ("4x8", 0.25),
    ("4x8:het-checker", 0.125),
    ("4x8:het-checker", 0.25),
    ("4x8+bw-2", 0.125),
];

/// Seed of the `gap-faulted` fault masks. The masks are part of the
/// workload's definition, not of its inputs: the run seed varies the
/// kernels' data, so runs on different seeds face the same dead FUs and
/// the oracle's search effort stays comparable between them.
pub const GAP_MASK_SEED: u64 = 0xDAC_2020;

/// Lanes (distinct workload and traffic streams) of the `serve-fleet` fleet.
pub const SERVE_LANES: u64 = 4;

/// Devices of the `serve-fleet` fleet; each lane serves an equal share.
pub const SERVE_DEVICES: usize = 8;

/// Days the `serve-fleet` fleet is simulated for.
pub const SERVE_DAYS: u64 = 30;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Table I / Fig. 7 experiment on BE.
    SuiteBe,
    /// Faulted optimality-gap cells with the exact oracle.
    GapFaulted,
    /// A live-serving fleet.
    ServeFleet,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::SuiteBe, Kind::GapFaulted, Kind::ServeFleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteBe => "suite-be",
            Kind::GapFaulted => "gap-faulted",
            Kind::ServeFleet => "serve-fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Passes a run completes even past its time budget, so the tail
    /// percentile rests on a guaranteed item count.
    pub fn min_passes(self) -> usize {
        match self {
            Kind::SuiteBe | Kind::GapFaulted => 3,
            Kind::ServeFleet => 5,
        }
    }

    /// The tail percentile the workload reports: the highest with at least
    /// ten items beyond it at the guaranteed item count.
    pub fn tail_percentile(self, items_per_pass: usize) -> f64 {
        crate::stats::tail_percentile(items_per_pass * self.min_passes())
            .expect("every workload guarantees at least twenty items")
    }
}

/// What a `System` item must reproduce: the plain interpreter's run of
/// the same program.
#[derive(Clone, Debug)]
pub struct Reference {
    /// GPP-only cycles (the speedup denominator's numerator).
    pub cycles: u64,
    /// Instructions the interpreter retired.
    pub retired: u64,
    /// How the program halted.
    pub exit: Option<Exit>,
    /// Console output.
    pub output: Vec<u8>,
    /// Hash of the final data segment.
    pub data_hash: u64,
}

fn data_hash(cpu: &rv32::cpu::Cpu, kernel: &Kernel) -> u64 {
    let program = kernel.program();
    let len = (program.data.len() as u32).max(4);
    let mut h = Fnv::default();
    h.bytes(cpu.mem.read_bytes(program.data_base, len).expect("data segment in memory"));
    h.0
}

fn reference(kernel: &Kernel, config: &SystemConfig) -> Reference {
    let cpu = run_gpp_only(kernel.program(), config.mem_size, config.timing, config.max_steps)
        .unwrap_or_else(|e| panic!("{}: GPP-only reference failed: {e}", kernel.name()));
    Reference {
        cycles: cpu.cycles(),
        retired: cpu.retired(),
        exit: cpu.exit(),
        output: cpu.output().to_vec(),
        data_hash: data_hash(&cpu, kernel),
    }
}

/// One `System` item: a kernel on a configuration under a policy.
#[derive(Clone, Debug)]
pub struct SysItem {
    /// Index into [`Setup::configs`].
    pub config: usize,
    /// The allocation policy.
    pub policy: PolicySpec,
    /// Index into [`Setup::kernels`].
    pub kernel: usize,
}

/// One serving item: one lane of the fleet under one traffic spec.
#[derive(Clone, Debug)]
pub struct ServeItem {
    /// The 1-lane plan.
    pub plan: ServePlan,
    /// Which fleet lane it is (indexes [`Setup::lane_instrs`]).
    pub lane: usize,
}

/// Everything a workload builds from the seed before timing starts.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// Every kernel instance the workload runs.
    pub kernels: Vec<Kernel>,
    /// GPP-only reference per kernel (on the BE timing model, which every
    /// configuration here shares).
    pub refs: Vec<Reference>,
    /// Labelled system configurations.
    pub configs: Vec<(String, SystemConfig)>,
    /// The `System` items of one pass (empty for `serve-fleet`).
    pub items: Vec<SysItem>,
    /// The serving items of one pass (empty otherwise).
    pub serve: Vec<ServeItem>,
    /// Mean dynamic instructions of each serving lane's suite.
    pub lane_instrs: Vec<f64>,
    /// `serve-fleet` only: the lane suites run once under the fleet's
    /// policies (the service costs the fleet is built on), which yields
    /// its modelled design metrics and the inputs of its layer probes.
    pub calibration: Option<SysPass>,
    /// Host time of each `mibench::suite` call made while building.
    pub suite_build: Vec<Duration>,
}

impl Setup {
    /// The `System` items layer probes sample: the pass's own, or the
    /// serving calibration's.
    pub fn probe_items(&self) -> Vec<SysItem> {
        if self.items.is_empty() {
            suite_items(self.kind, self.kernels.len())
        } else {
            self.items.clone()
        }
    }

    /// Human-readable label of a `System` item.
    pub fn label(&self, item: &SysItem) -> String {
        format!(
            "{}/{}/{}",
            self.configs[item.config].0,
            item.policy,
            self.kernels[item.kernel].name()
        )
    }
}

fn suites(seed: u64, count: u64, built: &mut Vec<Duration>) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    for i in 0..count {
        let t0 = Instant::now();
        let suite = mibench::suite(derive_cell_seed(seed, i));
        built.push(t0.elapsed());
        kernels.extend(suite);
    }
    kernels
}

/// The dead-FU mask of a gap cell: `round(density × FUs)` distinct cells
/// by partial Fisher–Yates from [`GAP_MASK_SEED`] derived per cell.
fn fault_mask(fabric: &Fabric, density: f64, cell: u64) -> FaultMask {
    let total = fabric.fu_count();
    let dead = ((total as f64) * density).round() as u32;
    assert!(dead < total, "a gap cell must keep at least one live FU");
    let mut rng = SmallRng::seed_from_u64(derive_cell_seed(GAP_MASK_SEED, 0xFA01_7000 ^ cell));
    let mut cells: Vec<u32> = (0..total).collect();
    let mut mask = FaultMask::healthy(fabric);
    for i in 0..dead {
        let j = i + rng.random_range(0..total - i);
        cells.swap(i as usize, j as usize);
        mask.mark_dead(cells[i as usize] / fabric.cols, cells[i as usize] % fabric.cols);
    }
    mask
}

fn policies(kind: Kind) -> Vec<PolicySpec> {
    match kind {
        Kind::GapFaulted => {
            vec![PolicySpec::Baseline, PolicySpec::rotation(), PolicySpec::Exact { every: 1 }]
        }
        Kind::SuiteBe | Kind::ServeFleet => vec![PolicySpec::Baseline, PolicySpec::rotation()],
    }
}

/// Builds a workload's inputs from `seed`.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let mut suite_build = Vec::new();
    let be = SystemConfig::new(Fabric::be());
    let (kernels, configs) = match kind {
        Kind::SuiteBe => (
            suites(seed, SUITE_BE_SUITES, &mut suite_build),
            vec![("2x16".to_string(), be.clone())],
        ),
        Kind::GapFaulted => {
            let configs = GAP_CELLS
                .iter()
                .enumerate()
                .map(|(ci, &(spec, density))| {
                    let spec: FabricSpec = spec.parse().expect("gap cell specs parse");
                    let fabric = spec.build().expect("gap cell specs build");
                    let mut config = SystemConfig::new(fabric);
                    config.faults = Some(fault_mask(&fabric, density, ci as u64));
                    config.fault_fallback = true;
                    (format!("{spec}@dead-{density}"), config)
                })
                .collect();
            (suites(seed, GAP_SUITES, &mut suite_build), configs)
        }
        Kind::ServeFleet => {
            (suites(seed, SERVE_LANES, &mut suite_build), vec![("2x16".to_string(), be.clone())])
        }
    };
    let refs: Vec<Reference> = kernels.iter().map(|k| reference(k, &be)).collect();
    let per_suite = mibench::NAMES.len();
    let mut items = Vec::new();
    let mut serve = Vec::new();
    let mut lane_instrs = Vec::new();
    match kind {
        Kind::SuiteBe => items = suite_items(kind, kernels.len()),
        Kind::GapFaulted => {
            for config in 0..configs.len() {
                for policy in policies(kind) {
                    for kernel in 0..kernels.len() {
                        items.push(SysItem { config, policy, kernel });
                    }
                }
            }
        }
        Kind::ServeFleet => {
            let devices_per_lane = SERVE_DEVICES / SERVE_LANES as usize;
            for lane in 0..SERVE_LANES {
                let lane_refs = &refs[lane as usize * per_suite..][..per_suite];
                let mean =
                    lane_refs.iter().map(|r| r.retired as f64).sum::<f64>() / per_suite as f64;
                lane_instrs.push(mean);
                for traffic in [TrafficSpec::diurnal(), TrafficSpec::heavy()] {
                    let plan = ServePlan::new(derive_cell_seed(seed, lane), Fabric::be())
                        .policies(policies(kind))
                        .traffic_mix([traffic])
                        .devices(devices_per_lane)
                        .lanes(1)
                        .horizon_days(SERVE_DAYS);
                    serve.push(ServeItem { plan, lane: lane as usize });
                }
            }
        }
    }
    let mut setup = Setup {
        kind,
        kernels,
        refs,
        configs,
        items,
        serve,
        lane_instrs,
        calibration: None,
        suite_build,
    };
    if kind == Kind::ServeFleet {
        let items = suite_items(kind, setup.kernels.len());
        setup.calibration = Some(run_sys_items(&setup, &items, &mut Plain));
    }
    setup
}

/// Each suite of `kernels` under each of the workload's policies, on the
/// first configuration: suite by suite, policy by policy.
fn suite_items(kind: Kind, kernels: usize) -> Vec<SysItem> {
    let per_suite = mibench::NAMES.len();
    let mut items = Vec::new();
    for suite in 0..kernels / per_suite {
        for policy in policies(kind) {
            for k in 0..per_suite {
                items.push(SysItem { config: 0, policy, kernel: suite * per_suite + k });
            }
        }
    }
    items
}

/// What a pass lets the caller change: the policy instance each `System`
/// item runs (so a traced pass can tap it) and what happens to each
/// item's timing.
pub trait Hooks {
    /// The policy instance for an item.
    fn policy(&mut self, spec: &PolicySpec) -> Box<dyn AllocationPolicy> {
        spec.build()
    }

    /// Called after every item with its label and host interval.
    fn item(&mut self, _label: &str, _start: Instant, _end: Instant) {}
}

/// No hooks: spec-built policies, nothing recorded.
pub struct Plain;

impl Hooks for Plain {}

/// The outcome of one pass over a workload's items.
#[derive(Clone, Debug, Default)]
pub struct SysPass {
    /// Host seconds of each item, in item order.
    pub item_s: Vec<f64>,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Simulated instructions (GPP-retired + offloaded).
    pub instrs: u64,
    /// Requests served: `System` runs, or serving requests for
    /// `serve-fleet`.
    pub requests: u64,
    /// One line per failed item.
    pub failures: Vec<String>,
    /// Determinism digest over every item's simulated outputs.
    pub digest: u64,
    /// Merged per-FU stress per (configuration, policy) (`System` items
    /// only).
    pub trackers: BTreeMap<(usize, String), UtilizationTracker>,
    /// GPP-only cycles / system cycles of every rotation item.
    pub rotation_speedups: Vec<f64>,
    /// Summed serving cells: simulated device-days and service
    /// measurements (`serve-fleet` only).
    pub simulated_days: u64,
    /// See [`SysPass::simulated_days`].
    pub simulated_services: u64,
}

impl SysPass {
    /// Items attempted.
    pub fn attempted(&self) -> u64 {
        self.item_s.len() as u64
    }

    /// Rotation's worst-FU lifetime over the baseline's from the merged
    /// trackers (`u_baseline / u_rotation`), geometric mean over the
    /// configurations. A configuration where either policy never reached
    /// the fabric (a dead origin starves the immobile baseline) has no
    /// finite ratio and is left out; with none left the gain is 1.
    pub fn lifetime_gain(&self) -> f64 {
        let (base, rot) = (PolicySpec::Baseline.to_string(), PolicySpec::rotation().to_string());
        let worst = |config: usize, policy: &str| {
            self.trackers.get(&(config, policy.to_string())).map_or(0.0, |t| t.utilization().max())
        };
        geo_mean(self.trackers.keys().filter(|(_, p)| *p == rot).filter_map(|&(config, _)| {
            let (u_base, u_rot) = (worst(config, &base), worst(config, &rot));
            (u_base > 0.0 && u_rot > 0.0)
                .then(|| CalibratedAging::default().lifetime_improvement(u_base, u_rot))
        }))
    }

    /// Geometric-mean simulated speedup of the rotation items.
    pub fn speedup(&self) -> f64 {
        geo_mean(self.rotation_speedups.iter().copied())
    }
}

/// Runs one pass of `setup`'s items.
pub fn run_pass(setup: &Setup, hooks: &mut dyn Hooks) -> SysPass {
    if setup.serve.is_empty() {
        run_sys_items(setup, &setup.items, hooks)
    } else {
        run_serve_items(setup, hooks)
    }
}

/// Runs `items` back to back, checking each against its oracle and the
/// GPP-only reference.
pub fn run_sys_items(setup: &Setup, items: &[SysItem], hooks: &mut dyn Hooks) -> SysPass {
    let mut pass = SysPass::default();
    let mut digest = Fnv::default();
    let rotation = PolicySpec::rotation();
    let pass_start = Instant::now();
    for item in items {
        let config = &setup.configs[item.config].1;
        let kernel = &setup.kernels[item.kernel];
        let start = Instant::now();
        let mut system = System::new(config.clone(), hooks.policy(&item.policy));
        let run = system.run(kernel.program());
        let end = Instant::now();
        pass.item_s.push((end - start).as_secs_f64());
        hooks.item(&setup.label(item), start, end);
        let outcome = run
            .map_err(|e| e.to_string())
            .and_then(|_| check(kernel, &setup.refs[item.kernel], &system));
        if let Err(e) = outcome {
            pass.failures.push(format!("{}: {e}", setup.label(item)));
            continue;
        }
        let stats = system.stats();
        pass.instrs += stats.total_instrs();
        pass.requests += 1;
        digest.debug(stats);
        for &count in system.tracker().exec_counts() {
            digest.u64(count);
        }
        pass.trackers
            .entry((item.config, item.policy.to_string()))
            .or_insert_with(|| UtilizationTracker::new(&config.fabric))
            .merge(system.tracker());
        if item.policy == rotation {
            pass.rotation_speedups
                .push(setup.refs[item.kernel].cycles as f64 / stats.total_cycles() as f64);
        }
    }
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    pass.digest = digest.0;
    pass
}

/// The correctness gate of one `System` item: the kernel's own oracle,
/// then equivalence with the plain interpreter — same exit, console
/// output, final data segment and dynamic instruction count.
fn check(kernel: &Kernel, reference: &Reference, system: &System) -> Result<(), String> {
    kernel.verify(system.cpu()).map_err(|e| e.to_string())?;
    let cpu = system.cpu();
    if cpu.exit() != reference.exit {
        return Err(format!("exit {:?} differs from GPP-only {:?}", cpu.exit(), reference.exit));
    }
    if cpu.output() != reference.output.as_slice() {
        return Err("console output differs from GPP-only".to_string());
    }
    if data_hash(cpu, kernel) != reference.data_hash {
        return Err("final data segment differs from GPP-only".to_string());
    }
    let instrs = system.stats().total_instrs();
    if instrs != reference.retired {
        return Err(format!(
            "{instrs} instructions simulated, GPP-only retired {}",
            reference.retired
        ));
    }
    Ok(())
}

fn run_serve_items(setup: &Setup, hooks: &mut dyn Hooks) -> SysPass {
    let mut pass = SysPass::default();
    let mut digest = Fnv::default();
    let pass_start = Instant::now();
    for item in &setup.serve {
        let label = format!("lane-{}/{}", item.lane, item.plan.traffic[0]);
        let start = Instant::now();
        let report = run_serving(&item.plan, 1);
        let end = Instant::now();
        pass.item_s.push((end - start).as_secs_f64());
        hooks.item(&label, start, end);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                pass.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let mut ok = report.cells.len() == item.plan.policies.len();
        for cell in &report.cells {
            ok &= cell.served_cgra + cell.served_gpp + cell.shed == cell.total_requests;
            pass.requests += cell.served_cgra + cell.served_gpp;
            pass.instrs += (cell.simulated_services as f64 * setup.lane_instrs[item.lane]) as u64;
            pass.simulated_days += cell.simulated_days;
            pass.simulated_services += cell.simulated_services;
            digest.debug(cell);
        }
        if !ok {
            pass.failures.push(format!("{label}: request accounting does not balance"));
        }
    }
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    pass.digest = digest.0;
    pass
}

/// The pass whose trackers and speedups give the workload's modelled
/// design metrics.
pub fn model_pass<'a>(setup: &'a Setup, first: &'a SysPass) -> &'a SysPass {
    setup.calibration.as_ref().unwrap_or(first)
}
