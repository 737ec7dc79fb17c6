//! The traced run: the deterministic `obs` counters of one traced pass,
//! host time per call of each crate's public functions on inputs captured
//! from the same workload, and the split of one scheduling decision.
//!
//! Nothing here adds a span inside the program: every timing is taken
//! around a call made from this file, on a policy wrapper passed in
//! through `System::new`, or by an observer attached with
//! `System::attach_observer`.

use std::cell::RefCell;
use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cgra::op::OpKind;
use cgra::{Executor, Fabric, FaultMask, Offset};
use dbt::membus::MemoryBus;
use dbt::{ConfigCache, TraceExit, Translator};
use lifetime::DeviceLifetime;
use mibench::Workload as Kernel;
use nbti::CalibratedAging;
use rv32::cpu::{Cpu, Retired};
use solve::OffsetProblem;
use transrec::telemetry::{EventCtx, Observer, SimEvent};
use transrec::traffic::{day_traffic, DEFAULT_CLOCK_HZ};
use transrec::{probe_service_day, run_gpp_only, ServePlan, System, SystemConfig, TrafficSpec};
use uaware::{AllocRequest, AllocationPolicy, PolicySpec, UtilizationGrid, UtilizationTracker};

use crate::stats::{median, overhead_pct, ratio, Fnv};
use crate::trace::Recorder;
use crate::workloads::{run_pass, run_sys_items, Hooks, Kind, Plain, Setup, SysItem};
use crate::{Metric, Verdict};

/// Every `SAMPLE_STRIDE`-th allocation request of the traced pass is kept
/// as a replay input.
const SAMPLE_STRIDE: u64 = 37;

/// At most this many allocation requests are kept.
const MAX_SAMPLES: usize = 4096;

/// `System` items the per-call probes run on, spread over the pass.
const PROBE_ITEMS: usize = 24;

/// A batch probe repeats until it has run this long (and at least three
/// times), then reports its median repetition.
const MIN_PROBE: Duration = Duration::from_millis(30);

/// Host ns per instruction of the GPP-only interpreter on the workload's
/// first suite: the in-run reference for host drift.
pub fn gpp_step_ns(setup: &Setup) -> f64 {
    let config = SystemConfig::new(Fabric::be());
    let kernels = &setup.kernels[..mibench::NAMES.len()];
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let retired: u64 = kernels
                .iter()
                .map(|k| {
                    run_gpp_only(k.program(), config.mem_size, config.timing, config.max_steps)
                        .expect("GPP-only reference runs")
                        .retired()
                })
                .sum();
            t0.elapsed().as_nanos() as f64 / retired as f64
        })
        .collect();
    median(&reps)
}

/// Median ns per operation of `f`, which performs `ops` operations, over
/// repetitions lasting at least [`MIN_PROBE`] in total.
fn per_op_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < 3 || (start.elapsed() < MIN_PROBE && reps.len() < 200) {
        let t0 = Instant::now();
        f();
        reps.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&reps)
}

/// Median cost of reading the clock twice, subtracted from per-call
/// timings.
fn timer_overhead_ns() -> f64 {
    let reps: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            black_box(Instant::now() - t0).as_nanos() as f64
        })
        .collect();
    median(&reps)
}

/// An allocation request captured from the traced pass.
struct Sample {
    fabric: Fabric,
    config_switch: bool,
    footprint: Vec<(u32, u32)>,
    tracker: UtilizationTracker,
    faults: Option<FaultMask>,
    demands: Vec<(u32, u32, OpKind)>,
}

impl Sample {
    fn of(req: &AllocRequest<'_>) -> Sample {
        Sample {
            fabric: *req.fabric,
            config_switch: req.config_switch,
            footprint: req.footprint.to_vec(),
            tracker: req.tracker.clone(),
            faults: req.faults.cloned(),
            demands: req.demands.to_vec(),
        }
    }

    fn request(&self) -> AllocRequest<'_> {
        AllocRequest {
            fabric: &self.fabric,
            config_switch: self.config_switch,
            footprint: &self.footprint,
            tracker: &self.tracker,
            faults: self.faults.as_ref(),
            demands: &self.demands,
        }
    }
}

#[derive(Default)]
struct TapLog {
    calls: u64,
    samples: Vec<Sample>,
}

/// A policy wrapper that keeps a sample of the requests it forwards.
struct Tap {
    inner: Box<dyn AllocationPolicy>,
    log: Rc<RefCell<TapLog>>,
}

impl fmt::Debug for Tap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tap").field("inner", &self.inner).finish()
    }
}

impl AllocationPolicy for Tap {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        {
            let mut log = self.log.borrow_mut();
            log.calls += 1;
            if log.calls.is_multiple_of(SAMPLE_STRIDE) && log.samples.len() < MAX_SAMPLES {
                log.samples.push(Sample::of(req));
            }
        }
        self.inner.next_offset(req)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn needs_movement(&self) -> bool {
        self.inner.needs_movement()
    }
}

/// Hooks of the traced pass: tapped policies, one span per item.
struct TraceHooks<'a> {
    log: Rc<RefCell<TapLog>>,
    recorder: &'a mut Recorder,
    /// The pass span the item spans belong to.
    pass: Option<usize>,
}

impl Hooks for TraceHooks<'_> {
    fn policy(&mut self, spec: &PolicySpec) -> Box<dyn AllocationPolicy> {
        Box::new(Tap { inner: spec.build(), log: Rc::clone(&self.log) })
    }

    fn item(&mut self, label: &str, start: Instant, end: Instant) {
        self.recorder.record_item(label, self.pass, start, end);
    }
}

/// What one functional replay of a kernel through the DBT and executor
/// captured: the decision PCs, the retired stream the translator saw, and
/// every fabric execution.
struct Replay {
    fabric: Fabric,
    translator: dbt::TranslatorParams,
    cache: ConfigCache,
    pcs: Vec<u32>,
    retired: Vec<(Retired, bool)>,
    executions: Vec<(Vec<(u32, u32)>, u32)>,
    execute_ns: f64,
}

/// Re-runs `kernel` on `config` through the public layers alone — the
/// interpreter, the configuration cache, the trace translator and the
/// executor at the origin pivot — timing each execution, and checks the
/// result against the kernel's oracle.
fn replay(kernel: &Kernel, config: &SystemConfig, timer_ns: f64) -> Result<Replay, String> {
    let fabric = config.fabric;
    let mut cpu = Cpu::with_timing(config.mem_size, config.timing);
    cpu.load_program(kernel.program()).map_err(|e| e.to_string())?;
    let mut translator = Translator::with_params(fabric, config.translator);
    let mut cache = ConfigCache::new(config.cache_capacity);
    let executor = Executor::new(&fabric);
    let (mut pcs, mut retired, mut executions) = (Vec::new(), Vec::new(), Vec::new());
    let mut execute = Duration::ZERO;
    while cpu.exit().is_none() {
        if pcs.len() as u64 > kernel.max_steps() {
            return Err(format!("{}: replay exceeded its step budget", kernel.name()));
        }
        let pc = cpu.pc();
        pcs.push(pc);
        if let Some(cc) = cache.lookup(pc) {
            let inputs: Vec<u32> = cc.input_regs.iter().map(|r| cpu.reg(*r)).collect();
            let t0 = Instant::now();
            let outcome = executor
                .execute(&cc.config, Offset::ORIGIN, &inputs, &mut MemoryBus::new(&mut cpu.mem))
                .map_err(|e| format!("{}: {e}", kernel.name()))?;
            execute += t0.elapsed();
            for (reg, value) in cc.output_regs.iter().zip(&outcome.outputs) {
                cpu.set_reg(*reg, *value);
            }
            let next = match cc.exit {
                TraceExit::Branch { taken, not_taken } => {
                    let cond = cc.cond_output_index.expect("branch exit carries a condition");
                    if outcome.outputs[cond] != 0 {
                        taken
                    } else {
                        not_taken
                    }
                }
                _ => cc.next_pc(),
            };
            cpu.set_pc(next);
            executions.push((outcome.active_cells, cc.config.cols_used()));
            continue;
        }
        let r = cpu.step().map_err(|e| format!("{}: {e}", kernel.name()))?;
        let cached = cache.contains(r.pc);
        retired.push((r, cached));
        for built in translator.observe(&r, cached) {
            cache.insert(built);
        }
    }
    kernel.verify(&cpu).map_err(|e| format!("replay: {e}"))?;
    let execute_ns =
        (ratio(execute.as_nanos() as f64, executions.len() as f64) - timer_ns).max(0.0);
    Ok(Replay {
        fabric,
        translator: config.translator,
        cache,
        pcs,
        retired,
        executions,
        execute_ns,
    })
}

/// Event timestamps within one scheduling decision.
#[derive(Default)]
struct Marks {
    offload_started: Option<Instant>,
    offload_done: Option<Instant>,
    retired: bool,
}

/// An observer that timestamps the decision's events.
struct PathClock(Rc<RefCell<Marks>>);

impl Observer for PathClock {
    fn on_event(&mut self, _ctx: &EventCtx<'_>, event: &SimEvent) {
        let now = Instant::now();
        let mut marks = self.0.borrow_mut();
        match event {
            SimEvent::OffloadStarted { .. } => marks.offload_started = Some(now),
            SimEvent::OffloadCompleted { .. } => marks.offload_done = Some(now),
            SimEvent::GppRetired { .. } => marks.retired = true,
            _ => {}
        }
    }
}

/// Host time of stepping one item decision by decision.
#[derive(Default)]
struct PathSplit {
    offload: Duration,
    offloads: u64,
    /// Offload steps up to `OffloadStarted`: lookup, clone, allocation.
    offload_prepare: Duration,
    /// `OffloadStarted` to `OffloadCompleted`: execution, commit, tracking.
    offload_execute: Duration,
    gpp: Duration,
    gpps: u64,
    /// Loading the program and the halting step.
    other: Duration,
}

fn step_split(config: &SystemConfig, spec: &PolicySpec, kernel: &Kernel, split: &mut PathSplit) {
    let marks = Rc::new(RefCell::new(Marks::default()));
    let mut system = System::new(config.clone(), spec.build());
    system.attach_observer(Box::new(PathClock(Rc::clone(&marks))));
    let t0 = Instant::now();
    let mut session = system.session(kernel.program()).expect("probe kernels load");
    split.other += t0.elapsed();
    loop {
        *marks.borrow_mut() = Marks::default();
        let t0 = Instant::now();
        let status = session.step().expect("probe kernels run");
        let t1 = Instant::now();
        let m = marks.borrow();
        match (m.offload_started, m.offload_done) {
            (Some(started), Some(done)) => {
                split.offload += t1 - t0;
                split.offload_prepare += started - t0;
                split.offload_execute += done - started;
                split.offloads += 1;
            }
            _ if m.retired => {
                split.gpp += t1 - t0;
                split.gpps += 1;
            }
            _ => split.other += t1 - t0,
        }
        if !status.is_running() {
            break;
        }
    }
}

/// The policies whose `next_offset` is timed.
const POLICIES: [PolicySpec; 3] = [
    PolicySpec::Baseline,
    PolicySpec::Rotation {
        pattern: uaware::PatternSpec::Snake,
        granularity: uaware::MovementGranularity::PerExecution,
    },
    PolicySpec::Exact { every: 1 },
];

/// The decision mix of a set of `System` runs.
#[derive(Default)]
struct Mix {
    gpp: u64,
    offloads: u64,
    /// `next_offset` calls (offloads and starved attempts) per policy key.
    allocations: std::collections::BTreeMap<&'static str, u64>,
}

impl Mix {
    fn add(&mut self, spec: &PolicySpec, stats: &transrec::SystemStats) {
        self.gpp += stats.gpp_retired;
        self.offloads += stats.offloads;
        *self.allocations.entry(policy_key(spec)).or_default() +=
            stats.offloads + stats.offloads_starved;
    }

    fn decisions(&self) -> u64 {
        self.gpp + self.offloads
    }

    fn calls(&self, spec: &PolicySpec) -> f64 {
        self.allocations.get(policy_key(spec)).copied().unwrap_or(0) as f64
    }
}

/// Runs one layer probe as a child span of `parent`.
fn probe<T>(rec: &mut Recorder, parent: usize, name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    rec.record(format!("layer/{name}"), Some(parent), t0, Instant::now());
    v
}

/// `count` items spread over `items` (a stride coprime with the suite
/// and policy blocks, so kernels, policies and configurations all appear).
fn spread(items: &[SysItem], count: usize) -> Vec<SysItem> {
    let mut picked: Vec<usize> =
        (0..count.min(items.len())).map(|i| i * 37 % items.len()).collect();
    picked.sort_unstable();
    picked.dedup();
    picked.into_iter().map(|i| items[i].clone()).collect()
}

/// Host ns per arrival of `day_traffic` over three days of the default
/// mix, and host ns per request of a serving day (`probe_service_day`
/// with its service-cost measurement cancelled out against an idle day).
fn traffic_probes(seed: u64) -> (f64, f64) {
    let mut arrivals = 0usize;
    let t0 = Instant::now();
    for day in 0..3 {
        for spec in [TrafficSpec::diurnal(), TrafficSpec::heavy()] {
            arrivals += black_box(day_traffic(&spec, seed, day, DEFAULT_CLOCK_HZ, 10)).len();
        }
    }
    let arrival_ns = t0.elapsed().as_nanos() as f64 / arrivals as f64;

    let rotation = PolicySpec::rotation();
    let plan = ServePlan::new(seed, Fabric::be()).policy(rotation).devices(1).lanes(1);
    let idle = TrafficSpec::Steady { per_hour: 1 };
    let day = |traffic: &TrafficSpec| {
        let t0 = Instant::now();
        let (report, _) = probe_service_day(&plan, &rotation, traffic, 0, 0, &[])
            .expect("a pristine serving day runs");
        (t0.elapsed().as_nanos() as f64, report.requests as f64)
    };
    let (mut busy, mut quiet) = (Vec::new(), Vec::new());
    let (mut busy_req, mut quiet_req) = (0.0, 0.0);
    for _ in 0..3 {
        let (t, r) = day(&TrafficSpec::diurnal());
        busy.push(t);
        busy_req = r;
        let (t, r) = day(&idle);
        quiet.push(t);
        quiet_req = r;
    }
    let day_ns = ratio(median(&busy) - median(&quiet), busy_req - quiet_req);
    (arrival_ns, day_ns)
}

/// Runs the traced measurement of `kind` on `seed` and returns the
/// per-layer metrics; writes the spans under `out`. The untraced passes
/// the trace overhead is measured against take `seconds`.
pub fn traced(kind: Kind, seed: u64, seconds: f64, out: &Path) -> (Vec<Metric>, Verdict) {
    let mut rec = Recorder::new();
    let run_span = rec.open(format!("{}/seed-{seed}", kind.name()), None);
    let setup = crate::workloads::setup(kind, seed);

    // Untraced passes, then the traced pass.
    let untraced = crate::timed_passes(&setup, seconds);
    let log = Rc::new(RefCell::new(TapLog::default()));
    let traced_span = rec.open("traced-pass", Some(run_span));
    let (traced, reg) = obs::collect(|| {
        let mut hooks =
            TraceHooks { log: Rc::clone(&log), recorder: &mut rec, pass: Some(traced_span) };
        run_pass(&setup, &mut hooks)
    });
    rec.close(traced_span);
    // A second collected pass, without hooks, must leave the same
    // registry counters: the registry digest is checked like the pass one.
    let (again, reg_again) = obs::collect(|| run_pass(&setup, &mut Plain));
    let registry_digest = counters_digest(&reg);
    let registry_again = counters_digest(&reg_again);
    // Host scaling is one factor per run, so it cancels in this ratio.
    let host_ref_ms = median(&untraced.refs);
    let untraced_walls: Vec<f64> = untraced.passes.iter().map(|p| p.wall_s).collect();
    let trace_overhead = overhead_pct(traced.wall_s, median(&untraced_walls));

    let mut verdict =
        Verdict::of(&untraced.passes.iter().chain([&traced, &again]).collect::<Vec<_>>());
    verdict.digests.push(("registry", registry_digest));
    if registry_again != registry_digest {
        verdict.errors.push(format!(
            "registry digest mismatch: {registry_digest:016x} then {registry_again:016x}"
        ));
    }
    if let Some(calibration) = &setup.calibration {
        verdict.absorb(calibration);
    }

    // Serving passes run no System items of their own: capture requests
    // from the lane suites' service runs instead.
    let probe_items = spread(&setup.probe_items(), PROBE_ITEMS);
    if kind == Kind::ServeFleet {
        let mut hooks =
            TraceHooks { log: Rc::clone(&log), recorder: &mut Recorder::new(), pass: None };
        run_sys_items(&setup, &setup.probe_items(), &mut hooks);
    }
    let samples = std::mem::take(&mut log.borrow_mut().samples);

    let layers_span = rec.open("layers", Some(run_span));
    let timer_ns = timer_overhead_ns();

    let step_ns = probe(&mut rec, layers_span, "rv32.step", || gpp_step_ns(&setup));

    // Whole-run decision cost and allocations, then the stepped split.
    let mut mix = Mix::default();
    let mut allocs = 0u64;
    let mut run_time = Duration::ZERO;
    let mut trackers: Vec<(Fabric, UtilizationTracker)> = Vec::new();
    let mut duties: Vec<UtilizationGrid> = Vec::new();
    probe(&mut rec, layers_span, "transrec.run", || {
        for item in &probe_items {
            let config = &setup.configs[item.config].1;
            let kernel = &setup.kernels[item.kernel];
            let mut system = System::new(config.clone(), item.policy.build());
            let a0 = crate::alloc::count();
            let t0 = Instant::now();
            system.run(kernel.program()).expect("probe kernels run");
            run_time += t0.elapsed();
            allocs += crate::alloc::count() - a0;
            let stats = system.stats();
            mix.add(&item.policy, stats);
            duties.push(system.tracker().duty_cycles(stats.total_cycles()));
            trackers.push((config.fabric, system.tracker().clone()));
        }
    });
    let decision_ns = ratio(run_time.as_nanos() as f64, mix.decisions() as f64);
    let mut split = PathSplit::default();
    probe(&mut rec, layers_span, "transrec.step", || {
        for item in &probe_items {
            let config = &setup.configs[item.config].1;
            step_split(config, &item.policy, &setup.kernels[item.kernel], &mut split);
        }
    });
    let split_decisions = (split.offloads + split.gpps) as f64;

    // Functional replays through the DBT and executor.
    let mut replays = Vec::new();
    probe(&mut rec, layers_span, "replay", || {
        for item in &probe_items {
            let config = &setup.configs[item.config].1;
            match replay(&setup.kernels[item.kernel], config, timer_ns) {
                Ok(r) => replays.push(r),
                Err(e) => verdict.errors.push(e),
            }
        }
    });
    let lookups: usize = replays.iter().map(|r| r.pcs.len()).sum();
    let lookup_ns = probe(&mut rec, layers_span, "dbt.lookup", || {
        per_op_ns(lookups, || {
            for r in &mut replays {
                for &pc in &r.pcs {
                    black_box(r.cache.lookup(pc));
                }
            }
        })
    });
    let observed: usize = replays.iter().map(|r| r.retired.len()).sum();
    let observe_ns = probe(&mut rec, layers_span, "dbt.observe", || {
        per_op_ns(observed, || {
            for r in &replays {
                let mut translator = Translator::with_params(r.fabric, r.translator);
                for (retired, cached) in &r.retired {
                    black_box(translator.observe(retired, *cached));
                }
            }
        })
    });
    let executions: usize = replays.iter().map(|r| r.executions.len()).sum();
    let execute_ns = replays.iter().map(|r| r.execute_ns * r.executions.len() as f64).sum::<f64>()
        / executions.max(1) as f64;
    let record_ns = probe(&mut rec, layers_span, "uaware.record", || {
        per_op_ns(executions, || {
            for r in &replays {
                let mut tracker = UtilizationTracker::new(&r.fabric);
                for (cells, cols) in &r.executions {
                    tracker.record_execution(cells, *cols);
                }
                black_box(tracker);
            }
        })
    });

    // Allocation policies and the oracle on the captured requests.
    let requests: Vec<AllocRequest<'_>> = samples.iter().map(Sample::request).collect();
    let mut next_offset_ns = Vec::new();
    for spec in POLICIES {
        let name = format!("uaware.next_offset.{}", policy_key(&spec));
        next_offset_ns.push(probe(&mut rec, layers_span, &name, || {
            let mut policy = spec.build();
            per_op_ns(requests.len(), || {
                for req in &requests {
                    black_box(policy.next_offset(req));
                }
            })
        }));
    }
    let problems: Vec<OffsetProblem> = samples
        .iter()
        .map(|s| {
            let req = s.request();
            OffsetProblem::new(&s.fabric, &s.footprint, s.tracker.stress_counts(), 1, |o| {
                req.placement_ok(o)
            })
        })
        .collect();
    let solve_ns = probe(&mut rec, layers_span, "solve.solve", || {
        per_op_ns(problems.len(), || {
            for p in &problems {
                black_box(solve::solve(p));
            }
        })
    });
    // Trackers merge only within one fabric (geometry and budgets).
    let fabric = setup.configs[probe_items[0].config].1.fabric;
    let trackers: Vec<&UtilizationTracker> =
        trackers.iter().filter(|(f, _)| *f == fabric).map(|(_, t)| t).collect();
    let merge_ns = probe(&mut rec, layers_span, "uaware.merge", || {
        per_op_ns(trackers.len() * 64, || {
            let mut acc = UtilizationTracker::new(&fabric);
            for _ in 0..64 {
                for &t in &trackers {
                    acc.merge(t);
                }
            }
            black_box(acc);
        })
    });
    let advance_ns = probe(&mut rec, layers_span, "lifetime.advance", || {
        per_op_ns(duties.len() * 16, || {
            let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), false);
            for _ in 0..16 {
                for duty in &duties {
                    black_box(device.advance_mission(duty, 1e-3));
                }
            }
        })
    });
    let (arrival_ns, day_ns) = probe(&mut rec, layers_span, "traffic", || traffic_probes(seed));
    rec.close(layers_span);
    rec.close(run_span);

    // Each layer's share of the probe items' `System::run` time: its
    // per-call cost times the calls those runs made.
    let share = |ns: f64| ratio(ns, run_time.as_nanos() as f64) * 100.0;
    let allocation_ns: f64 =
        POLICIES.iter().zip(&next_offset_ns).map(|(p, ns)| mix.calls(p) * ns).sum();
    let (gpp, offloads) = (mix.gpp as f64, mix.offloads as f64);
    let shares = [
        ("rv32", share(gpp * step_ns)),
        ("dbt", share(mix.decisions() as f64 * lookup_ns + gpp * observe_ns)),
        ("cgra", share(offloads * execute_ns)),
        ("uaware", share(allocation_ns + offloads * record_ns)),
    ];
    let unattributed = 100.0 - shares.iter().map(|(_, s)| s).sum::<f64>();

    let mut attribution: Vec<(String, f64)> =
        shares.iter().map(|(layer, s)| (format!("{layer}_pct"), *s)).collect();
    attribution.push(("unattributed_pct".to_string(), unattributed));
    attribution.push((
        "offload_prepare_ns".to_string(),
        ratio(split.offload_prepare.as_nanos() as f64, split.offloads as f64),
    ));
    attribution.push((
        "offload_execute_ns".to_string(),
        ratio(split.offload_execute.as_nanos() as f64, split.offloads as f64),
    ));
    let path = out.join(format!("{}-seed{seed}.trace.json", kind.name()));
    let header = [
        ("workload", kind.name().to_string()),
        ("seed", seed.to_string()),
        ("digest", format!("{:016x}", traced.digest)),
        ("registry_digest", format!("{registry_digest:016x}")),
    ];
    match rec.write_json(&path, &header, &attribution) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => verdict.errors.push(format!("writing {}: {e}", path.display())),
    }

    let c = |name: &str| reg.counter(name);
    let calls = c("solve.calls");
    let translate_calls = c("dbt.translate.calls");
    let mut metrics = vec![
        Metric::new("rv32.step_ns", step_ns, "ns"),
        Metric::new("rv32.retired", c("system.gpp_retired") as f64, "count"),
        Metric::new("dbt.lookup_ns", lookup_ns, "ns"),
        Metric::new("dbt.observe_ns", observe_ns, "ns"),
    ];
    for name in ["dbt.cache.hit", "dbt.cache.miss", "dbt.cache.insert"] {
        metrics.push(Metric::new(name, c(name) as f64, "count"));
    }
    metrics.push(Metric::new("dbt.translate.calls", translate_calls as f64, "count"));
    metrics.push(Metric::new(
        "dbt.translate.rejected",
        c("dbt.translate.rejected") as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "dbt.translate_accept_ratio",
        ratio((translate_calls - c("dbt.translate.rejected")) as f64, translate_calls as f64),
        "ratio",
    ));
    metrics.push(Metric::new("cgra.execute_ns", execute_ns, "ns"));
    metrics.push(Metric::new(
        "cgra.bandwidth.oversub",
        c("cgra.bandwidth.oversub") as f64,
        "count",
    ));
    for (spec, ns) in POLICIES.iter().zip(&next_offset_ns) {
        metrics.push(Metric::new(format!("uaware.next_offset_ns.{}", policy_key(spec)), *ns, "ns"));
    }
    metrics.push(Metric::new("uaware.record_ns", record_ns, "ns"));
    metrics.push(Metric::new("uaware.merge_ns", merge_ns, "ns"));
    for key in ["baseline", "rotation", "exact"] {
        let name = format!("alloc.{key}.decisions");
        metrics.push(Metric::new(name.clone(), c(&name) as f64, "count"));
    }
    metrics.push(Metric::new(
        "system.offloads_starved",
        c("system.offloads_starved") as f64,
        "count",
    ));
    metrics.push(Metric::new("solve.solve_ns", solve_ns, "ns"));
    for name in
        ["solve.calls", "solve.expanded", "solve.generated", "solve.bound_cutoffs", "solve.nogoods"]
    {
        metrics.push(Metric::new(name, c(name) as f64, "count"));
    }
    metrics.push(Metric::new(
        "solve.expanded_per_call",
        ratio(c("solve.expanded") as f64, calls as f64),
        "ratio",
    ));
    metrics.extend([
        Metric::new("transrec.decision_ns", decision_ns, "ns"),
        Metric::new(
            "transrec.allocs_per_decision",
            ratio(allocs as f64, mix.decisions() as f64),
            "allocs/decision",
        ),
        Metric::new(
            "transrec.offload_path_ns",
            ratio(split.offload.as_nanos() as f64, split.offloads as f64),
            "ns",
        ),
        Metric::new(
            "transrec.gpp_path_ns",
            ratio(split.gpp.as_nanos() as f64, split.gpps as f64),
            "ns",
        ),
        Metric::new(
            "transrec.other_ns",
            ratio(split.other.as_nanos() as f64, split_decisions),
            "ns",
        ),
    ]);
    for (layer, s) in &shares {
        metrics.push(Metric::new(format!("transrec.share.{layer}_pct"), *s, "%"));
    }
    metrics.push(Metric::new("transrec.share.unattributed_pct", unattributed, "%"));
    metrics.push(Metric::new("traffic.arrival_ns", arrival_ns, "ns"));
    metrics.push(Metric::new("traffic.day_ns_per_request", day_ns, "ns"));
    for name in [
        "traffic.requests.arrived",
        "traffic.requests.served_cgra",
        "traffic.requests.served_gpp",
        "traffic.requests.shed",
    ] {
        metrics.push(Metric::new(name, c(name) as f64, "count"));
    }
    metrics.push(Metric::new("serve.simulated_days", traced.simulated_days as f64, "count"));
    metrics.push(Metric::new(
        "serve.simulated_services",
        traced.simulated_services as f64,
        "count",
    ));
    metrics.push(Metric::new("lifetime.advance_ns", advance_ns, "ns"));
    metrics.push(Metric::new("wear.missions", c("wear.missions") as f64, "count"));
    let builds: Vec<f64> = setup.suite_build.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    metrics.push(Metric::new("mibench.suite_build_ms", median(&builds), "ms"));
    metrics.push(Metric::new("obs.trace_overhead_pct", trace_overhead, "%"));
    metrics.push(Metric::new("host.ref_ms", host_ref_ms, "ms"));
    (metrics, verdict)
}

/// FNV-1a over the registry's counters, names and values in name order.
fn counters_digest(reg: &obs::Registry) -> u64 {
    let mut digest = Fnv::default();
    for (name, value) in reg.counters() {
        digest.bytes(name.as_bytes());
        digest.u64(value);
    }
    digest.0
}

/// The policy's key in metric names (`baseline`, `rotation`, `exact`).
fn policy_key(spec: &PolicySpec) -> &'static str {
    match spec {
        PolicySpec::Baseline => "baseline",
        PolicySpec::Rotation { .. } => "rotation",
        PolicySpec::Exact { .. } => "exact",
        _ => "other",
    }
}
