//! The telemetry layer's core contracts (DESIGN.md §10):
//!
//! * each event is counted once: the `system.*` registry counters agree
//!   with `SystemStats` and with the configuration cache's own
//!   `dbt.cache.*` metrics;
//! * sessions are step-equivalent to `run()` and resumable;
//! * epoch snapshots end on the run's exact final state;
//! * a probe spec that cannot build is a typed error, not a panic.

use cgra::Fabric;
use transrec::sweep::SuiteSpec;
use transrec::telemetry::{ProbeReport, ProbeSpec};
use transrec::traffic::{probe_service_day, ServePlan, TrafficSpec};
use transrec::{BuildError, SessionStatus, System, SystemError};
use uaware::PolicySpec;

fn toy_program() -> rv32::Program {
    rv32::asm::assemble(
        "
        li   a0, 0
        li   a1, 0
    loop:
        addi t0, a1, 3
        slli t1, t0, 2
        xor  t2, t1, a1
        and  t3, t2, t0
        add  a0, a0, t3
        addi a1, a1, 1
        li   t4, 400
        blt  a1, t4, loop
        ebreak
    ",
    )
    .unwrap()
}

#[test]
fn stepped_session_is_equivalent_to_run() {
    let program = toy_program();
    let mut whole = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
    whole.run(&program).unwrap();

    let mut stepped = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
    let mut session = stepped.session(&program).unwrap();
    let mut steps = 0u64;
    while session.step().unwrap().is_running() {
        steps += 1;
    }
    assert!(steps > 400, "one step per scheduling decision, got {steps}");

    assert_eq!(whole.stats(), stepped.stats());
    assert_eq!(whole.cpu().cycles(), stepped.cpu().cycles());
    assert_eq!(whole.cpu().reg(rv32::Reg::A0), stepped.cpu().reg(rv32::Reg::A0));
    assert_eq!(whole.tracker().utilization(), stepped.tracker().utilization());
}

#[test]
fn run_for_advances_by_cycle_budget_and_resumes() {
    let program = toy_program();
    let mut reference = System::builder(Fabric::be()).build().unwrap();
    reference.run(&program).unwrap();
    let total = reference.cpu().cycles();

    let mut sys = System::builder(Fabric::be()).build().unwrap();
    let mut session = sys.session(&program).unwrap();
    let status = session.run_for(total / 4).unwrap();
    assert!(status.is_running());
    let mid = session.system().cpu().cycles();
    assert!(mid >= total / 4 && mid < total, "paused mid-run at {mid}/{total}");
    // run_for(0) is a no-op.
    assert_eq!(session.run_for(0).unwrap(), SessionStatus::Running);
    assert_eq!(session.system().cpu().cycles(), mid);

    // Let the handle go, inspect the system, resume where it left off.
    assert!(sys.stats().offloads > 0);
    let exit = sys.session_resume().finish().unwrap();
    assert!(matches!(exit, rv32::cpu::Exit::Break { .. }));
    assert_eq!(sys.cpu().cycles(), total);
    assert_eq!(sys.stats(), reference.stats());
}

#[test]
fn finished_session_stays_exited() {
    let program = toy_program();
    let mut sys = System::builder(Fabric::be()).build().unwrap();
    let mut session = sys.session(&program).unwrap();
    let exit = session.finish().unwrap();
    // Stepping a halted program is a no-op reporting the same exit — even
    // for a zero cycle budget (so status polling can never spin).
    assert_eq!(session.step().unwrap(), SessionStatus::Exited(exit));
    assert_eq!(session.run_for(1_000).unwrap(), SessionStatus::Exited(exit));
    assert_eq!(session.run_for(0).unwrap(), SessionStatus::Exited(exit));
}

#[test]
fn new_session_flushes_stale_translations() {
    // A different program at overlapping addresses must never hit the
    // previous program's PC-indexed configurations: session() flushes the
    // DBT state like a context switch (DESIGN.md §10).
    let second = rv32::asm::assemble(
        "
        li   a0, 0
        li   a1, 0
    loop:
        addi t0, a1, 7
        or   t1, t0, a1
        sub  t2, t1, t0
        add  a0, a0, t2
        addi a1, a1, 1
        li   t4, 300
        blt  a1, t4, loop
        ebreak
    ",
    )
    .unwrap();
    let mut fresh = System::builder(Fabric::be()).build().unwrap();
    fresh.run(&second).unwrap();
    let expected = fresh.cpu().reg(rv32::Reg::A0);

    let mut sys = System::builder(Fabric::be()).build().unwrap();
    sys.run(&toy_program()).unwrap();
    sys.run(&second).unwrap();
    assert_eq!(sys.cpu().reg(rv32::Reg::A0), expected, "stale configuration executed");
    // Wear state kept accumulating across the switch.
    assert_eq!(sys.tracker().executions(), sys.stats().offloads);
    assert!(sys.stats().offloads > fresh.stats().offloads);
}

#[test]
fn epoch_trace_ends_on_the_final_tracker_state() {
    let program = toy_program();
    let mut sys = System::builder(Fabric::be())
        .policy(PolicySpec::rotation())
        .probe(ProbeSpec::util_trace(500))
        .build()
        .unwrap();
    sys.run(&program).unwrap();
    let reports = sys.probe_reports();
    let [ProbeReport::UtilTrace(trace)] = reports.as_slice() else {
        panic!("util-trace probe must report");
    };
    assert!(trace.samples.len() > 2, "several epochs sampled");
    assert!(trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle), "cycles strictly increase");
    let last = trace.samples.last().unwrap();
    assert_eq!(last.cycle, sys.cpu().cycles(), "final sample taken at the exit");
    assert_eq!(last.executions, sys.tracker().executions());
    assert_eq!(last.exec_counts, sys.tracker().exec_counts());
    assert_eq!((trace.rows, trace.cols), (2, 16));
    // Rotation flattens: cumulative worst utilization decays over the run.
    let worst = trace.worst_series();
    assert!(worst.first().unwrap().1 > worst.last().unwrap().1);
}

#[test]
fn event_counts_agree_with_stats() {
    // The registry counters and `SystemStats` come out of the same fold;
    // the cache emits its own `dbt.cache.*` metrics at its own sites, so
    // it checks both independently.
    let program = toy_program();
    let (sys, reg) = obs::collect(|| {
        let mut sys = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
        sys.run(&program).unwrap();
        sys
    });
    let stats = sys.stats();
    assert_eq!(reg.counter("system.gpp_retired"), stats.gpp_retired);
    assert_eq!(reg.counter("system.offloads"), stats.offloads);
    assert_eq!(reg.counter("system.offloads_completed"), stats.offloads);
    assert_eq!(reg.counter("system.offloads_skipped"), stats.offloads_skipped);
    assert_eq!(reg.counter("system.offloads_starved"), stats.offloads_starved);
    assert_eq!(reg.counter("system.cache_inserted"), reg.counter("dbt.cache.insert"));
    assert_eq!(reg.counter("system.cache_evicted"), reg.counter("dbt.cache.evict"));
    // The derived lookup identity (DESIGN.md §10).
    assert_eq!(stats.cache_lookups, stats.offloads + stats.gpp_retired);
    let cache_checks = reg.counter("dbt.cache.hit") + reg.counter("dbt.cache.miss");
    assert_eq!(stats.cache_lookups, cache_checks);
    // Rotation at per-exec granularity actually rotates the resident
    // configuration.
    assert!(reg.counter("system.rotations") > 0);
    assert!(reg.counter("system.config_loads") > 0);
}

#[test]
fn probes_accumulate_across_sessions() {
    // Telemetry follows the system, not the session: two programs on one
    // system produce one continuous stream.
    let program = toy_program();
    let util_trace = |sys: &System| match sys.probe_reports().as_slice() {
        [ProbeReport::UtilTrace(trace)] => trace.clone(),
        other => panic!("util-trace probe must report, got {other:?}"),
    };
    let mut sys = System::builder(Fabric::be()).probe(ProbeSpec::util_trace(500)).build().unwrap();
    sys.run(&program).unwrap();
    let first = util_trace(&sys);
    sys.run(&program).unwrap();
    let both = util_trace(&sys);
    assert_eq!(both.samples[..first.samples.len()], first.samples[..], "history is kept");
    assert!(both.samples.len() > first.samples.len(), "second session extends the stream");
    let last = both.samples.last().unwrap();
    assert_eq!(last.cycle, sys.cpu().cycles());
    assert_eq!(last.executions, sys.stats().offloads);
    assert_eq!(last.exec_counts, sys.tracker().exec_counts());
}

#[test]
fn zero_epoch_probe_is_a_typed_build_error() {
    // `ProbeSpec` is `Deserialize`, so JSON can carry the zero epoch the
    // string grammar rejects; both probe entry points must type it.
    for (json, canonical) in [
        (r#"{"UtilTrace":{"every":0}}"#, "util-trace@every-0"),
        (r#"{"QueueDepth":{"every":0}}"#, "queue-depth@every-0"),
    ] {
        let spec: ProbeSpec = serde_json::from_str(json).unwrap();
        let expected = BuildError::InvalidProbe { probe: canonical.to_string() };
        let err = System::builder(Fabric::be()).probe(spec).build().unwrap_err();
        assert_eq!(err, expected);

        let plan = ServePlan::new(0xDAC2020, Fabric::be()).suite(SuiteSpec::subset("crc", vec![1]));
        let traffic = TrafficSpec::Steady { per_hour: 40 };
        let err =
            probe_service_day(&plan, &PolicySpec::Baseline, &traffic, 0, 0, &[spec]).unwrap_err();
        assert_eq!(err, SystemError::Build(expected));
    }
}
