//! Kill-and-resume regression tests for the fleet campaign
//! (DESIGN.md §12): a campaign checkpointed and stopped at **any** shard
//! boundary, then reloaded — with any worker count — must produce the
//! byte-identical report (and therefore byte-identical
//! `results/survival.json`) a straight run produces, and a checkpoint that
//! is damaged, foreign, or written under a different plan must fail with a
//! typed error instead of resuming.

use std::path::PathBuf;
use std::sync::OnceLock;

use cgra::Fabric;
use proptest::prelude::*;
use transrec::fleet::{
    run_fleet, run_fleet_campaign, CampaignOptions, CampaignStatus, FleetPlan, FleetReport,
};
use transrec::sweep::SuiteSpec;
use transrec::traffic::{run_serving_campaign, ServePlan};
use transrec::{CheckpointErrorKind, SystemError};
use uaware::PolicySpec;

/// The shared small-but-real campaign: 10 devices over 2 workload lanes,
/// 2-device shards (5 shards), two policies.
fn plan() -> FleetPlan {
    FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .devices(10)
        .lanes(2)
        .shard_devices(2)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .mission_years(1.0)
        .horizon_years(12.0)
}

/// A fresh per-test checkpoint path (removed up front so reruns of a
/// failed test never resume stale state).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("uaware-fleet-resume-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn report_bytes(status: CampaignStatus<FleetReport>) -> String {
    match status {
        CampaignStatus::Complete(report) => serde_json::to_string(&*report).unwrap(),
        CampaignStatus::Paused { completed_shards, total_shards } => {
            panic!("campaign unexpectedly paused at {completed_shards}/{total_shards}")
        }
    }
}

#[test]
fn resume_from_every_stop_point_is_byte_identical() {
    let plan = plan();
    let reference = serde_json::to_string(&run_fleet(&plan, 1).expect("straight run")).unwrap();
    let total_shards = plan.devices.div_ceil(plan.shard_devices);
    assert_eq!(total_shards, 5);
    // Kill at every shard boundary — including 0 (only phase 1 done) and
    // total (all work done before the "kill") — and resume with a worker
    // count different from the one that wrote the checkpoint.
    for stop in 0..=total_shards {
        let checkpoint = scratch(&format!("stop-{stop}"));
        let (stop_jobs, resume_jobs) = ([1, 4, 0][stop % 3], [4, 0, 1][stop % 3]);
        let options = CampaignOptions {
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every_shards: 1,
            stop_after_shards: Some(stop),
            ..CampaignOptions::default()
        };
        match run_fleet_campaign(&plan, stop_jobs, &options).expect("partial run") {
            CampaignStatus::Paused { completed_shards, total_shards: reported } => {
                assert!(stop < total_shards, "a full run must not pause");
                assert_eq!((completed_shards, reported), (stop, total_shards));
            }
            CampaignStatus::Complete(_) => {
                assert_eq!(stop, total_shards, "an early stop must pause")
            }
        }
        let resumed = run_fleet_campaign(
            &plan,
            resume_jobs,
            &CampaignOptions { checkpoint: Some(checkpoint.clone()), ..CampaignOptions::default() },
        )
        .expect("resumed run");
        assert_eq!(
            report_bytes(resumed),
            reference,
            "resume after stopping at shard {stop} diverged"
        );
        let _ = std::fs::remove_file(&checkpoint);
    }
}

#[test]
fn repeated_kills_across_wave_widths_are_byte_identical() {
    let plan = plan();
    let reference = serde_json::to_string(&run_fleet(&plan, 4).expect("straight run")).unwrap();
    // Two kills (after 1 and 3 shards) with a 2-shard checkpoint wave,
    // then run to completion: three processes, one report.
    let checkpoint = scratch("repeated-kills");
    for (stop, jobs) in [(Some(1), 1), (Some(3), 0)] {
        let options = CampaignOptions {
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every_shards: 2,
            stop_after_shards: stop,
            ..CampaignOptions::default()
        };
        let status = run_fleet_campaign(&plan, jobs, &options).expect("partial run");
        assert!(matches!(status, CampaignStatus::Paused { .. }));
    }
    let finished = run_fleet_campaign(
        &plan,
        4,
        &CampaignOptions {
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every_shards: 2,
            stop_after_shards: None,
            ..CampaignOptions::default()
        },
    )
    .expect("final run");
    assert_eq!(report_bytes(finished), reference);
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn shard_split_and_worker_matrix_is_byte_identical() {
    // The no-checkpoint half of the determinism contract: every
    // (shard size × worker count) cell serializes to the same bytes.
    // The report must not leak the split (no shard field), only the lanes.
    let reference =
        serde_json::to_string(&run_fleet(&plan().shard_devices(10), 1).expect("one shard"))
            .unwrap();
    for shard in [1, 2, 5] {
        for jobs in [1, 4, 0] {
            let report = run_fleet(&plan().shard_devices(shard), jobs).expect("split run");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                reference,
                "shard_devices={shard} jobs={jobs} diverged"
            );
        }
    }
}

#[test]
fn checkpoints_refuse_to_resume_a_different_plan() {
    let checkpoint = scratch("wrong-plan");
    let options = CampaignOptions {
        checkpoint: Some(checkpoint.clone()),
        checkpoint_every_shards: 1,
        stop_after_shards: Some(1),
        ..CampaignOptions::default()
    };
    let paused = run_fleet_campaign(&plan(), 1, &options).expect("partial run");
    assert!(matches!(paused, CampaignStatus::Paused { .. }));
    // Same path, different fleet: the fingerprint must reject it.
    let other = plan().devices(12);
    let result = run_fleet_campaign(&other, 1, &options);
    let _ = std::fs::remove_file(&checkpoint);
    assert!(
        matches!(
            &result,
            Err(SystemError::Checkpoint { kind: CheckpointErrorKind::PlanMismatch, .. })
        ),
        "expected a plan mismatch, got {result:?}"
    );
}

/// A real checkpoint of [`plan`] paused after 2 of its 5 shards, plus the
/// straight run's report bytes — built once, shared by every hostile case.
fn paused_checkpoint() -> &'static (Vec<u8>, String) {
    static FIXTURE: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = scratch("hostile-source");
        let options = CampaignOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every_shards: 1,
            stop_after_shards: Some(2),
            ..CampaignOptions::default()
        };
        let paused = run_fleet_campaign(&plan(), 1, &options).expect("partial run");
        assert!(matches!(paused, CampaignStatus::Paused { .. }));
        let bytes = std::fs::read(&path).expect("checkpoint written");
        let _ = std::fs::remove_file(&path);
        let straight = run_fleet(&plan(), 1).expect("straight run");
        (bytes, serde_json::to_string(&straight).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A damaged checkpoint — truncated at any offset, or with one bit of
    /// any byte flipped — either fails with a typed checkpoint error or
    /// resumes into the straight run's exact report: never a panic, never
    /// a different report.
    #[test]
    fn damaged_checkpoints_fail_typed_or_resume_exactly(
        truncate in any::<bool>(),
        offset in any::<u64>(),
        bit in 0u32..8,
    ) {
        let (pristine, reference) = paused_checkpoint();
        let mut bytes = pristine.clone();
        let at = (offset % bytes.len() as u64) as usize;
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << bit;
        }
        let path = scratch("hostile");
        std::fs::write(&path, &bytes).expect("write damaged checkpoint");
        let options =
            CampaignOptions { checkpoint: Some(path.clone()), ..CampaignOptions::default() };
        let result = run_fleet_campaign(&plan(), 1, &options);
        let _ = std::fs::remove_file(&path);
        match result {
            Err(SystemError::Checkpoint { .. }) => {}
            Ok(status) => prop_assert_eq!(&report_bytes(status), reference),
            Err(e) => prop_assert!(false, "untyped failure: {e}"),
        }
    }
}

#[test]
fn serving_campaigns_reject_a_fleet_checkpoint_as_foreign() {
    let (fleet_checkpoint, _) = paused_checkpoint();
    let path = scratch("foreign");
    std::fs::write(&path, fleet_checkpoint).expect("write fleet checkpoint");
    let serving = ServePlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(2)
        .lanes(1)
        .clock_hz(1_000)
        .horizon_days(1);
    let options = CampaignOptions { checkpoint: Some(path.clone()), ..CampaignOptions::default() };
    let result = run_serving_campaign(&serving, 1, &options);
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(
            &result,
            Err(SystemError::Checkpoint { kind: CheckpointErrorKind::Foreign { .. }, .. })
        ),
        "expected a foreign-checkpoint error, got {result:?}"
    );
}
