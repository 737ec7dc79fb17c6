//! Reproduction guards for the paper's headline numbers (Table I and the
//! §V.A claims), with tolerance bands documented in EXPERIMENTS.md.

use cgra::Fabric;
use nbti::CalibratedAging;
use transrec::{run_suite_with_options, EnergyParams, SuiteOptions, SystemConfig};
use uaware::PolicySpec;

fn suite_utilization(fabric: Fabric, rotation: bool) -> uaware::UtilizationGrid {
    let workloads = mibench::suite(0xDAC2020);
    let spec = if rotation { PolicySpec::rotation() } else { PolicySpec::Baseline };
    let config = SystemConfig::new(fabric);
    let run = run_suite_with_options(
        &config,
        &workloads,
        &EnergyParams::default(),
        SuiteOptions::new(spec),
    )
    .unwrap();
    assert!(run.all_verified());
    run.tracker.utilization()
}

#[test]
fn be_scenario_matches_paper_bands() {
    // Paper: avg 39.7%, baseline worst 94.5%, proposed worst 41.1%,
    // improvement 2.29x.
    let base = suite_utilization(Fabric::be(), false);
    let prop = suite_utilization(Fabric::be(), true);
    assert!((0.30..=0.52).contains(&base.mean()), "avg utilization {}", base.mean());
    assert!(base.max() > 0.90, "baseline worst {}", base.max());
    assert!(
        (0.30..=0.52).contains(&prop.max()),
        "proposed worst {} should approach the mean",
        prop.max()
    );
    let improvement = CalibratedAging::default().lifetime_improvement(base.max(), prop.max());
    assert!((1.9..=3.4).contains(&improvement), "BE lifetime improvement {improvement}");
}

#[test]
fn larger_fabrics_improve_more() {
    // Paper Table I ordering: BE 2.29x < BP 4.37x < BU 7.97x.
    let aging = CalibratedAging::default();
    let mut improvements = Vec::new();
    for scenario in transrec::SCENARIOS {
        let base = suite_utilization(scenario.fabric(), false);
        let prop = suite_utilization(scenario.fabric(), true);
        improvements.push(aging.lifetime_improvement(base.max(), prop.max()));
    }
    assert!(
        improvements[0] < improvements[1] && improvements[1] < improvements[2],
        "improvements must grow with fabric size: {improvements:?}"
    );
    assert!(improvements[2] > 5.0, "BU improvement {}", improvements[2]);
}

#[test]
fn paper_section_va_be_lifetime_claim() {
    // "a performance degradation of 10% only in 7 years rather than in 3".
    let aging = CalibratedAging::default();
    let base = suite_utilization(Fabric::be(), false);
    let prop = suite_utilization(Fabric::be(), true);
    let base_life = aging.lifetime_years(base.max());
    let prop_life = aging.lifetime_years(prop.max());
    assert!((2.5..=3.5).contains(&base_life), "baseline lifetime {base_life}");
    assert!(prop_life > 6.0, "proposed lifetime {prop_life}");
}

#[test]
fn area_overhead_stays_below_ten_percent() {
    // Paper Table II: +4.45% cells / +4.15% area on BE; "<10%" is the claim.
    let model = cgra::AreaModel::default();
    for scenario in transrec::SCENARIOS {
        let base = model.report(&scenario.fabric(), false);
        let ext = model.report(&scenario.fabric(), true);
        let (cells, area) = ext.overhead_vs(&base);
        assert!(cells < 0.10 && cells > 0.0, "{}: cell overhead {cells}", scenario.name);
        assert!(area < 0.10 && area > 0.0, "{}: area overhead {area}", scenario.name);
    }
}

#[test]
fn column_latency_unchanged_by_extensions() {
    // Paper Table II discussion: 120 ps with and without the extensions.
    let model = cgra::AreaModel::default();
    let f = Fabric::be();
    assert_eq!(model.column_delay_ps(&f, false), model.column_delay_ps(&f, true));
}
