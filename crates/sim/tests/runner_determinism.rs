//! The runner's core guarantee: parallel execution is bit-identical to
//! the serial reference path, whatever the schedule.

use tcor_runner::{ArtifactStore, Telemetry};
use tcor_sim::orchestrate::ExecMode;
use tcor_sim::run_experiments_strict;

/// Renders a reduced experiment set (every graph tier: pure tables,
/// calibrated scenes, dependent experiments) to one string.
fn rendered(mode: ExecMode) -> String {
    let ids: Vec<String> = ["table1", "fig10", "scaling"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let results = run_experiments_strict(&ids, mode, &store, &telemetry).expect("valid ids");
    // Experiments come back in input order regardless of completion
    // order.
    assert_eq!(
        results
            .iter()
            .map(|(id, _)| id.as_str())
            .collect::<Vec<_>>(),
        ["table1", "fig10", "scaling"]
    );
    results
        .iter()
        .flat_map(|(_, tables)| tables)
        .map(|t| t.render() + &t.to_csv())
        .collect()
}

#[test]
fn parallel_output_is_bit_identical_to_serial() {
    let serial = rendered(ExecMode::Serial);
    for workers in [2, 4] {
        assert_eq!(
            serial,
            rendered(ExecMode::Parallel(workers)),
            "divergence with {workers} workers"
        );
    }
}

/// The plan counters of every job of one run, sorted by job label.
fn plan_counters(mode: ExecMode) -> Vec<(String, Vec<(String, u64)>)> {
    let ids: Vec<String> = ["scaling", "traversal"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    run_experiments_strict(&ids, mode, &store, &telemetry).expect("valid ids");
    let mut jobs: Vec<_> = telemetry
        .records()
        .into_iter()
        .map(|r| {
            let plan: Vec<_> = r
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("plan_"))
                .collect();
            (r.label, plan)
        })
        .filter(|(_, plan)| !plan.is_empty())
        .collect();
    jobs.sort();
    jobs
}

/// Plan work is counted where it happens and never depends on the
/// schedule: each `plan:` job builds its workload's plan, the scaling
/// study replays Snp's, and the traversal study replays the Z-order
/// plans and builds the other three orders of each workload itself.
#[test]
fn plan_work_lands_on_the_same_jobs_in_every_mode() {
    let counts = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    };
    let want = vec![
        ("exp:scaling".to_string(), counts(&[("plan_replays", 8)])),
        (
            "exp:traversal".to_string(),
            counts(&[("plan_builds", 6), ("plan_replays", 8)]),
        ),
        ("plan:CCS".to_string(), counts(&[("plan_builds", 1)])),
        ("plan:Snp".to_string(), counts(&[("plan_builds", 1)])),
        ("plan:TRu".to_string(), counts(&[("plan_builds", 1)])),
    ];
    assert_eq!(plan_counters(ExecMode::Serial), want);
    assert_eq!(plan_counters(ExecMode::Parallel(2)), want);
}
