//! Fault-path integration tests: the three recovery scenarios the
//! failure model promises (see DESIGN.md, "Failure model & recovery").
//!
//! 1. A single injected panic fails exactly one job; its dependents
//!    are skipped, every independent experiment completes.
//! 2. A resumed run re-executes only the failed experiments, and the
//!    recomputed tables match the golden baseline bit-for-bit.
//! 3. An injected I/O error during a golden update leaves the
//!    previous baseline fully readable.

use std::path::PathBuf;
use std::sync::Arc;
use tcor_common::{fxhash64, hash_hex, FaultInjector};
use tcor_runner::{ArtifactStore, GoldenStatus, GoldenStore, RunManifest, Telemetry};
use tcor_sim::{run_experiments, ExperimentOutcome, RunOptions};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcor-fault-paths-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ids(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn csv_hash(csv: &str) -> String {
    hash_hex(fxhash64(csv.as_bytes()))
}

/// Run options whose injector fires exactly the clauses of `spec`.
fn injecting(spec: &str) -> RunOptions {
    RunOptions {
        faults: Some(Arc::new(FaultInjector::parse(0, spec).unwrap())),
        ..RunOptions::default()
    }
}

/// Scenario 1: panic the scene-calibration job of the one workload the
/// scaling study reads. Its plan and the study are skipped (not
/// panicked, not half-run) with the scene as their root, the
/// scene-independent experiment completes, the run calibrates no other
/// scene, and the failure shows up in both the run outcome and the
/// telemetry log.
#[test]
fn one_injected_panic_fails_one_job_and_skips_only_its_dependents() {
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let opts = injecting("runner/job_panic/scene:Snp=100");
    let out = run_experiments(&ids(&["scaling", "table1"]), &opts, &store, &telemetry).unwrap();

    assert!(!out.all_ok());
    match &out.experiments[0].1 {
        ExperimentOutcome::Skipped { dep_label } => {
            assert_eq!(dep_label, "scene:Snp");
        }
        other => panic!("scaling should be skipped behind the failed scene, got {other:?}"),
    }
    assert!(
        matches!(&out.experiments[1].1, ExperimentOutcome::Tables(t) if !t.is_empty()),
        "table1 is independent of the scenes and must complete"
    );

    let failures = telemetry.failures();
    assert_eq!(failures.len(), 1, "exactly one job panicked: {failures:?}");
    assert_eq!(failures[0].1, "scene:Snp");
    assert!(failures[0].2.contains("injected fault"));
    let skips: Vec<(String, String)> = telemetry
        .skips()
        .into_iter()
        .map(|(_, label, root)| (label, root))
        .collect();
    assert_eq!(
        skips,
        [("plan:Snp", "scene:Snp"), ("exp:scaling", "scene:Snp")]
            .map(|(l, r)| (l.to_string(), r.to_string()))
    );
    let labels = failures
        .iter()
        .map(|f| f.1.clone())
        .chain(telemetry.records().into_iter().map(|r| r.label))
        .chain(skips.into_iter().map(|s| s.0));
    let scenes: Vec<String> = labels.filter(|l| l.starts_with("scene:")).collect();
    assert_eq!(scenes, ["scene:Snp"], "the run makes one scene job");
    let summary = out.failure_summary.expect("failures must be summarized");
    assert!(summary.contains("scene:Snp"));
}

/// Scenario 2: a faulted run records `failed` in the run manifest;
/// the resumed run re-executes only that experiment and its tables
/// hash-match the golden baseline recorded by a clean run.
#[test]
fn resume_recomputes_only_failed_experiments_and_matches_golden() {
    let golden_dir = temp_dir("resume-golden");
    let manifest_path = golden_dir.join("run-manifest.txt");
    let golden = GoldenStore::new(&golden_dir);
    let all = ids(&["table1", "fig10"]);

    // Clean reference run records the golden baseline.
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let clean = run_experiments(&all, &RunOptions::default(), &store, &telemetry).unwrap();
    assert!(clean.all_ok());
    for (_, outcome) in clean.experiments {
        for t in outcome.tables().unwrap() {
            golden.update(&t.id, &t.to_csv()).unwrap();
        }
    }

    // Faulted run: table1 panics, fig10 completes. Record the manifest
    // exactly as the binary does.
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let opts = injecting("runner/job_panic/exp:table1=100");
    let out = run_experiments(&all, &opts, &store, &telemetry).unwrap();
    let mut manifest = RunManifest::new(&manifest_path);
    for (id, outcome) in out.experiments {
        match outcome {
            ExperimentOutcome::Tables(tables) => manifest.record_ok(
                &id,
                tables
                    .iter()
                    .map(|t| (t.id.clone(), csv_hash(&t.to_csv())))
                    .collect(),
            ),
            ExperimentOutcome::Failed { .. } => {
                manifest.record_status(&id, tcor_runner::RunStatus::Failed)
            }
            ExperimentOutcome::Skipped { .. } => {
                manifest.record_status(&id, tcor_runner::RunStatus::Skipped)
            }
        }
    }
    manifest.save().unwrap();

    // Resume: partition on the reloaded manifest. Only table1 reruns.
    let mut manifest = RunManifest::load(&manifest_path).unwrap();
    let (rerun, reused): (Vec<String>, Vec<String>) =
        all.iter().cloned().partition(|id| manifest.needs_rerun(id));
    assert_eq!(rerun, ids(&["table1"]));
    assert_eq!(reused, ids(&["fig10"]));

    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let resumed = run_experiments(&rerun, &RunOptions::default(), &store, &telemetry).unwrap();
    assert!(resumed.all_ok(), "clean rerun must complete");
    assert_eq!(resumed.experiments.len(), 1, "only the failed id reruns");
    for (id, outcome) in resumed.experiments {
        let tables = outcome.tables().unwrap();
        manifest.record_ok(
            &id,
            tables
                .iter()
                .map(|t| (t.id.clone(), csv_hash(&t.to_csv())))
                .collect(),
        );
        for t in &tables {
            assert!(
                golden.check(&t.id, &t.to_csv()).is_match(),
                "recomputed `{}` must match the golden bit-for-bit",
                t.id
            );
        }
    }
    manifest.save().unwrap();

    // Every experiment — rerun or reused — now hash-matches the golden
    // manifest without recomputation, exactly what `--resume --check`
    // verifies in the binary.
    let manifest = RunManifest::load(&manifest_path).unwrap();
    for id in &all {
        assert!(!manifest.needs_rerun(id));
        let hashes = manifest.table_hashes(id);
        assert!(!hashes.is_empty());
        for (table_id, hash) in hashes {
            assert_eq!(
                golden.recorded_hash(table_id).as_ref(),
                Some(hash),
                "manifest hash for `{table_id}` must equal the golden hash"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&golden_dir);
}

/// Scenario 3: a golden update interrupted by an injected I/O error
/// never corrupts the baseline — the previous golden stays readable
/// and still passes `check`.
#[test]
fn injected_io_error_during_golden_update_leaves_baseline_readable() {
    let dir = temp_dir("golden-io");
    let old = "a,b\n1,2\n";
    let new = "a,b\n3,4\n";

    let clean = GoldenStore::new(&dir);
    clean.update("t1", old).unwrap();
    assert!(clean.check("t1", old).is_match());

    let faults = FaultInjector::parse(0, "runner/golden_write/golden:t1=100").unwrap();
    let faulty = GoldenStore::new(&dir).with_faults(Arc::new(faults));
    let err = faulty.update("t1", new).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");

    // The baseline is untouched: old content still matches, the file
    // still agrees with the manifest, and a clean store can update it.
    assert!(clean.check("t1", old).is_match());
    assert!(matches!(
        clean.check("t1", new),
        GoldenStatus::Mismatch { .. }
    ));
    clean.update("t1", new).unwrap();
    assert!(clean.check("t1", new).is_match());

    let _ = std::fs::remove_dir_all(&dir);
}
