//! The simulator-backed [`Backend`] for `tcor-serve`.
//!
//! `tcor-serve` owns the request plane (sockets, queueing, coalescing,
//! caching); this module owns the meaning of a request. Every
//! [`ApiCall`] is validated *before* it reaches the simulator — the
//! cell and policy entry points panic on unknown names, so the backend
//! converts bad identity into typed config errors (served as 404).
//! All computation is memoized in the shared [`ArtifactStore`], so
//! repeated cold requests for overlapping artifacts (the same workload
//! under two configs, say) share scenes and cells exactly like the CLI
//! runs do — and the store coalesces them on the same flight
//! (`tcor_common::flight`) as the request-level singleflight, so two
//! different requests that need one artifact build it once. Rendered
//! bodies are not kept here:
//! the daemon's result cache is their one store, keyed by the call's
//! canonical hash plus [`sim_version`].

use crate::misscurves::workload_curve;
use crate::orchestrate::cell_report;
use crate::plans::PlanWork;
use crate::report_json::{frame_report_json, misscurve_json};
use crate::suite::CELL_CONFIGS;
use tcor_common::{fxhash64, TcorError, TcorResult};
use tcor_runner::ArtifactStore;
use tcor_serve::{ApiBody, ApiCall, Backend};
use tcor_workloads::BenchmarkProfile;

/// The version hash folded into every persisted cache key: the crate
/// version plus a schema tag. Bump the tag whenever rendered output
/// changes without a version bump — persisted entries from older
/// schemas are then evicted on sight instead of served.
pub fn sim_version() -> u64 {
    const SCHEMA_TAG: &str = "tcor-results-v1";
    fxhash64(format!("{}|{}", env!("CARGO_PKG_VERSION"), SCHEMA_TAG).as_bytes())
}

/// [`Backend`] implementation over the real simulator.
#[derive(Default)]
pub struct SimBackend {
    store: ArtifactStore,
    plans: PlanWork,
}

impl SimBackend {
    /// A backend with a fresh artifact store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The frame plans this backend built and the frames it replayed on
    /// them. A workload's six cells share one plan, so the store holds
    /// at most one plan per plan key that a cell or a table reaches.
    pub fn plan_work(&self) -> &PlanWork {
        &self.plans
    }

    fn profile(&self, workload: &str) -> TcorResult<BenchmarkProfile> {
        tcor_workloads::suite()
            .into_iter()
            .find(|b| b.alias == workload)
            .ok_or_else(|| {
                let known: Vec<&str> = tcor_workloads::suite().iter().map(|b| b.alias).collect();
                TcorError::config(format!(
                    "unknown workload `{workload}` (expected one of {})",
                    known.join(", ")
                ))
            })
    }

    fn cell(&self, workload: &str, config: &str) -> TcorResult<ApiBody> {
        let profile = self.profile(workload)?;
        if !CELL_CONFIGS.contains(&config) {
            return Err(TcorError::config(format!(
                "unknown cell config `{config}` (expected one of {})",
                CELL_CONFIGS.join(", ")
            )));
        }
        let report = cell_report(&self.store, &profile, config, &self.plans)?;
        Ok(ApiBody {
            content_type: "application/json".to_string(),
            body: frame_report_json(workload, config, &report).render() + "\n",
        })
    }

    fn misscurve(&self, workload: &str, policy: &str) -> TcorResult<ApiBody> {
        let (sizes, curve) = workload_curve(&self.store, workload, policy)?;
        Ok(ApiBody {
            content_type: "application/json".to_string(),
            body: misscurve_json(workload, policy, &sizes, &curve).render() + "\n",
        })
    }

    fn table(&self, experiment: &str) -> TcorResult<ApiBody> {
        let tables = crate::try_run_experiment(&self.store, experiment, &self.plans)?;
        Ok(ApiBody {
            content_type: "text/csv; charset=utf-8".to_string(),
            body: tables.iter().map(crate::Table::to_csv).collect(),
        })
    }
}

impl Backend for SimBackend {
    fn call(&self, call: &ApiCall) -> TcorResult<ApiBody> {
        match call {
            ApiCall::Cell { workload, config } => self.cell(workload, config),
            ApiCall::MissCurve { workload, policy } => self.misscurve(workload, policy),
            ApiCall::Table { experiment } => self.table(experiment),
        }
    }

    fn version(&self) -> u64 {
        sim_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_identity_is_a_config_error() {
        let b = SimBackend::new();
        let call = ApiCall::Cell {
            workload: "nope".into(),
            config: "base64".into(),
        };
        let err = b.call(&call).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Config);
        let call = ApiCall::Cell {
            workload: "GTr".into(),
            config: "nope".into(),
        };
        let err = b.call(&call).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Config);
        let call = ApiCall::MissCurve {
            workload: "GTr".into(),
            policy: "clock".into(),
        };
        let err = b.call(&call).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Config);
    }

    #[test]
    fn table_call_matches_the_experiment_csv_byte_for_byte() {
        let b = SimBackend::new();
        let via_table = b
            .call(&ApiCall::Table {
                experiment: "fig10".into(),
            })
            .unwrap();
        assert_eq!(via_table.content_type, "text/csv; charset=utf-8");
        let direct: String =
            crate::try_run_experiment(&ArtifactStore::new(), "fig10", &PlanWork::default())
                .unwrap()
                .iter()
                .map(crate::Table::to_csv)
                .collect();
        assert_eq!(via_table.body, direct);
    }
}
