//! The simulator-backed [`Backend`] for `tcor-serve`.
//!
//! `tcor-serve` owns the request plane (sockets, queueing, coalescing,
//! caching); this module owns the meaning of a request. Every
//! [`ApiCall`] is validated *before* it reaches the simulator — the
//! cell and policy entry points panic on unknown names, so the backend
//! converts bad identity into typed config errors (served as 404) and
//! malformed run parameters into serve errors (served as 400). All
//! computation is memoized in the shared [`ArtifactStore`], so repeated
//! cold requests for overlapping artifacts (the same workload under
//! two configs, say) share scenes and cells exactly like the CLI runs
//! do — and the store's own get-or-compute coalescing backs up the
//! request-level singleflight. With a result cache attached
//! ([`SimBackend::with_cache`]) the rendered body of every successful
//! call is additionally persisted through
//! [`ArtifactStore::get_or_try_compute_persisted`], keyed by the call's
//! canonical hash plus [`sim_version`], so results survive the process
//! and are shared with the daemon's own response cache (same keys →
//! the disk tier dedups the double put).

use crate::misscurves::{workload_curve, SERVE_POLICIES};
use crate::orchestrate::cell_report;
use crate::plans::PlanWork;
use crate::report_json::{frame_report_json, misscurve_json};
use crate::suite::CELL_CONFIGS;
use std::sync::Arc;
use tcor_common::{fxhash64, TcorError, TcorResult};
use tcor_pcache::ResultCache;
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
    cache: Option<Arc<dyn ResultCache>>,
    plans: PlanWork,
}

impl SimBackend {
    /// A backend with a fresh artifact store and no persistence.
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend that persists every rendered result through `cache` —
    /// pass the same cache the daemon serves from and the two planes
    /// share one set of entries.
    pub fn with_cache(cache: Arc<dyn ResultCache>) -> Self {
        SimBackend {
            cache: Some(cache),
            ..Self::default()
        }
    }

    /// The artifact store backing this backend (for observability).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
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

    /// `POST /v1/run` dispatch: `experiment=ID`, `workload=A&config=C`,
    /// or `workload=A&policy=P` — the same computations as the GET
    /// endpoints, so equal work coalesces across both spellings.
    fn run(&self, params: &[(String, String)]) -> TcorResult<ApiBody> {
        let get = |key: &str| {
            params
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        for (k, _) in params {
            if !matches!(k.as_str(), "experiment" | "workload" | "config" | "policy") {
                return Err(TcorError::serve(format!(
                    "unknown run parameter `{k}` (expected experiment, workload, config, policy)"
                )));
            }
        }
        match (
            get("experiment"),
            get("workload"),
            get("config"),
            get("policy"),
        ) {
            (Some(id), None, None, None) => self.table(id),
            (None, Some(w), Some(c), None) => self.cell(w, c),
            (None, Some(w), None, Some(p)) => self.misscurve(w, p),
            _ => Err(TcorError::serve(format!(
                "a run needs `experiment=ID`, `workload=A&config=C` (configs: {}) or \
                 `workload=A&policy=P` (policies: {})",
                CELL_CONFIGS.join(", "),
                SERVE_POLICIES.join(", ")
            ))),
        }
    }
}

impl SimBackend {
    fn compute(&self, call: &ApiCall) -> TcorResult<ApiBody> {
        match call {
            ApiCall::Cell { workload, config } => self.cell(workload, config),
            ApiCall::MissCurve { workload, policy } => self.misscurve(workload, policy),
            ApiCall::Table { experiment } => self.table(experiment),
            ApiCall::Run { params } => self.run(params),
        }
    }
}

impl Backend for SimBackend {
    fn call(&self, call: &ApiCall) -> TcorResult<ApiBody> {
        let Some(cache) = &self.cache else {
            return self.compute(call);
        };
        let body: Arc<ApiBody> = self.store.get_or_try_compute_persisted(
            call.cache_key(),
            cache.as_ref(),
            self.version(),
            ApiBody::to_cached,
            |cached| Some(ApiBody::from_cached(cached)),
            || self.compute(call),
        )?;
        Ok((*body).clone())
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
    fn malformed_run_parameters_are_serve_errors() {
        let b = SimBackend::new();
        let run = |pairs: &[(&str, &str)]| {
            b.call(&ApiCall::Run {
                params: pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            })
        };
        let err = run(&[("workload", "GTr")]).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Serve);
        let err = run(&[("frobnicate", "1")]).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Serve);
        let err = run(&[("experiment", "fig10"), ("workload", "GTr")]).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Serve);
    }

    #[test]
    fn run_experiment_matches_the_table_endpoint_byte_for_byte() {
        let b = SimBackend::new();
        let via_table = b
            .call(&ApiCall::Table {
                experiment: "fig10".into(),
            })
            .unwrap();
        let via_run = b
            .call(&ApiCall::Run {
                params: vec![("experiment".into(), "fig10".into())],
            })
            .unwrap();
        assert_eq!(via_table.body, via_run.body);
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
