//! The analytic energy model and per-frame evaluation.

use tcor::FrameReport;

/// Model coefficients. All energies in picojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyParams {
    /// Fixed part of an SRAM access.
    pub sram_base_pj: f64,
    /// Capacity-dependent part: `coef * sqrt(KiB)` per access.
    pub sram_sqrt_pj: f64,
    /// One 64-byte DRAM access (row activity amortized).
    pub dram_access_pj: f64,
    /// SRAM leakage per KiB per core cycle.
    pub leak_pj_per_kib_cycle: f64,
    /// One executed shader instruction (full core: fetch, registers,
    /// ALU).
    pub shader_instr_pj: f64,
    /// Fixed-function work per shaded fragment (raster, z-test, blend).
    pub fragment_pj: f64,
    /// Geometry work per primitive (vertex shading, clipping, binning
    /// compute).
    pub primitive_pj: f64,
    /// L2 capacity in bytes (for its access energy and leakage).
    pub l2_bytes: u64,
    /// Core clock in Hz (converts cycles to time for FPS).
    pub clock_hz: u64,
}

impl EnergyParams {
    /// Coefficients for the paper's 32 nm, 1 V, 600 MHz node (Table I),
    /// calibrated so that (a) access energies order L1 < L2 ≪ DRAM with
    /// CACTI-like ratios and (b) the memory hierarchy is roughly 40% of
    /// total GPU energy on the benchmark suite, matching the ratio between
    /// the paper's 13.8% memory-hierarchy and 5.5% total-GPU savings.
    pub fn default_32nm() -> Self {
        EnergyParams {
            sram_base_pj: 10.0,
            sram_sqrt_pj: 3.5,
            dram_access_pj: 20_000.0,
            leak_pj_per_kib_cycle: 0.013,
            shader_instr_pj: 650.0,
            fragment_pj: 80.0,
            primitive_pj: 1500.0,
            l2_bytes: 1 << 20,
            clock_hz: 600_000_000,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::default_32nm()
    }
}

/// Energy totals for one frame, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// All L1 structures: dynamic access energy.
    pub l1_pj: f64,
    /// L2 dynamic access energy.
    pub l2_pj: f64,
    /// DRAM dynamic access energy.
    pub dram_pj: f64,
    /// SRAM leakage over the frame (L1s + L2).
    pub leakage_pj: f64,
    /// Compute energy (shader instructions + fixed-function + geometry).
    pub compute_pj: f64,
    /// Frame length in cycles (for FPS).
    pub frame_cycles: f64,
}

impl EnergyBreakdown {
    /// The paper's "memory hierarchy energy" (Figures 20–21): all cache
    /// and DRAM activity plus SRAM leakage.
    pub fn memory_hierarchy_pj(&self) -> f64 {
        self.l1_pj + self.l2_pj + self.dram_pj + self.leakage_pj
    }

    /// Total GPU energy (Figure 22).
    pub fn total_pj(&self) -> f64 {
        self.memory_hierarchy_pj() + self.compute_pj
    }

    /// Frames per second at the model's clock.
    pub fn fps(&self, clock_hz: u64) -> f64 {
        if self.frame_cycles <= 0.0 {
            0.0
        } else {
            clock_hz as f64 / self.frame_cycles
        }
    }
}

/// The energy model.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model with the given coefficients.
    pub fn new(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// The coefficients.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Per-access energy of an SRAM of `bytes` capacity.
    pub fn sram_access_pj(&self, bytes: u64) -> f64 {
        self.params.sram_base_pj + self.params.sram_sqrt_pj * ((bytes as f64) / 1024.0).sqrt()
    }

    /// Leakage of an SRAM of `bytes` capacity over `cycles`.
    pub fn sram_leak_pj(&self, bytes: u64, cycles: f64) -> f64 {
        self.params.leak_pj_per_kib_cycle * (bytes as f64 / 1024.0) * cycles
    }

    /// Frame length in cycles: the Polygon List Builder runs first (it
    /// produces the Parameter Buffer the fetcher consumes), then the Tile
    /// Fetcher and Raster Pipeline overlap tile by tile — each tile's
    /// rasterization waits for its primitives, so the overlapped phase
    /// costs Σ max(fetch, raster) per tile (the report's
    /// `coupled_cycles`). Falls back to the coarse max when a report
    /// carries no coupling data.
    pub fn frame_cycles(&self, report: &FrameReport) -> f64 {
        let overlapped = if report.coupled_cycles > 0.0 {
            report.coupled_cycles
        } else {
            (report.fetch_cycles as f64).max(report.raster_cycles)
        };
        report.plb_cycles as f64 + overlapped
    }

    /// Evaluates one frame report.
    pub fn evaluate(&self, report: &FrameReport) -> EnergyBreakdown {
        let frame_cycles = self.frame_cycles(report);

        let mut l1_pj = 0.0;
        let mut leakage_pj = 0.0;
        for s in &report.structures {
            let per_access = self.sram_access_pj(s.size_bytes);
            // Write-backs and bypasses are extra array reads/writes.
            let activity = s.stats.accesses() + s.stats.writebacks + s.stats.bypasses;
            l1_pj += per_access * activity as f64;
            leakage_pj += self.sram_leak_pj(s.size_bytes, frame_cycles) * s.instances as f64;
        }

        let l2_accesses = report.total_l2_accesses() + report.l2_stats.writebacks;
        let l2_pj = self.sram_access_pj(self.params.l2_bytes) * l2_accesses as f64;
        leakage_pj += self.sram_leak_pj(self.params.l2_bytes, frame_cycles);

        let dram_pj = self.params.dram_access_pj * report.total_mm_accesses() as f64;

        let compute_pj = self.params.shader_instr_pj * report.shader_instructions
            + self.params.fragment_pj * report.fragments
            + self.params.primitive_pj * report.num_primitives as f64;

        EnergyBreakdown {
            l1_pj,
            l2_pj,
            dram_pj,
            leakage_pj,
            compute_pj,
            frame_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor::{System, SystemConfig};
    use tcor_common::Tri2;
    use tcor_gpu::{Scene, ScenePrimitive};

    fn scene(n: u32) -> Scene {
        (0..n)
            .map(|i| {
                let x = (i as f32 * 97.0) % 1800.0;
                let y = (i as f32 * 53.0) % 700.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + 60.0, y), (x, y + 60.0)),
                    attr_count: 1 + (i % 5) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn access_energy_grows_with_capacity() {
        let m = EnergyModel::default();
        let e16 = m.sram_access_pj(16 << 10);
        let e64 = m.sram_access_pj(64 << 10);
        let e1m = m.sram_access_pj(1 << 20);
        assert!(e16 < e64 && e64 < e1m);
        assert!(m.params().dram_access_pj > 50.0 * e1m);
    }

    #[test]
    fn breakdown_components_are_positive_on_a_real_frame() {
        let r = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene(500));
        let e = EnergyModel::default().evaluate(&r);
        assert!(e.l1_pj > 0.0);
        assert!(e.l2_pj > 0.0);
        assert!(e.dram_pj > 0.0);
        assert!(e.leakage_pj > 0.0);
        assert!(e.compute_pj > 0.0);
        assert!(e.total_pj() > e.memory_hierarchy_pj());
        assert!(e.fps(600_000_000) > 0.0);
    }

    #[test]
    fn tcor_consumes_less_memory_hierarchy_energy_under_pressure() {
        let s = scene(3000);
        let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&s);
        let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&s);
        let m = EnergyModel::default();
        let eb = m.evaluate(&base);
        let et = m.evaluate(&tcor);
        assert!(
            et.memory_hierarchy_pj() < eb.memory_hierarchy_pj(),
            "tcor {} >= baseline {}",
            et.memory_hierarchy_pj(),
            eb.memory_hierarchy_pj()
        );
        assert!(et.total_pj() < eb.total_pj());
    }

    #[test]
    fn memory_share_of_total_is_plausible() {
        // The calibration target: memory hierarchy is a meaningful chunk
        // of total GPU energy (the paper's ratio 5.5/13.8 implies ~40%),
        // not >90% and not <10%.
        let r = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene(2000));
        let e = EnergyModel::default().evaluate(&r);
        let share = e.memory_hierarchy_pj() / e.total_pj();
        assert!(
            (0.15..=0.75).contains(&share),
            "memory share {share:.2} out of plausible band"
        );
    }

    #[test]
    fn fps_is_inverse_of_frame_cycles() {
        let e = EnergyBreakdown {
            frame_cycles: 6e6,
            ..Default::default()
        };
        assert!((e.fps(600_000_000) - 100.0).abs() < 1e-9);
        let zero = EnergyBreakdown::default();
        assert_eq!(zero.fps(600_000_000), 0.0);
    }
}
