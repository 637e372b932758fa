//! Raster Pipeline memory traffic: everything that shares the L2 with the
//! Parameter Buffer (Fig. 5), plus the Color Buffer flush that goes
//! straight to main memory (Fig. 2).
//!
//! TCOR's L2 dead-line policy interacts with this traffic (textures and
//! instructions are always clean; PB lines may be dirty — §III.D.2), and
//! the total-main-memory and energy figures (18–22) depend on its volume.
//! The streams are synthesized deterministically per tile with the
//! locality structure of real rasterization: texel fetches walk a window
//! of the texture footprint with mip/neighbour reuse; instruction fetches
//! loop over a small shader working set; the color buffer flushes one
//! tile's pixels per tile.

use tcor_common::{Address, BlockAddr, SmallRng, LINE_SIZE};
use tcor_pbuf::region::bases;

/// Per-benchmark raster traffic parameters (calibrated from Table II).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RasterParams {
    /// Texture working-set footprint in bytes (Table II: 0.4–6.8 MiB).
    pub texture_footprint_bytes: u64,
    /// Average texel-block fetches issued per fragment quad (through the
    /// texture caches).
    pub texel_fetches_per_quad: f64,
    /// Fragment-shader length in instructions (Table II: 4–20 per pixel).
    pub shader_instructions: u32,
    /// Bytes of shader code resident (instruction footprint).
    pub shader_footprint_bytes: u64,
    /// RGBA bytes per pixel in the color buffer.
    pub bytes_per_pixel: u32,
    /// Fraction of fragments the Early Z-Test kills before shading
    /// (§II.A): killed quads fetch no texels and execute no shader
    /// instructions. 0.0 disables depth-kill modeling.
    pub z_kill_rate: f64,
    /// Deterministic seed for the texel address stream.
    pub seed: u64,
}

impl Default for RasterParams {
    fn default() -> Self {
        RasterParams {
            texture_footprint_bytes: 4 << 20,
            texel_fetches_per_quad: 1.5,
            shader_instructions: 8,
            shader_footprint_bytes: 4096,
            bytes_per_pixel: 4,
            z_kill_rate: 0.0,
            seed: 0x7C0D,
        }
    }
}

/// Generates the per-tile raster access streams.
#[derive(Debug)]
pub struct RasterTraffic {
    params: RasterParams,
    rng: SmallRng,
    /// Sliding window base within the texture footprint — consecutive
    /// tiles sample nearby texels (screen-space locality).
    window_block: u64,
}

impl RasterTraffic {
    /// Creates a traffic generator.
    pub fn new(params: RasterParams) -> Self {
        let rng = SmallRng::seed_from_u64(params.seed);
        RasterTraffic {
            params,
            rng,
            window_block: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &RasterParams {
        &self.params
    }

    /// Texel-block fetches a tile with `fragments` estimated fragments
    /// issues: the fragments the Early Z-Test leaves (it kills
    /// [`RasterParams::z_kill_rate`] of them) shade in quads of 4
    /// (§II.A), and each quad issues
    /// [`RasterParams::texel_fetches_per_quad`] block fetches on
    /// average.
    pub fn texel_fetches(&self, fragments: f64) -> usize {
        let shaded = fragments * (1.0 - self.params.z_kill_rate);
        let quads = (shaded / 4.0).ceil() as u64;
        (quads as f64 * self.params.texel_fetches_per_quad).round() as usize
    }

    /// The texel sampler: draws the [`texel_fetches`](Self::texel_fetches)
    /// block addresses of a tile with `fragments` estimated fragments and
    /// hands each to `visit` in fetch order, 85% of them within a small
    /// sliding window (bilinear neighbours / recently used mip blocks)
    /// and the rest jumping within the footprint. A frame plan feeds its
    /// texture L1s straight from `visit`.
    #[inline]
    pub fn sample_texels(&mut self, fragments: f64, mut visit: impl FnMut(BlockAddr)) {
        let footprint_blocks = (self.params.texture_footprint_bytes / LINE_SIZE).max(1);
        for _ in 0..self.texel_fetches(fragments) {
            // 85% of fetches land in the sliding bilinear/mip window and
            // are absorbed by the L1 texture caches; the rest jump within
            // the footprint (distant mip levels, new surfaces) and mostly
            // stream through the L2 — real mobile texture traffic shows
            // little L2-level reuse once the L1s have filtered it.
            let local: bool = self.rng.random_bool(0.85);
            // Either way one uniform draw, from the window of 64 blocks
            // (4 KiB) at the current base or from the whole footprint;
            // the choice is a select, not a branch that the 15% of
            // jumps would mispredict.
            let (base, span) = if local {
                (self.window_block, 64)
            } else {
                (0, footprint_blocks)
            };
            let block = base + self.rng.random_range(0..span);
            // The window's base is already below the footprint: only a
            // window that runs past its end wraps.
            let block = if block >= footprint_blocks {
                block % footprint_blocks
            } else {
                block
            };
            visit(Address(bases::TEXTURES + block * LINE_SIZE).block());
        }
        // Slide the window: neighbouring tiles sample nearby texture.
        self.window_block = (self.window_block + 16) % footprint_blocks;
    }

    /// Texture-fetch block addresses for a tile with `fragments`
    /// estimated fragments: [`sample_texels`](Self::sample_texels)
    /// collected.
    pub fn texture_blocks(&mut self, fragments: f64) -> Vec<BlockAddr> {
        let mut out = Vec::with_capacity(self.texel_fetches(fragments));
        self.sample_texels(fragments, |b| out.push(b));
        out
    }

    /// Instruction-fetch block addresses for one tile: each fragment
    /// batch re-walks the shader, but the I-cache working set is the
    /// shader footprint — we emit one walk per tile (further iterations
    /// hit in the L1 I-cache and never reach the shared L2).
    pub fn instruction_blocks(&self) -> Vec<BlockAddr> {
        let blocks = self.params.shader_footprint_bytes.div_ceil(LINE_SIZE);
        (0..blocks)
            .map(|b| Address(bases::INSTRUCTIONS + b * LINE_SIZE).block())
            .collect()
    }

    /// Color-buffer flush for one `tile_size`×`tile_size` tile: the
    /// on-chip Color Buffer writes every pixel once to the Frame Buffer in
    /// main memory (bypassing the L2, per Fig. 2), as a run of `n`
    /// consecutive blocks from `first`: `(first, n)`.
    pub fn framebuffer_run(&self, tile_index: usize, tile_size: u32) -> (BlockAddr, u64) {
        let bytes = tile_size as u64 * tile_size as u64 * self.params.bytes_per_pixel as u64;
        let base = bases::FRAME_BUFFER + tile_index as u64 * bytes;
        (Address(base).block(), bytes / LINE_SIZE)
    }

    /// The blocks of [`framebuffer_run`](Self::framebuffer_run), one by
    /// one.
    pub fn framebuffer_blocks(&self, tile_index: usize, tile_size: u32) -> Vec<BlockAddr> {
        let (first, n) = self.framebuffer_run(tile_index, tile_size);
        (0..n).map(|b| BlockAddr(first.0 + b)).collect()
    }

    /// Shader work estimate for the energy model: executed instructions
    /// for `fragments` fragments.
    pub fn shader_instructions_executed(&self, fragments: f64) -> f64 {
        fragments * (1.0 - self.params.z_kill_rate) * self.params.shader_instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_pbuf::Region;

    fn traffic() -> RasterTraffic {
        RasterTraffic::new(RasterParams::default())
    }

    #[test]
    fn texture_blocks_live_in_texture_region_and_footprint() {
        let mut t = traffic();
        let blocks = t.texture_blocks(1024.0);
        assert!(!blocks.is_empty());
        let fp = RasterParams::default().texture_footprint_bytes;
        for b in blocks {
            assert_eq!(Region::of_block(b), Region::Textures);
            assert!(b.base().0 < bases::TEXTURES + fp);
        }
    }

    #[test]
    fn texture_volume_scales_with_fragments() {
        let mut t = traffic();
        let small = t.texture_blocks(64.0).len();
        let big = t.texture_blocks(4096.0).len();
        assert!(big > small * 10);
    }

    #[test]
    fn texture_stream_is_deterministic() {
        let a: Vec<_> = traffic().texture_blocks(500.0);
        let b: Vec<_> = traffic().texture_blocks(500.0);
        assert_eq!(a, b);
    }

    #[test]
    fn instruction_blocks_cover_shader_footprint() {
        let t = traffic();
        let blocks = t.instruction_blocks();
        assert_eq!(blocks.len(), 64); // 4096 / 64
        assert!(blocks
            .iter()
            .all(|b| Region::of_block(*b) == Region::Instructions));
    }

    #[test]
    fn framebuffer_flush_is_one_tile_of_pixels() {
        let t = traffic();
        let blocks = t.framebuffer_blocks(0, 32);
        assert_eq!(blocks.len(), 64); // 32*32*4 / 64
        assert!(blocks
            .iter()
            .all(|b| Region::of_block(*b) == Region::FrameBuffer));
        // Distinct tiles flush distinct addresses.
        let other = t.framebuffer_blocks(1, 32);
        assert_ne!(blocks[0], other[0]);
    }

    #[test]
    fn zero_fragments_zero_texels() {
        let mut t = traffic();
        assert!(t.texture_blocks(0.0).is_empty());
    }

    #[test]
    fn z_kill_reduces_shading_and_texel_traffic() {
        let mut killed = RasterTraffic::new(RasterParams {
            z_kill_rate: 0.5,
            ..RasterParams::default()
        });
        let mut full = traffic();
        let k = killed.texture_blocks(4096.0).len();
        let f = full.texture_blocks(4096.0).len();
        assert!(
            k * 3 < f * 2,
            "50% z-kill should cut texel traffic: {k} vs {f}"
        );
        assert_eq!(
            killed.shader_instructions_executed(1000.0),
            0.5 * full.shader_instructions_executed(1000.0)
        );
    }
}
