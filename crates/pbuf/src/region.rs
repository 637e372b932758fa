//! The memory organization of Fig. 5: which region of the address space a
//! block belongs to.
//!
//! The simulator assigns each logical region a fixed, generously-sized
//! window so that a block address classifies in O(1). The TCOR L2
//! enhancement needs exactly this distinction: its per-line 2-bit field
//! records whether a line holds PB-Lists, PB-Attributes or other data
//! (§III.D.1).

use tcor_common::BlockAddr;

/// Base addresses of the simulated memory regions (256 MiB windows).
pub mod bases {
    /// PB-Lists section of the Parameter Buffer.
    pub const PB_LISTS: u64 = 0x1000_0000;
    /// PB-Attributes section of the Parameter Buffer.
    pub const PB_ATTRIBUTES: u64 = 0x2000_0000;
    /// Texture data.
    pub const TEXTURES: u64 = 0x3000_0000;
    /// Input geometry (vertices).
    pub const VERTICES: u64 = 0x4000_0000;
    /// Vertex + fragment shader instructions.
    pub const INSTRUCTIONS: u64 = 0x5000_0000;
    /// Frame buffer (Color Buffer flush target).
    pub const FRAME_BUFFER: u64 = 0x6000_0000;
    /// Size of each region window.
    pub const WINDOW: u64 = 0x1000_0000;
}

/// Logical memory regions of a graphics application (Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Per-tile primitive lists.
    PbLists,
    /// Primitive attribute storage.
    PbAttributes,
    /// Texture fetches.
    Textures,
    /// Input geometry.
    Vertices,
    /// Shader instructions.
    Instructions,
    /// Final color output.
    FrameBuffer,
    /// Anything else.
    Other,
}

impl Region {
    /// All regions, in display order.
    pub const ALL: [Region; 7] = [
        Region::PbLists,
        Region::PbAttributes,
        Region::Textures,
        Region::Vertices,
        Region::Instructions,
        Region::FrameBuffer,
        Region::Other,
    ];

    /// Classifies a block address.
    pub fn of_block(block: BlockAddr) -> Region {
        use bases::*;
        match block.base().0 {
            a if (PB_LISTS..PB_LISTS + WINDOW).contains(&a) => Region::PbLists,
            a if (PB_ATTRIBUTES..PB_ATTRIBUTES + WINDOW).contains(&a) => Region::PbAttributes,
            a if (TEXTURES..TEXTURES + WINDOW).contains(&a) => Region::Textures,
            a if (VERTICES..VERTICES + WINDOW).contains(&a) => Region::Vertices,
            a if (INSTRUCTIONS..INSTRUCTIONS + WINDOW).contains(&a) => Region::Instructions,
            a if (FRAME_BUFFER..FRAME_BUFFER + WINDOW).contains(&a) => Region::FrameBuffer,
            _ => Region::Other,
        }
    }

    /// Whether the region is part of the Parameter Buffer.
    pub fn is_parameter_buffer(self) -> bool {
        matches!(self, Region::PbLists | Region::PbAttributes)
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Region::PbLists => "PB-Lists",
            Region::PbAttributes => "PB-Attr",
            Region::Textures => "Textures",
            Region::Vertices => "Vertices",
            Region::Instructions => "Instr",
            Region::FrameBuffer => "FrameBuf",
            Region::Other => "Other",
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::Address;

    #[test]
    fn classification_covers_all_windows() {
        let of = |a: u64| Region::of_block(Address(a).block());
        assert_eq!(of(bases::PB_LISTS), Region::PbLists);
        assert_eq!(of(bases::PB_ATTRIBUTES + 100), Region::PbAttributes);
        assert_eq!(of(bases::TEXTURES + bases::WINDOW - 1), Region::Textures);
        assert_eq!(of(bases::VERTICES), Region::Vertices);
        assert_eq!(of(bases::INSTRUCTIONS), Region::Instructions);
        assert_eq!(of(bases::FRAME_BUFFER), Region::FrameBuffer);
        assert_eq!(of(0), Region::Other);
        assert_eq!(of(u64::MAX), Region::Other);
    }

    #[test]
    fn pb_predicate() {
        assert!(Region::PbLists.is_parameter_buffer());
        assert!(Region::PbAttributes.is_parameter_buffer());
        assert!(!Region::Textures.is_parameter_buffer());
    }

    #[test]
    fn labels_unique_and_nonempty() {
        let labels: std::collections::HashSet<&str> =
            Region::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), Region::ALL.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }
}
