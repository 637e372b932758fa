//! The per-L2-line Parameter Buffer tag (§III.D.1).
//!
//! Hardware adds two fields to each L2 line: a 2-bit kind (PB-Lists /
//! PB-Attributes / neither) and a 12-bit last-use tile. The simulator
//! packs both into 14 bits of the L2 line's state word.

use tcor_common::TileRank;

/// What a line holds, from the L2's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PbKind {
    /// Not Parameter Buffer data (textures, vertices, instructions…).
    #[default]
    None,
    /// PB-Lists data.
    Lists,
    /// PB-Attributes data.
    Attributes,
}

impl PbKind {
    fn code(self) -> u64 {
        match self {
            PbKind::None => 0,
            PbKind::Lists => 1,
            PbKind::Attributes => 2,
        }
    }

    fn from_code(c: u64) -> Self {
        match c {
            1 => PbKind::Lists,
            2 => PbKind::Attributes,
            _ => PbKind::None,
        }
    }
}

/// The (kind, last-use tile rank) pair tagged onto an L2 line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct PbTag {
    /// Which PB section the line holds, if any.
    pub kind: PbKind,
    /// Traversal rank of the last tile that will use this line
    /// (meaningless when `kind == None`).
    pub last_use: TileRank,
}

impl PbTag {
    /// Tag for non-PB data.
    pub const NONE: PbTag = PbTag {
        kind: PbKind::None,
        last_use: TileRank(0),
    };

    /// Tag for a PB-Lists line whose tile has the given rank (a list line
    /// is used by exactly one tile, which is therefore its last use).
    pub fn lists(last_use: TileRank) -> Self {
        PbTag {
            kind: PbKind::Lists,
            last_use,
        }
    }

    /// Tag for a PB-Attributes line with the given last-use rank.
    pub fn attributes(last_use: TileRank) -> Self {
        PbTag {
            kind: PbKind::Attributes,
            last_use,
        }
    }

    /// Packs into 14 bits, exactly as the hardware tag stores it: a
    /// 2-bit kind above a 12-bit last-use tile. Ranks beyond
    /// [`TileRank::OPT_MAX`] saturate (§III.C) — hardware has no wider
    /// field, and anything past the screen is equally far away.
    /// `PbTag::NONE` encodes to 0, the "no information" tag.
    pub fn encode(self) -> u64 {
        (self.kind.code() << 12) | self.last_use.saturated().value() as u64
    }

    /// Unpacks from the 14-bit word.
    pub fn decode(user: u64) -> Self {
        PbTag {
            kind: PbKind::from_code((user >> 12) & 0b11),
            last_use: TileRank((user & 0xFFF) as u32),
        }
    }

    /// Whether this line is dead once `completed_tiles` tiles have
    /// finished: its last-use tile's rank is below the watermark.
    /// Non-PB lines are never "dead" (the L2 cannot know).
    pub fn is_dead(self, completed_tiles: u64) -> bool {
        self.kind != PbKind::None && (self.last_use.value() as u64) < completed_tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for tag in [
            PbTag::NONE,
            PbTag::lists(TileRank(0)),
            PbTag::lists(TileRank(4095)),
            PbTag::attributes(TileRank(77)),
        ] {
            assert_eq!(PbTag::decode(tag.encode()), tag);
        }
    }

    #[test]
    fn encode_saturates_at_twelve_bit_boundary() {
        // 4095 is the last representable rank; 4096 and NEVER collapse to it.
        assert_eq!(
            PbTag::lists(TileRank(4095)).encode(),
            PbTag::lists(TileRank(4096)).encode()
        );
        assert_eq!(
            PbTag::decode(PbTag::attributes(TileRank::NEVER).encode()),
            PbTag::attributes(TileRank(4095))
        );
        // 4094 is still distinct from the saturation point.
        assert_ne!(
            PbTag::lists(TileRank(4094)).encode(),
            PbTag::lists(TileRank(4095)).encode()
        );
        // The kind field must survive a saturated rank (no bit overlap).
        assert_eq!(
            PbTag::decode(PbTag::lists(TileRank(4096)).encode()).kind,
            PbKind::Lists
        );
        assert_eq!(PbTag::NONE.encode(), 0, "NONE must stay the zero word");
    }

    #[test]
    fn deadness_watermark() {
        let t = PbTag::attributes(TileRank(5));
        assert!(!t.is_dead(0));
        assert!(!t.is_dead(5)); // tile 5 not yet complete
        assert!(t.is_dead(6)); // completed tiles 0..=5
    }

    #[test]
    fn non_pb_never_dead() {
        assert!(!PbTag::NONE.is_dead(u32::MAX as u64 + 1));
    }

    #[test]
    fn lists_line_dead_after_its_tile() {
        let t = PbTag::lists(TileRank(0));
        assert!(!t.is_dead(0));
        assert!(t.is_dead(1));
    }
}
