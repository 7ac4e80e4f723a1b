//! Cache-line metadata.
//!
//! Lines carry no data (see the crate docs); they carry the tag plus the
//! flag bits the paper's mechanisms key on: dirty (write-back), *fetched by
//! wrong execution* (the WEC triggers a next-line prefetch when a correct
//! load first hits such a block) and *prefetched, not yet referenced* (the
//! tagged next-line prefetcher of the `nlp` configuration re-arms on the
//! first demand hit to a prefetched block).

/// Per-line flag bits.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LineFlags {
    /// Block has been written and must be written back on eviction.
    pub dirty: bool,
    /// Block was brought in by a wrong-path or wrong-thread load.
    pub wrong_fetched: bool,
    /// Block was brought in by a prefetch and has not been demand-hit yet.
    pub prefetched: bool,
}

impl LineFlags {
    /// Flags for a block fetched by a correct-path demand miss.
    pub const DEMAND: LineFlags = LineFlags {
        dirty: false,
        wrong_fetched: false,
        prefetched: false,
    };

    /// Flags for a block fetched by a wrong-execution load.
    pub const WRONG: LineFlags = LineFlags {
        dirty: false,
        wrong_fetched: true,
        prefetched: false,
    };

    /// Flags for a prefetched block.
    pub const PREFETCH: LineFlags = LineFlags {
        dirty: false,
        wrong_fetched: false,
        prefetched: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_presets() {
        let (demand, wrong, prefetch) = (LineFlags::DEMAND, LineFlags::WRONG, LineFlags::PREFETCH);
        assert!(!demand.wrong_fetched);
        assert!(wrong.wrong_fetched && !wrong.dirty);
        assert!(prefetch.prefetched);
    }
}
