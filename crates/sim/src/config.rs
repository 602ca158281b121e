//! Hardware configuration of the CTA accelerator (paper §IV-C).

use std::fmt;

/// Widest systolic array [`HwConfig::try_validate`] accepts. The paper's
/// array is 8 wide; the bound keeps the buffer sizing (`2·b·n` words) and
/// the default PAG parallelism (`2·b`) far from overflow.
pub const MAX_SA_WIDTH: usize = 4096;

/// Why an [`HwConfig`] is not a buildable accelerator, naming the field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HwConfigError {
    /// A size field is zero.
    Zero {
        /// The field's name.
        field: &'static str,
    },
    /// `clock_ghz` is not positive (or is NaN).
    Clock(f64),
    /// `sa_width` exceeds [`MAX_SA_WIDTH`].
    SaWidthTooLarge(usize),
}

impl HwConfigError {
    /// The name of the offending `HwConfig` field.
    pub fn field(&self) -> &'static str {
        match self {
            Self::Zero { field } => field,
            Self::Clock(_) => "clock_ghz",
            Self::SaWidthTooLarge(_) => "sa_width",
        }
    }
}

impl fmt::Display for HwConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero { field } => write!(f, "{field} must be positive"),
            Self::Clock(ghz) => write!(f, "clock_ghz must be positive, got {ghz}"),
            Self::SaWidthTooLarge(b) => {
                write!(f, "sa_width must be at most {MAX_SA_WIDTH}, got {b}")
            }
        }
    }
}

impl std::error::Error for HwConfigError {}

/// Static configuration of one CTA accelerator instance.
///
/// The paper's reference design uses `b = 8` (SA width, also the batch
/// size), `d = 64` (SA height = head dimension), `l = 6` hash directions,
/// 8 PAG tiles × 2 iterations/cycle, a 1 GHz clock and sizing for sequences
/// up to 512 tokens.
///
/// ```
/// use cta_sim::HwConfig;
/// let hw = HwConfig::paper();
/// assert_eq!(hw.sa_width, 8);
/// assert_eq!(hw.pag_parallelism(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// SA width `b`: number of PE columns = batch size of the mapping.
    pub sa_width: usize,
    /// SA height `d`: number of PE rows = head dimension.
    pub sa_height: usize,
    /// Hash code length `l` = number of CIM thread units.
    pub hash_length: usize,
    /// Number of PAG tiles (outer-loop unrolling degree).
    pub pag_tiles: usize,
    /// Inner-loop iterations each PAG tile retires per cycle.
    pub pag_iters_per_tile: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Maximum supported sequence length (sizes the SRAMs).
    pub max_seq_len: usize,
    /// Whether the Fig. 10 bubble-removal schedule is applied between
    /// consecutive SA steps (ablation toggle; the paper always enables it).
    pub bubble_removal: bool,
    /// §V-B optimisation: map the same centroid batch's K and V linears
    /// back to back, halving value-register loads (ablation toggle).
    pub kv_pairing: bool,
    /// §V-B optimisation: broadcast query results straight into the value
    /// registers through the shortcut, so queries are never stored to or
    /// reloaded from result memory (ablation toggle).
    pub query_shortcut: bool,
}

impl HwConfig {
    /// The paper's reference configuration (§IV-C).
    pub fn paper() -> Self {
        Self {
            sa_width: 8,
            sa_height: 64,
            hash_length: 6,
            pag_tiles: 8,
            pag_iters_per_tile: 2,
            clock_ghz: 1.0,
            max_seq_len: 512,
            bubble_removal: true,
            kv_pairing: true,
            query_shortcut: true,
        }
    }

    /// Returns a copy with a different SA width and the paper's matching
    /// PAG sizing rule (`tiles = b`, i.e. parallelism `2b` — the optimum
    /// found in the Fig. 13 design-space exploration).
    ///
    /// # Panics
    ///
    /// Panics if `sa_width == 0`.
    pub fn with_sa_width(mut self, sa_width: usize) -> Self {
        assert!(sa_width > 0, "sa_width must be positive");
        self.sa_width = sa_width;
        self.pag_tiles = sa_width;
        self
    }

    /// Returns a copy with an explicit PAG parallelism (tiles × 2), used by
    /// the design-space exploration.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero or odd (tiles retire 2
    /// iterations/cycle, so parallelism comes in multiples of 2).
    pub fn with_pag_parallelism(mut self, parallelism: usize) -> Self {
        assert!(
            parallelism > 0 && parallelism.is_multiple_of(2),
            "PAG parallelism must be a positive multiple of 2"
        );
        self.pag_tiles = parallelism / self.pag_iters_per_tile;
        self
    }

    /// Returns a copy sized for sequences up to `max_seq_len` — the
    /// builder-style alternative to mutating the field (or spelling a
    /// struct update) at call sites.
    ///
    /// # Panics
    ///
    /// Panics if `max_seq_len == 0`.
    pub fn with_max_seq_len(mut self, max_seq_len: usize) -> Self {
        assert!(max_seq_len > 0, "max_seq_len must be positive");
        self.max_seq_len = max_seq_len;
        self
    }

    /// Total PAG inner-loop iterations retired per cycle.
    pub fn pag_parallelism(&self) -> usize {
        self.pag_tiles * self.pag_iters_per_tile
    }

    /// Number of PEs in the systolic array.
    pub fn num_pes(&self) -> usize {
        self.sa_width * self.sa_height
    }

    /// Number of multipliers (one per PE, plus one per PPE).
    pub fn num_multipliers(&self) -> usize {
        self.num_pes() + self.sa_width
    }

    /// Seconds per clock cycle.
    pub fn cycle_time_s(&self) -> f64 {
        1e-9 / self.clock_ghz
    }

    /// Checks internal consistency: every size positive, a positive
    /// clock and `sa_width` at most [`MAX_SA_WIDTH`]. The error names the
    /// first offending field.
    pub fn try_validate(&self) -> Result<(), HwConfigError> {
        let sizes = [
            ("sa_width", self.sa_width),
            ("sa_height", self.sa_height),
            ("hash_length", self.hash_length),
            ("pag_tiles", self.pag_tiles),
            ("pag_iters_per_tile", self.pag_iters_per_tile),
        ];
        if let Some(&(field, _)) = sizes.iter().find(|&&(_, v)| v == 0) {
            return Err(HwConfigError::Zero { field });
        }
        if self.sa_width > MAX_SA_WIDTH {
            return Err(HwConfigError::SaWidthTooLarge(self.sa_width));
        }
        if self.clock_ghz.is_nan() || self.clock_ghz <= 0.0 {
            return Err(HwConfigError::Clock(self.clock_ghz));
        }
        if self.max_seq_len == 0 {
            return Err(HwConfigError::Zero { field: "max_seq_len" });
        }
        Ok(())
    }

    /// [`HwConfig::try_validate`] for callers that treat a bad
    /// configuration as a bug; called by the simulator entry points.
    ///
    /// # Panics
    ///
    /// Panics with the error's message if the configuration is invalid.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_iv_c() {
        let hw = HwConfig::paper();
        assert_eq!(hw.sa_width, 8);
        assert_eq!(hw.sa_height, 64);
        assert_eq!(hw.hash_length, 6);
        assert_eq!(hw.max_seq_len, 512);
        assert_eq!(hw.num_pes(), 512);
        assert_eq!(hw.clock_ghz, 1.0);
        hw.validate();
    }

    #[test]
    fn with_sa_width_keeps_pag_rule() {
        let hw = HwConfig::paper().with_sa_width(16);
        assert_eq!(hw.pag_parallelism(), 32);
    }

    #[test]
    fn with_pag_parallelism_sets_tiles() {
        let hw = HwConfig::paper().with_pag_parallelism(64);
        assert_eq!(hw.pag_tiles, 32);
        assert_eq!(hw.pag_parallelism(), 64);
    }

    #[test]
    #[should_panic(expected = "multiple of 2")]
    fn odd_pag_parallelism_rejected() {
        let _ = HwConfig::paper().with_pag_parallelism(7);
    }

    #[test]
    fn try_validate_names_the_field() {
        assert_eq!(HwConfig::paper().try_validate(), Ok(()));
        let wide = HwConfig::paper().with_sa_width(MAX_SA_WIDTH);
        assert_eq!(wide.try_validate(), Ok(()));
        let too_wide = HwConfig::paper().with_sa_width(MAX_SA_WIDTH + 1).try_validate();
        assert_eq!(too_wide, Err(HwConfigError::SaWidthTooLarge(MAX_SA_WIDTH + 1)));
        assert_eq!(too_wide.unwrap_err().field(), "sa_width");
        let huge = HwConfig { sa_width: 1 << 62, ..HwConfig::paper() }.try_validate();
        assert_eq!(
            huge.unwrap_err().to_string(),
            format!("sa_width must be at most 4096, got {}", 1u64 << 62)
        );
        for (hw, field) in [
            (HwConfig { sa_height: 0, ..HwConfig::paper() }, "sa_height"),
            (HwConfig { hash_length: 0, ..HwConfig::paper() }, "hash_length"),
            (HwConfig { pag_tiles: 0, ..HwConfig::paper() }, "pag_tiles"),
            (HwConfig { pag_iters_per_tile: 0, ..HwConfig::paper() }, "pag_iters_per_tile"),
            (HwConfig { max_seq_len: 0, ..HwConfig::paper() }, "max_seq_len"),
            (HwConfig { clock_ghz: 0.0, ..HwConfig::paper() }, "clock_ghz"),
            (HwConfig { clock_ghz: f64::NAN, ..HwConfig::paper() }, "clock_ghz"),
        ] {
            let err = hw.try_validate().unwrap_err();
            assert_eq!(err.field(), field);
            assert!(err.to_string().starts_with(&format!("{field} must be")), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "sa_width must be at most 4096")]
    fn validate_panics_with_the_typed_error() {
        HwConfig { sa_width: 5000, ..HwConfig::paper() }.validate();
    }

    #[test]
    fn cycle_time_inverse_of_clock() {
        assert_eq!(HwConfig::paper().cycle_time_s(), 1e-9);
    }
}
