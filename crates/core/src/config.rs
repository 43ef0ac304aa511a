//! Configuration and ablation switches for the Prudence allocator.

use pbs_alloc_api::engine::EngineConfig;

/// Tuning knobs for a [`PrudenceCache`](crate::PrudenceCache).
///
/// Every §4.2 optimization that is a decision of the policy can be
/// toggled independently so `figures ablation` can run each one off (see
/// `DESIGN.md`); the defaults enable them all. The paper's idle-time
/// pre-flush is not reproduced and has no switch (DESIGN.md §4c).
///
/// # Example
///
/// ```
/// use prudence::PrudenceConfig;
///
/// let full = PrudenceConfig::new(8);
/// assert!(full.latent_cache && full.partial_refill);
/// assert_eq!(full.engine.ncpus, 8);
///
/// let no_hints = PrudenceConfig::new(8)
///     .with_deferred_aware_selection(false)
///     .with_partial_refill(false);
/// assert!(!no_hints.partial_refill);
/// ```
#[derive(Debug, Clone)]
pub struct PrudenceConfig {
    /// The settings shared with every engine-backed cache: CPU-slot
    /// count, pressure watermarks, OOM-ladder depth.
    pub engine: EngineConfig,
    /// Keep deferred objects in per-CPU latent caches (§4.1). When
    /// disabled, deferred objects go straight to latent slabs.
    pub latent_cache: bool,
    /// Refill only `cache_size − latent_count` objects when deferred
    /// objects are pending (§4.2, *Object cache refill*).
    pub partial_refill: bool,
    /// Flush more objects when more deferred objects are pending (§4.2,
    /// *Object cache flush*).
    pub proportional_flush: bool,
    /// Consider deferred objects when selecting a slab for refill (§4.2,
    /// *Reduces total fragmentation*, Figure 5).
    pub deferred_aware_selection: bool,
    /// How many partial slabs with a free object selection compares (the
    /// paper uses 10 as a latency/fragmentation trade-off, §5.4).
    pub slab_scan_window: usize,
}

impl PrudenceConfig {
    /// The full Prudence design for `ncpus` CPU slots.
    ///
    /// # Panics
    ///
    /// Panics if `ncpus` is zero.
    pub fn new(ncpus: usize) -> Self {
        Self::from(EngineConfig::new(ncpus))
    }

    /// Toggles the latent cache (ablation).
    pub fn with_latent_cache(mut self, on: bool) -> Self {
        self.latent_cache = on;
        self
    }

    /// Toggles partial refill (ablation).
    pub fn with_partial_refill(mut self, on: bool) -> Self {
        self.partial_refill = on;
        self
    }

    /// Toggles proportional flush (ablation).
    pub fn with_proportional_flush(mut self, on: bool) -> Self {
        self.proportional_flush = on;
        self
    }

    /// Toggles deferred-aware slab selection (ablation).
    pub fn with_deferred_aware_selection(mut self, on: bool) -> Self {
        self.deferred_aware_selection = on;
        self
    }

    /// Sets the partial-list scan window.
    pub fn with_slab_scan_window(mut self, window: usize) -> Self {
        self.slab_scan_window = window.max(1);
        self
    }

    /// Sets the deferred-backlog pressure watermarks. `hard` is clamped to
    /// at least `soft` so the pressure levels stay ordered.
    pub fn with_watermarks(mut self, soft: usize, hard: usize) -> Self {
        self.engine = self.engine.with_watermarks(soft, hard);
        self
    }
}

impl From<EngineConfig> for PrudenceConfig {
    /// The full Prudence design over the given engine settings.
    fn from(engine: EngineConfig) -> Self {
        Self {
            engine,
            latent_cache: true,
            partial_refill: true,
            proportional_flush: true,
            deferred_aware_selection: true,
            slab_scan_window: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let c = PrudenceConfig::new(2);
        assert!(c.latent_cache);
        assert!(c.partial_refill);
        assert!(c.proportional_flush);
        assert!(c.deferred_aware_selection);
        assert_eq!(c.slab_scan_window, 10);
        assert!(c.engine.soft_watermark <= c.engine.hard_watermark);
    }

    #[test]
    fn watermarks_stay_ordered() {
        let c = PrudenceConfig::new(2).with_watermarks(100, 10);
        assert_eq!(c.engine.soft_watermark, 100);
        assert_eq!(c.engine.hard_watermark, 100, "hard clamped up to soft");
        let c = PrudenceConfig::new(2).with_watermarks(0, 0);
        assert_eq!(c.engine.soft_watermark, 1, "soft clamped to at least 1");
    }

    #[test]
    fn builder_toggles() {
        let c = PrudenceConfig::new(2)
            .with_latent_cache(false)
            .with_slab_scan_window(0);
        assert!(!c.latent_cache);
        assert_eq!(c.slab_scan_window, 1, "window clamped to at least 1");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_cpus_rejected() {
        PrudenceConfig::new(0);
    }
}
