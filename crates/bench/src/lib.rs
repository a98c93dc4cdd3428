//! # benchkit — the deferred evaluation (E1–E9)
//!
//! The paper contains no quantitative evaluation ("Future work will
//! focus on quantifying the benefit of the hybrid approach", §7). This
//! crate *is* that evaluation: every comparative claim in the paper is
//! turned into a measured experiment over the same engine, parser, and
//! seeded corpus. `src/bin/harness.rs` prints the tables recorded in
//! EXPERIMENTS.md and is the only in-workspace measurement path (the
//! end-to-end service benchmark lives in `svcbench/`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

use baselines::{
    CatalogBackend, ClobOnlyBackend, DomStoreBackend, EdgeBackend, HybridBackend, InliningBackend,
};
use catalog::catalog::CatalogConfig;
use catalog::error::Result;
use catalog::lead::lead_partition;
use catalog::shred::DynamicConvention;
use workload::{DocGenerator, WorkloadConfig};

/// Default workload for backend comparisons.
pub fn default_config() -> WorkloadConfig {
    WorkloadConfig::default()
}

/// Build a fresh document generator.
pub fn generator(cfg: WorkloadConfig) -> DocGenerator {
    DocGenerator::new(cfg)
}

/// All five storage backends, fresh and empty, for one generator pool.
pub fn all_backends(generator: &DocGenerator) -> Result<Vec<Box<dyn CatalogBackend>>> {
    Ok(vec![
        Box::new(HybridBackend::from_catalog(generator.catalog(CatalogConfig::default())?)),
        Box::new(InliningBackend::new(lead_partition(), DynamicConvention::default())?),
        Box::new(EdgeBackend::new(DynamicConvention::default())?),
        Box::new(ClobOnlyBackend::new(DynamicConvention::default())?),
        Box::new(DomStoreBackend::new(DynamicConvention::default())),
    ])
}

/// A fresh hybrid backend for one generator pool.
pub fn hybrid_backend(generator: &DocGenerator) -> Result<HybridBackend> {
    Ok(HybridBackend::from_catalog(generator.catalog(CatalogConfig::default())?))
}

/// Ingest a corpus into a backend, returning elapsed seconds.
pub fn load(backend: &dyn CatalogBackend, corpus: &[String]) -> Result<f64> {
    let t0 = std::time::Instant::now();
    for d in corpus {
        backend.ingest(d)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Median of repeated timings of `f` (seconds).
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// The `q`-quantile (0 < q ≤ 1) of a sample set by the nearest-rank
/// method: the smallest sample such that at least `q·n` samples are ≤
/// it. Sorts in place; empty input yields 0.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod percentile_tests {
    use super::percentile;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut s, 0.95), 95.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 0.50), 50.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.99), 7.0);
        assert_eq!(percentile(&mut [], 0.95), 0.0);
    }
}
