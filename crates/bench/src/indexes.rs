//! The index registry: every competitor the paper evaluates, buildable
//! behind one trait object.

use alt_index::{AltConfig, AltIndex};
use art::Art;
use baselines::{AlexLike, FinedexLike, LippLike, XIndexLike};
use index_api::{BulkLoad, ConcurrentIndex};
use std::sync::Arc;

/// Every index the evaluation compares, plus the ALT-index ablations of
/// §IV-H.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The paper's contribution.
    Alt,
    /// ALT-index with dynamic retraining disabled.
    AltNoRetrain,
    /// Plain concurrent ART (optimistic lock coupling).
    Art,
    /// ALEX+-like baseline.
    Alex,
    /// LIPP+-like baseline.
    Lipp,
    /// XIndex-like baseline.
    XIndex,
    /// FINEdex-like baseline.
    Finedex,
}

impl IndexKind {
    /// The paper's competitor set (Figs 7-9, Table I).
    pub const COMPETITORS: [IndexKind; 6] = [
        IndexKind::Alt,
        IndexKind::Alex,
        IndexKind::Lipp,
        IndexKind::XIndex,
        IndexKind::Finedex,
        IndexKind::Art,
    ];

    /// The competitors `--indexes` selects (all six by default).
    pub fn selected(args: &crate::Args) -> impl Iterator<Item = IndexKind> + '_ {
        Self::COMPETITORS
            .into_iter()
            .filter(|kind| args.wants_index(kind.name()))
    }

    /// Display name (matches the paper's labels).
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Alt => "ALT-index",
            IndexKind::AltNoRetrain => "ALT-noRT",
            IndexKind::Art => "ART",
            IndexKind::Alex => "ALEX+",
            IndexKind::Lipp => "LIPP+",
            IndexKind::XIndex => "XIndex",
            IndexKind::Finedex => "FINEdex",
        }
    }

    /// Bulk-load with an explicit construction thread count (the
    /// `--build-threads` axis of the bulk_build experiment). `1` is the
    /// serial build path; indexes without a parallel builder (the
    /// baselines) fall back to it for any count.
    pub fn build_threaded(&self, pairs: &[(u64, u64)], threads: usize) -> Arc<dyn ConcurrentIndex> {
        match self {
            IndexKind::Alt => Arc::new(AltIndex::bulk_load_threaded(pairs, threads)),
            IndexKind::AltNoRetrain => Arc::new(AltIndex::bulk_load_with(
                pairs,
                AltConfig {
                    retrain: false,
                    build_threads: threads,
                    ..Default::default()
                },
            )),
            IndexKind::Art => Arc::new(Art::bulk_load_threaded(pairs, threads)),
            IndexKind::Alex => Arc::new(AlexLike::bulk_load_threaded(pairs, threads)),
            IndexKind::Lipp => Arc::new(LippLike::bulk_load_threaded(pairs, threads)),
            IndexKind::XIndex => Arc::new(XIndexLike::bulk_load_threaded(pairs, threads)),
            IndexKind::Finedex => Arc::new(FinedexLike::bulk_load_threaded(pairs, threads)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_answers() {
        let pairs: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 7, i)).collect();
        for kind in [
            IndexKind::Alt,
            IndexKind::AltNoRetrain,
            IndexKind::Art,
            IndexKind::Alex,
            IndexKind::Lipp,
            IndexKind::XIndex,
            IndexKind::Finedex,
        ] {
            let idx = kind.build_threaded(&pairs, 2);
            assert_eq!(idx.len(), pairs.len(), "{}", kind.name());
            for &(k, v) in pairs.iter().step_by(997) {
                assert_eq!(idx.get(k), Some(v), "{} key {k}", kind.name());
            }
            idx.insert(3, 33).unwrap();
            assert_eq!(idx.get(3), Some(33), "{}", kind.name());
            assert!(idx.memory_usage() > 0);
        }
    }
}
