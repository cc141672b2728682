//! Admission credits under the default serving config (DESIGN.md §17):
//! `ServeConfig::default()` takes credits a ring at a time, so every
//! request here goes through the per-stripe spare and its grants. On two
//! runtime workers, 64 connections each await a few thousand gets over an
//! `AltIndex`, present keys and absent ones; every answer must match the
//! bulk-loaded pairs, nothing may be shed, and at rest no request may
//! hold a credit while every stripe keeps less than one grant spare.

use alt_index::AltIndex;
use index_api::{BulkLoad, ConcurrentIndex};
use region::{BatchServer, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;

const KEYS: u64 = 100_000;
const CONNECTIONS: u64 = 64;
const GETS: u64 = 3_000;

#[test]
fn credits_serve_every_get_and_come_back_at_rest() {
    // Even keys are present, odd keys are absent.
    let pairs: Vec<(u64, u64)> = (1..=KEYS).map(|i| (i * 2, i ^ 0x5a5a)).collect();
    let want: HashMap<u64, u64> = pairs.iter().copied().collect();
    let index: Arc<dyn ConcurrentIndex> = Arc::new(AltIndex::bulk_load(&pairs));
    let srv = Arc::new(BatchServer::new(index, ServeConfig::default()));
    assert!(
        srv.credits().chunk > 1,
        "the default config takes credits in chunks"
    );
    let want = Arc::new(want);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .build()
        .unwrap();
    let connections: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let (srv, want) = (Arc::clone(&srv), Arc::clone(&want));
            rt.spawn(async move {
                for i in 0..GETS {
                    // A stride co-prime with the key space walks it all.
                    let key = (c * GETS + i) * 7_919 % (2 * KEYS) + 1;
                    let got = srv.get(key).await.expect("served, not shed");
                    assert_eq!(got, want.get(&key).copied(), "key {key}");
                }
            })
        })
        .collect();
    rt.block_on(async {
        for c in connections {
            c.await.expect("every answer matched");
        }
    });
    drop(rt);
    let st = srv.stats();
    assert_eq!(st.shed, 0);
    assert_eq!(
        (st.served, st.batched_keys),
        (CONNECTIONS * GETS, CONNECTIONS * GETS)
    );
    let c = srv.credits();
    assert_eq!(c.unanswered(), 0, "a request kept its credit: {c:?}");
    assert!(c.spare.iter().all(|&s| s < c.chunk), "{c:?}");
}
