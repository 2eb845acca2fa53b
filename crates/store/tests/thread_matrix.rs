//! The headline determinism guarantee of two-pass parallel interning:
//! bulk loads at different `--threads` settings produce byte-identical
//! snapshots AND identical loader counters.
//!
//! `wdpt-obs` counters are process-global, so each load runs inside
//! [`wdpt_obs::delta_scope`], which serializes metric-sensitive sections
//! across threads and hands back exactly the registry delta the section
//! produced. That makes the counter comparison safe even with other tests
//! of this binary (or future ones) running concurrently — no own-process
//! isolation needed.

use std::io::Cursor;
use wdpt_gen::{write_synth_nt, SynthParams};
use wdpt_model::Interner;
use wdpt_obs::delta_scope;
use wdpt_store::{bulk_load, snapshot_to_vec_v2, LoadOptions};

#[test]
fn snapshots_and_counters_are_identical_across_thread_counts() {
    // Enough triples that every thread count actually exercises multiple
    // chunks per worker, with a universe small enough to force symbol reuse
    // (so local dictionaries overlap heavily across workers).
    let params = SynthParams {
        triples: 20_000,
        subjects: 700,
        preds: 16,
        objects: 300,
        seed: 0xBEEF,
        skew: 0,
    };
    let mut text = Vec::new();
    write_synth_nt(&mut text, params).unwrap();

    let watched = [
        "store.intern.appended",
        "store.bulk.lines",
        "store.bulk.tuples",
        "store.bulk.duplicates",
    ];
    let mut reference: Option<(Vec<u8>, Vec<u64>)> = None;
    for threads in [1usize, 2, 8] {
        let opts = LoadOptions {
            threads,
            chunk_lines: 512,
        };
        let ((db, report, bytes), delta) = delta_scope(|| {
            let mut interner = Interner::new();
            let (db, report) = bulk_load(&mut interner, &mut Cursor::new(&text), opts).unwrap();
            let bytes = snapshot_to_vec_v2(&interner, &db).unwrap();
            (db, report, bytes)
        });

        let counters: Vec<u64> = watched.iter().map(|n| delta.counter(n)).collect();
        assert_eq!(report.threads, threads);
        assert!(report.duplicates > 0, "universe too large to collide");
        assert_eq!(db.size() as u64, report.tuples);
        match &reference {
            None => reference = Some((bytes, counters)),
            Some((ref_bytes, ref_counters)) => {
                assert_eq!(
                    ref_bytes, &bytes,
                    "threads={threads} changed the snapshot bytes"
                );
                assert_eq!(
                    ref_counters, &counters,
                    "threads={threads} changed the loader counters {watched:?}"
                );
            }
        }
    }
}
