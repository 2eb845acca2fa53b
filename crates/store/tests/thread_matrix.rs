//! The headline determinism guarantee of two-pass parallel interning:
//! bulk loads at different `--threads` settings produce byte-identical
//! snapshots AND identical load reports.
//!
//! A load hands back its own [`wdpt_store::LoadReport`], so the comparison
//! holds with other tests of this binary running concurrently: nothing is
//! read from a process-wide registry.

use std::io::Cursor;
use wdpt_gen::{write_synth_nt, SynthParams};
use wdpt_model::Interner;
use wdpt_store::{bulk_load, snapshot_to_vec_v2, LoadOptions, LoadReport};

#[test]
fn snapshots_and_load_reports_are_identical_across_thread_counts() {
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

    // What a load did, whatever its thread count.
    let work = |r: &LoadReport| [r.lines, r.tuples, r.duplicates, r.symbols_appended];
    let mut reference: Option<(Vec<u8>, [u64; 4])> = None;
    for threads in [1usize, 2, 8] {
        let opts = LoadOptions {
            threads,
            chunk_lines: 512,
        };
        let mut interner = Interner::new();
        let (db, report) = bulk_load(&mut interner, &mut Cursor::new(&text), opts).unwrap();
        let bytes = snapshot_to_vec_v2(&interner, &db).unwrap();

        assert_eq!(report.threads, threads);
        assert!(report.duplicates > 0, "universe too large to collide");
        assert_eq!(db.size() as u64, report.tuples);
        assert_eq!(report.symbols_appended as usize, interner.len());
        match &reference {
            None => reference = Some((bytes, work(&report))),
            Some((ref_bytes, ref_work)) => {
                assert_eq!(
                    ref_bytes, &bytes,
                    "threads={threads} changed the snapshot bytes"
                );
                assert_eq!(
                    ref_work,
                    &work(&report),
                    "threads={threads} changed the load report's \
                     (lines, tuples, duplicates, symbols_appended)"
                );
            }
        }
    }
}
