//! Counted work of the streamed all-pairs walk, no clock: over the seed
//! generator's years, out of core, the walk skips most pairs and the
//! band pairs that cannot enter any top k, so it loads fewer bands than
//! its sketch pass and a walk that prunes nothing, and the packed file's
//! decode cache, holding 5 of its 8 row groups, does not thrash. The
//! answer stays `top_k_matrix`'s bit for bit.
//!
//! The format counters are process-wide, so this file holds one test:
//! it is the only one its process runs.

use smda_core::generator::{generate_seed, SeedConfig};
use smda_core::SIMILARITY_TOP_K;
use smda_engines::parallel::top_k_matrix;
use smda_engines::{top_k_source_with, SmcSource};
use smda_format::metrics::snapshot;
use smda_integration::TempDir;
use smda_obs::MetricsSink;
use smda_stats::SeriesMatrixBuilder;
use smda_storage::{BinaryEncoding, BinaryStore};
use smda_types::{BitEq, HOURS_PER_YEAR};

const ROWS: usize = 192;
const BAND_ROWS: usize = 24;

#[test]
fn the_streamed_walk_skips_pairs_and_band_loads_and_the_packed_cache_does_not_thrash() {
    let ds = generate_seed(&SeedConfig {
        consumers: ROWS,
        seed: 7,
        ..Default::default()
    })
    .expect("generator years");
    let builder = SeriesMatrixBuilder::new(ROWS, HOURS_PER_YEAR);
    for (i, c) in ds.consumers().iter().enumerate() {
        builder.set_row_normalized(i, c.readings());
    }
    let sink = MetricsSink::disabled();
    let (want, _) = top_k_matrix(&builder.finish(), SIMILARITY_TOP_K, 1, &sink);

    let pairs = (ROWS * (ROWS - 1) / 2) as u64;
    let bands = ROWS / BAND_ROWS;
    // The sketch pass, and a walk that skips no band pair.
    let unpruned = (bands + bands * (bands - 1) / 2 + 1) as u64;
    // Five of the eight row groups, and a row short of a sixth.
    let cache_bytes = (5 * BAND_ROWS + 1) * HOURS_PER_YEAR * 8;
    let dir = TempDir::new("oooc-work");
    for encoding in [BinaryEncoding::Raw, BinaryEncoding::Packed] {
        let path = dir.path(&format!("{encoding:?}.smc"));
        let store = BinaryStore::create(&path, &ds, encoding).expect("store");
        let source = SmcSource::over(&store, BAND_ROWS, cache_bytes);
        let before = snapshot();
        let (got, stats) = top_k_source_with(&source, None, SIMILARITY_TOP_K, BAND_ROWS, 1, &sink)
            .expect("streamed walk");
        let counted = snapshot().since(&before);
        assert!(got.bits_eq(&want), "{encoding:?}: not top_k_matrix's bits");
        let scored = stats.kernel.pairs_scored;
        assert!(
            scored * 2 < pairs,
            "{encoding:?}: {scored} of {pairs} pairs"
        );
        assert!(
            stats.bands_loaded < unpruned,
            "{encoding:?}: {} band loads (a walk that skips no band pair: {unpruned})",
            stats.bands_loaded
        );
        if !source.is_mapped() {
            // Every row is decoded once by the sketch pass; a chain band's
            // rows of the groups the cache does not hold are decoded alone
            // as it loads. Admitting their groups instead would decode
            // about eight groups a band.
            assert!(
                counted.blocks_decoded <= 2 * ROWS as u64,
                "{encoding:?}: {} blocks decoded for {ROWS} rows",
                counted.blocks_decoded
            );
        }
    }
}
