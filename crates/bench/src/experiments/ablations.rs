//! Ablations of three design choices DESIGN.md calls out, one table:
//!
//! * **pool-capacity** — the relational row layout extracts every
//!   consumer twice (a cold pass, then a warm one) through a clock
//!   buffer pool of 16 … 4096 frames; `value` is the pool's page faults.
//!   A pool smaller than the table faults every page on both passes.
//! * **locality** — the virtual scheduler runs the same 64 map tasks
//!   with each block local to one worker, then with no local replica;
//!   `value` is the phase's virtual makespan.
//! * **knot-search** — the 3-line breakpoint search under
//!   `min_segment_points` ∈ {2, 3, 6, 12}; `value` is the high curve's
//!   free-fit SSE (a wider minimum can only narrow the search).
//!
//! The inputs are fixed small sets — these compare settings against each
//! other, not against the paper's sizes — so the scale is not consulted.

use std::time::{Duration, Instant};

use smda_cluster::{ClusterTopology, CostModel, SimTask, VirtualScheduler};
use smda_core::three_line::{fit_three_line_baseline, ThreeLineConfig};
use smda_storage::{BufferPool, HeapFile, ReadingTable, TupleId};

use crate::data::{seed_dataset, Scratch};
use crate::report::Table;
use crate::scale::Scale;

/// Buffer-pool capacities swept, in pages.
pub const POOL_PAGES: [usize; 4] = [16, 64, 384, 4096];

/// `min_segment_points` settings swept.
pub const MIN_SEGMENT_POINTS: [usize; 4] = [2, 3, 6, 12];

fn push(
    t: &mut Table,
    ablation: &str,
    setting: String,
    elapsed: Duration,
    metric: &str,
    v: String,
) {
    t.row(vec![
        ablation.into(),
        setting,
        format!("{:.3}", elapsed.as_secs_f64() * 1e3),
        metric.into(),
        v,
    ]);
}

fn pool_capacity(t: &mut Table) {
    let ds = seed_dataset(8);
    let scratch = Scratch::new("abl-pool");
    let path = scratch.path("t.tbl");
    let index = ReadingTable::create(&path, &ds)
        .expect("table loads")
        .index();
    for pages in POOL_PAGES {
        let mut heap = HeapFile::open(&path).expect("heap file reopens");
        let mut pool = BufferPool::new(pages);
        let start = Instant::now();
        for _pass in 0..2 {
            for key in index.keys() {
                for raw in index.get(key) {
                    let tid = TupleId::unpack(*raw);
                    let page = pool.get(&mut heap, tid.page).expect("page reads");
                    assert!(page.get(tid.slot as usize).is_some(), "dangling {tid:?}");
                }
            }
        }
        push(
            t,
            "pool-capacity",
            format!("pages={pages}"),
            start.elapsed(),
            "page_faults",
            pool.stats().misses.to_string(),
        );
    }
}

fn locality(t: &mut Table) {
    let topo = ClusterTopology {
        workers: 8,
        slots_per_worker: 2,
        cost: CostModel::default(),
    };
    let task = |locality: usize| SimTask {
        input_bytes: 64 * 1024 * 1024,
        locality: vec![locality],
        compute: Duration::from_millis(200),
        output_bytes: 0,
        shuffle_bytes: 0,
    };
    let placements: [(&str, Vec<SimTask>); 2] = [
        ("local-placement", (0..64).map(|i| task(i % 8)).collect()),
        ("all-remote", (0..64).map(|_| task(usize::MAX)).collect()),
    ];
    for (setting, tasks) in placements {
        let start = Instant::now();
        let end = VirtualScheduler::new(topo)
            .run_phase(&tasks, Duration::ZERO)
            .end;
        push(
            t,
            "locality",
            setting.into(),
            start.elapsed(),
            "virtual_makespan_ms",
            format!("{:.3}", end.as_secs_f64() * 1e3),
        );
    }
}

fn knot_search(t: &mut Table) {
    let ds = seed_dataset(4);
    let series = &ds.consumers()[0];
    for min_segment_points in MIN_SEGMENT_POINTS {
        let config = ThreeLineConfig {
            min_segment_points,
            // Keep the free fit: T3 would replace its SSE with the hinge
            // model's, which the knot search does not minimise.
            continuity_tolerance: f64::INFINITY,
            ..Default::default()
        };
        let start = Instant::now();
        // The kernel fixes the paper's configuration; the baseline is the
        // fit that takes one, and the T2 search under it is the same code.
        let model = fit_three_line_baseline(series, ds.temperature(), &config)
            .expect("a seeded year yields percentile points");
        push(
            t,
            "knot-search",
            format!("min_segment_points={min_segment_points}"),
            start.elapsed(),
            "high_free_sse",
            format!("{:.6}", model.high.sse),
        );
    }
}

/// Run the three ablations into one table.
pub fn run(_scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "ablations",
        "Design ablations: buffer-pool capacity, DFS locality, 3-line minimum segment width",
        &["ablation", "setting", "time_ms", "metric", "value"],
    );
    pool_capacity(&mut t);
    locality(&mut t);
    knot_search(&mut t);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "full-sweep shape test; run with --release")]
    #[test]
    fn settings_order_the_way_the_design_says() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let values = |ablation: &str| -> Vec<f64> {
            tables[0]
                .rows
                .iter()
                .filter(|r| r[0] == ablation)
                .map(|r| r[4].parse().unwrap())
                .collect()
        };

        // Faults never rise with capacity, and a pool that holds the
        // table faults each page once where the smallest faults it twice.
        let faults = values("pool-capacity");
        assert_eq!(faults.len(), POOL_PAGES.len());
        assert!(faults.windows(2).all(|w| w[1] <= w[0]), "{faults:?}");
        assert_eq!(faults[0], 2.0 * faults[3], "{faults:?}");

        let makespan = values("locality");
        assert!(makespan[0] < makespan[1], "local {makespan:?} all-remote");

        // Every setting fits a model, and narrowing the search by a
        // wider minimum never finds a smaller SSE.
        let sse = values("knot-search");
        assert_eq!(sse.len(), MIN_SEGMENT_POINTS.len());
        assert!(sse.windows(2).all(|w| w[0] <= w[1]), "{sse:?}");
    }
}
