//! Utility-side segmentation: the paper's producer-oriented application
//! (Sections 2.1 and 3.4). Extract temperature-independent daily
//! profiles with PAR, cluster them with k-means to find customer
//! segments, and use similarity search to pick exemplar "ambassador"
//! households per segment for a targeted engagement campaign. Run with
//! `cargo run --release -p smda-examples --bin utility_segmentation`.

use smda_core::tasks::run_reference;
use smda_core::{similarity_search, Task, TaskOutput};
use smda_examples::{demo_dataset, sparkline};
use smda_stats::{KMeans, KMeansConfig};

fn main() {
    let ds = demo_dataset(30);

    // 1. Daily activity profiles, one 24-vector per household.
    let TaskOutput::Par(models) = run_reference(Task::Par, &ds) else {
        unreachable!("PAR yields PAR models");
    };
    let profiles: Vec<Vec<f64>> = models.iter().map(|m| m.profile.to_vec()).collect();

    // 2. Segment into k clusters.
    let k = 4;
    let km = KMeans::fit(
        &profiles,
        KMeansConfig {
            k,
            seed: 7,
            ..Default::default()
        },
    )
    .expect("profiles are uniform 24-vectors");
    println!(
        "segmented {} households into {} clusters (inertia {:.2})\n",
        ds.len(),
        km.k(),
        km.inertia
    );

    // 3. Describe each segment and pick an exemplar via similarity.
    let similar = similarity_search(&ds, 5);
    for c in 0..km.k() {
        let members = km.members(c);
        if members.is_empty() {
            continue;
        }
        println!(
            "segment {c}: {} households — centroid {}",
            members.len(),
            sparkline(&km.centroids[c])
        );
        // Exemplar: the member whose top-5 matches stay inside the
        // segment the most — the most "central" habits.
        let exemplar = members
            .iter()
            .max_by_key(|&&m| {
                similar[m]
                    .matches
                    .iter()
                    .filter(|(id, _)| {
                        ds.consumers()
                            .iter()
                            .position(|cs| cs.id == *id)
                            .is_some_and(|idx| km.assignments[idx] == c)
                    })
                    .count()
            })
            .copied()
            .expect("segment is non-empty");
        println!(
            "  exemplar household: {} (peak hour {}:00)",
            models[exemplar].consumer,
            models[exemplar].peak_hour()
        );
    }
}
