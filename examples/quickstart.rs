//! Quickstart: generate data, run all four benchmark tasks, print a
//! summary. Run with `cargo run --release -p smda-examples --bin quickstart`.

use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_examples::demo_dataset;

fn main() {
    // 1. Synthesize a small, realistic dataset (20 households × 8760
    //    hourly readings plus shared weather).
    let ds = demo_dataset(20);
    let stats = ds.stats();
    println!(
        "dataset: {} consumers, {} readings, mean annual {:.0} kWh\n",
        stats.consumers, stats.readings, stats.mean_annual_kwh
    );

    // 2. Run each benchmark task via the reference implementation.
    for task in Task::ALL {
        let start = std::time::Instant::now();
        let output = run_reference(task, &ds);
        println!("{task}: {} results in {:?}", output.len(), start.elapsed());
        match &output {
            TaskOutput::Histograms(hs) => {
                let h = &hs[0];
                println!(
                    "  e.g. {} spends {:.0}% of the year in its modal consumption bucket",
                    h.consumer,
                    h.modal_fraction() * 100.0
                );
            }
            TaskOutput::ThreeLine(models) => {
                let m = &models[0];
                println!(
                    "  e.g. {}: heating {:.3} kWh/°C, cooling {:.3} kWh/°C, base {:.2} kWh",
                    m.consumer,
                    m.heating_gradient(),
                    m.cooling_gradient(),
                    m.base_load()
                );
            }
            TaskOutput::Par(models) => {
                let m = &models[0];
                println!("  e.g. {} peaks at {}:00", m.consumer, m.peak_hour());
            }
            TaskOutput::Similarity(matches) => {
                let m = &matches[0];
                let (best, score) = m.matches[0];
                println!(
                    "  e.g. {} is most similar to {best} (cosine {score:.4})",
                    m.consumer
                );
            }
        }
    }
}
