//! Storage-path integration: a dataset survives every on-disk
//! representation in the workspace and the analytics agree afterwards.

use smda_core::tasks::run_reference;
use smda_core::{Task, TaskOutput};
use smda_integration::{fixture_dataset, TempDir};
use smda_storage::layout::{dataset_from_layout, ArrayTable, DayTable, ReadingTable};
use smda_storage::{ColumnStore, FileLayout, FileStore};
use smda_types::{
    ConsumerSeries, DataFormat, Dataset, FormatReader, FormatWriter, TemperatureSeries,
};

fn histogram_counts(ds: &Dataset) -> Vec<Vec<u64>> {
    match run_reference(Task::Histogram, ds) {
        TaskOutput::Histograms(hs) => hs.into_iter().map(|h| h.histogram.counts).collect(),
        _ => unreachable!(),
    }
}

#[test]
fn every_storage_representation_preserves_analytics() {
    let ds = fixture_dataset(3);
    let reference = histogram_counts(&ds);
    let dir = TempDir::new("storage-paths");

    // Relational layouts.
    let mut l1 = ReadingTable::create(dir.path("l1.tbl"), &ds).unwrap();
    let mut l2 = ArrayTable::create(dir.path("l2.tbl"), &ds).unwrap();
    let mut l3 = DayTable::create(dir.path("l3.tbl"), &ds).unwrap();
    for layout in [
        &mut l1 as &mut dyn smda_storage::TableLayout,
        &mut l2 as &mut dyn smda_storage::TableLayout,
        &mut l3 as &mut dyn smda_storage::TableLayout,
    ] {
        let back = dataset_from_layout(layout).unwrap();
        assert_eq!(
            histogram_counts(&back),
            reference,
            "{}",
            layout.layout_name()
        );
    }

    // Column store.
    let mut col = ColumnStore::create(dir.path("col"), &ds).unwrap();
    let temps = TemperatureSeries::new(col.temperature().unwrap().to_vec()).unwrap();
    let consumers = (0..col.len())
        .map(|i| {
            let id = col.consumer_ids()[i];
            ConsumerSeries::new(id, col.readings(i).unwrap()).unwrap()
        })
        .collect();
    let back = Dataset::new(consumers, temps).unwrap();
    assert_eq!(histogram_counts(&back), reference, "column store");

    // File stores (CSV quantizes to 4 decimals: bucket counts can shift
    // by at most a rounding epsilon at bucket edges; compare totals and
    // spot-check counts).
    for layout in [FileLayout::Partitioned, FileLayout::Unpartitioned] {
        let sub = dir.path(&format!("files-{}", layout.label().replace('.', "")));
        let store = FileStore::create(&sub, &ds, layout).unwrap();
        let back = store.read_all().unwrap();
        let counts = histogram_counts(&back);
        for (a, b) in counts.iter().zip(&reference) {
            let total_a: u64 = a.iter().sum();
            let total_b: u64 = b.iter().sum();
            assert_eq!(total_a, total_b, "{layout:?}");
        }
    }

    // Text formats.
    for format in [
        DataFormat::ReadingPerLine,
        DataFormat::ConsumerPerLine,
        DataFormat::ManyFiles { files: 2 },
    ] {
        let sub = dir.path(&format!("fmt-{}", format.label()));
        FormatWriter::new(&sub).unwrap().write(&ds, format).unwrap();
        let back = FormatReader::new(&sub).read(format).unwrap();
        let counts = histogram_counts(&back);
        for (a, b) in counts.iter().zip(&reference) {
            assert_eq!(a.iter().sum::<u64>(), b.iter().sum::<u64>(), "{format:?}");
        }
    }
}

#[test]
fn column_store_and_heap_agree_on_extraction() {
    let ds = fixture_dataset(4);
    let dir = TempDir::new("extract");
    let mut heap = ReadingTable::create(dir.path("heap.tbl"), &ds).unwrap();
    let mut col = ColumnStore::create(dir.path("col"), &ds).unwrap();
    use smda_storage::TableLayout;
    for (i, c) in ds.consumers().iter().enumerate() {
        let (heap_kwh, heap_temps) = heap.consumer_year(c.id).unwrap();
        let col_kwh = col.readings(i).unwrap();
        assert_eq!(heap_kwh, col_kwh, "{}", c.id);
        assert_eq!(heap_temps, ds.temperature().values(), "{}", c.id);
    }
}
