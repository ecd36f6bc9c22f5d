//! What the Hive and Spark twins share below their planners: the
//! simulated DFS and the text table rendered into it.

use smda_obs::{counters, MetricsSink};
use smda_types::{DataFormat, Dataset, Error, Result};

use crate::dfs::{DfsConfig, SimDfs};
use crate::faults::FaultPlan;
use crate::textdata::TextTable;

/// One twin's loaded input. The engines keep their planners and result
/// types; loading and fault application at load time live here, once.
#[derive(Debug)]
pub struct TwinShell {
    dfs: SimDfs,
    table: Option<TextTable>,
}

impl TwinShell {
    /// An empty shell over a DFS of `nodes` nodes with `block_bytes`-sized
    /// blocks, three replicas each.
    pub fn new(nodes: usize, block_bytes: u64) -> Self {
        TwinShell {
            dfs: SimDfs::new(DfsConfig {
                block_bytes,
                replication: 3,
                nodes,
            }),
            table: None,
        }
    }

    /// Render `ds` in `format` and register it in a fresh DFS placement.
    /// `faults`' replica losses are applied to that placement and their
    /// counters flow into `metrics`.
    ///
    /// # Errors
    /// [`Error::BlockUnavailable`] if a block lost every replica and
    /// re-replication could not bring it back.
    pub fn load(
        &mut self,
        ds: &Dataset,
        format: DataFormat,
        faults: Option<&FaultPlan>,
        metrics: &MetricsSink,
    ) -> Result<()> {
        // Replace: drop old placement for determinism.
        self.dfs = SimDfs::new(self.dfs.config());
        let mut table = TextTable::build("meter_data", ds, format, &mut self.dfs)?;
        if let Some(plan) = faults.filter(|plan| plan.replica_losses > 0) {
            let lost = self.dfs.drop_replicas(plan.replica_losses);
            if lost > 0 {
                metrics.incr(counters::FAULTS_INJECTED_REPLICA_LOSS, lost as u64);
            }
            if plan.re_replicate {
                let restored = self.dfs.re_replicate();
                if restored > 0 {
                    metrics.incr(counters::FAULTS_RECOVERED_REPLICA_LOSS, restored as u64);
                }
            }
            table.refresh_hosts(&self.dfs)?;
        }
        self.table = Some(table);
        Ok(())
    }

    /// The loaded table.
    ///
    /// # Errors
    /// [`Error::Invalid`] before the first successful load.
    pub fn table(&self) -> Result<&TextTable> {
        self.table.as_ref().ok_or_else(not_loaded)
    }

    /// The loaded table, open to edits — how tests plant a damaged line.
    ///
    /// # Errors
    /// As [`TwinShell::table`].
    pub fn table_mut(&mut self) -> Result<&mut TextTable> {
        self.table.as_mut().ok_or_else(not_loaded)
    }
}

fn not_loaded() -> Error {
    Error::Invalid("no table loaded".into())
}
