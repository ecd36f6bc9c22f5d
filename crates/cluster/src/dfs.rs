//! The simulated distributed file system.
//!
//! Models the *placement* of data — files split into fixed-size blocks,
//! each replicated on several nodes — so the scheduler can reason about
//! locality. Block payloads are not materialized; the engines keep the
//! actual rows in host memory and only account their sizes here.
//!
//! Fault machinery: nodes can die ([`SimDfs::fail_node`]), individual
//! replicas can be dropped ([`SimDfs::drop_replicas`]), and the namenode
//! can restore the target replication factor on the survivors
//! ([`SimDfs::re_replicate`]). A block whose last replica is gone makes
//! reads fail with a typed [`Error::BlockUnavailable`] instead of a
//! panic or a fictitious success. All iteration is over [`BTreeMap`] /
//! [`BTreeSet`], so fault handling is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use smda_types::{Error, Result};

/// DFS parameters. The paper's HDFS used 64 MiB blocks and 3 replicas;
/// experiments run at reduced scale shrink the block size proportionally
/// so files still split into multiple blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Number of replicas per block.
    pub replication: usize,
    /// Number of datanodes.
    pub nodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_bytes: 64 * 1024 * 1024,
            replication: 3,
            nodes: 16,
        }
    }
}

/// One block: its size and the nodes holding replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsBlock {
    /// Bytes in this block.
    pub bytes: u64,
    /// Nodes holding a replica (first = primary).
    pub replicas: Vec<usize>,
}

/// One file: an ordered list of blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsFile {
    /// File name (unique within the DFS).
    pub name: String,
    /// Total size in bytes.
    pub bytes: u64,
    /// Whether readers may split the file at block boundaries. A
    /// non-splittable file (the paper's format 3 with a custom
    /// `isSplitable() == false` input format) is one split regardless of
    /// its size.
    pub splittable: bool,
    /// The file's blocks in order.
    pub blocks: Vec<DfsBlock>,
}

/// One input split handed to a map task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// File the split comes from.
    pub file: String,
    /// Index of the split within the file.
    pub index: usize,
    /// Bytes covered.
    pub bytes: u64,
    /// Nodes on which the split's data is local.
    pub hosts: Vec<usize>,
}

/// The simulated DFS namespace.
#[derive(Debug)]
pub struct SimDfs {
    config: DfsConfig,
    files: BTreeMap<String, DfsFile>,
    /// Nodes that have failed; they receive no new replicas.
    dead: BTreeSet<usize>,
    /// Deterministic placement cursor.
    cursor: usize,
}

impl SimDfs {
    /// An empty DFS on `config.nodes` datanodes.
    ///
    /// # Panics
    /// Panics if the config has zero nodes, zero block size, or zero
    /// replication.
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.nodes > 0, "DFS needs at least one node");
        assert!(config.block_bytes > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        SimDfs {
            config,
            files: BTreeMap::new(),
            dead: BTreeSet::new(),
            cursor: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Datanodes still alive, in ascending order.
    fn healthy_nodes(&self) -> Vec<usize> {
        (0..self.config.nodes)
            .filter(|n| !self.dead.contains(n))
            .collect()
    }

    /// Ingest a file of `bytes`, placing blocks round-robin over the
    /// healthy nodes with `replication` consecutive replicas. Returns
    /// the placement.
    pub fn ingest(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
        splittable: bool,
    ) -> Result<&DfsFile> {
        let name = name.into();
        if bytes == 0 {
            return Err(Error::Invalid(format!("DFS file `{name}` is empty")));
        }
        let healthy = self.healthy_nodes();
        if healthy.is_empty() {
            return Err(Error::NoHealthyNodes);
        }
        match self.files.entry(name) {
            std::collections::btree_map::Entry::Occupied(e) => Err(Error::Invalid(format!(
                "DFS file `{}` already exists",
                e.key()
            ))),
            std::collections::btree_map::Entry::Vacant(v) => {
                let replication = self.config.replication.min(healthy.len());
                let block_count = bytes.div_ceil(self.config.block_bytes);
                let mut blocks = Vec::with_capacity(block_count as usize);
                let mut remaining = bytes;
                for _ in 0..block_count {
                    let size = remaining.min(self.config.block_bytes);
                    remaining -= size;
                    let primary = self.cursor % healthy.len();
                    self.cursor += 1;
                    let replicas = (0..replication)
                        .map(|r| healthy[(primary + r) % healthy.len()])
                        .collect();
                    blocks.push(DfsBlock {
                        bytes: size,
                        replicas,
                    });
                }
                let name = v.key().clone();
                Ok(v.insert(DfsFile {
                    name,
                    bytes,
                    splittable,
                    blocks,
                }))
            }
        }
    }

    /// Fail a datanode: every replica it held disappears and it receives
    /// no future placements (failure injection). Returns the names of
    /// files that lost **all** replicas of some block — data loss the
    /// caller must surface.
    pub fn fail_node(&mut self, node: usize) -> Vec<String> {
        self.dead.insert(node);
        let mut lost = Vec::new();
        for (name, file) in self.files.iter_mut() {
            for block in &mut file.blocks {
                block.replicas.retain(|&r| r != node);
                if block.replicas.is_empty() && !lost.contains(name) {
                    lost.push(name.clone());
                }
            }
        }
        lost
    }

    /// Drop up to `count` individual block replicas, deterministically:
    /// files in name order, blocks in file order, always removing the
    /// *last* replica in a block's list, round-robin until blocks run
    /// dry. Returns the number of replicas actually dropped. A block may
    /// lose its final replica — subsequent reads surface
    /// [`Error::BlockUnavailable`].
    pub fn drop_replicas(&mut self, count: usize) -> usize {
        let mut dropped = 0;
        while dropped < count {
            let mut progressed = false;
            for file in self.files.values_mut() {
                for block in file.blocks.iter_mut() {
                    if dropped >= count {
                        return dropped;
                    }
                    if block.replicas.pop().is_some() {
                        dropped += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break; // every replica of every block is already gone
            }
        }
        dropped
    }

    /// Restore under-replicated blocks to the target replication factor
    /// (clamped to the number of healthy nodes), placing new replicas on
    /// healthy nodes that do not already hold the block. Blocks with no
    /// surviving replica cannot be recovered and are skipped. Returns the
    /// number of replicas created.
    pub fn re_replicate(&mut self) -> usize {
        let healthy = self.healthy_nodes();
        if healthy.is_empty() {
            return 0;
        }
        let target = self.config.replication.min(healthy.len());
        let mut created = 0;
        for file in self.files.values_mut() {
            for block in file.blocks.iter_mut() {
                if block.replicas.is_empty() {
                    continue; // data gone; nothing to copy from
                }
                while block.replicas.len() < target {
                    let slot = (0..healthy.len())
                        .map(|o| healthy[(self.cursor + o) % healthy.len()])
                        .find(|n| !block.replicas.contains(n));
                    match slot {
                        Some(node) => {
                            self.cursor += 1;
                            block.replicas.push(node);
                            created += 1;
                        }
                        None => break, // every healthy node already holds one
                    }
                }
            }
        }
        created
    }

    /// The input splits for a set of files, in deterministic order. A
    /// splittable file produces one split per block; a non-splittable
    /// file produces a single split local to its *first* block's hosts.
    ///
    /// A block with no surviving replica is unreadable: the job fails
    /// with [`Error::BlockUnavailable`] naming the file and block.
    pub fn splits(&self, names: &[String]) -> Result<Vec<InputSplit>> {
        let mut out = Vec::new();
        for name in names {
            let file = self
                .files
                .get(name)
                .ok_or_else(|| Error::Invalid(format!("DFS file `{name}` not found")))?;
            for (i, b) in file.blocks.iter().enumerate() {
                if b.replicas.is_empty() {
                    return Err(Error::BlockUnavailable {
                        file: name.clone(),
                        block: i,
                    });
                }
            }
            if file.splittable {
                for (i, b) in file.blocks.iter().enumerate() {
                    out.push(InputSplit {
                        file: name.clone(),
                        index: i,
                        bytes: b.bytes,
                        hosts: b.replicas.clone(),
                    });
                }
            } else {
                out.push(InputSplit {
                    file: name.clone(),
                    index: 0,
                    bytes: file.bytes,
                    hosts: file.blocks[0].replicas.clone(),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DfsConfig {
        DfsConfig {
            block_bytes: 1024,
            replication: 3,
            nodes: 4,
        }
    }

    #[test]
    fn splits_follow_block_boundaries() {
        let mut dfs = SimDfs::new(small());
        dfs.ingest("data", 2500, true).unwrap();
        let splits = dfs.splits(&["data".into()]).unwrap();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].bytes, 1024);
        assert_eq!(splits[2].bytes, 2500 - 2048);
        let total: u64 = splits.iter().map(|s| s.bytes).sum();
        assert_eq!(total, 2500);
    }

    #[test]
    fn non_splittable_file_is_one_split() {
        let mut dfs = SimDfs::new(small());
        dfs.ingest("whole", 5000, false).unwrap();
        let splits = dfs.splits(&["whole".into()]).unwrap();
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].bytes, 5000);
    }

    #[test]
    fn ingest_returns_the_placement_directly() {
        let mut dfs = SimDfs::new(small());
        let file = dfs.ingest("direct", 2500, true).unwrap();
        assert_eq!(file.name, "direct");
        assert_eq!(file.blocks.len(), 3);
    }

    #[test]
    fn replication_clamped_to_nodes() {
        let mut dfs = SimDfs::new(DfsConfig {
            block_bytes: 100,
            replication: 5,
            nodes: 2,
        });
        let file = dfs.ingest("f", 100, true).unwrap();
        assert_eq!(file.blocks[0].replicas.len(), 2);
    }

    #[test]
    fn placement_spreads_over_nodes() {
        let mut dfs = SimDfs::new(small());
        dfs.ingest("big", 8 * 1024, true).unwrap();
        let file = dfs.files.get("big").unwrap();
        let primaries: std::collections::HashSet<usize> =
            file.blocks.iter().map(|b| b.replicas[0]).collect();
        assert_eq!(primaries.len(), 4, "all 4 nodes should hold a primary");
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let mut dfs = SimDfs::new(small());
        dfs.ingest("r", 100, true).unwrap();
        let b = &dfs.files.get("r").unwrap().blocks[0];
        let unique: std::collections::HashSet<usize> = b.replicas.iter().copied().collect();
        assert_eq!(unique.len(), b.replicas.len());
    }

    #[test]
    fn duplicate_and_missing_files_error() {
        let mut dfs = SimDfs::new(small());
        dfs.ingest("x", 10, true).unwrap();
        assert!(dfs.ingest("x", 10, true).is_err());
        assert!(dfs.splits(&["y".into()]).is_err());
        assert!(dfs.ingest("empty", 0, true).is_err());
    }

    #[test]
    fn node_failure_degrades_replication_gracefully() {
        let mut dfs = SimDfs::new(small()); // replication 3 over 4 nodes
        dfs.ingest("data", 4 * 1024, true).unwrap();
        let lost = dfs.fail_node(0);
        assert!(
            lost.is_empty(),
            "3-way replication survives one failure: {lost:?}"
        );
        let splits = dfs.splits(&["data".into()]).unwrap();
        for s in &splits {
            assert!(!s.hosts.contains(&0), "failed node still listed: {s:?}");
            assert!(!s.hosts.is_empty());
        }
        assert_eq!(dfs.healthy_nodes(), vec![1, 2, 3]);
    }

    #[test]
    fn losing_every_replica_reports_data_loss() {
        let mut dfs = SimDfs::new(DfsConfig {
            block_bytes: 1024,
            replication: 1,
            nodes: 2,
        });
        dfs.ingest("fragile", 512, true).unwrap();
        // Single replica: failing its node loses the file.
        let holder = dfs.files.get("fragile").unwrap().blocks[0].replicas[0];
        let lost = dfs.fail_node(holder);
        assert_eq!(lost, vec!["fragile".to_string()]);
    }

    #[test]
    fn unreadable_block_is_a_typed_error() {
        let mut dfs = SimDfs::new(DfsConfig {
            block_bytes: 1024,
            replication: 1,
            nodes: 2,
        });
        dfs.ingest("fragile", 2048, true).unwrap();
        let holder = dfs.files.get("fragile").unwrap().blocks[0].replicas[0];
        dfs.fail_node(holder);
        match dfs.splits(&["fragile".into()]) {
            Err(Error::BlockUnavailable { file, block }) => {
                assert_eq!(file, "fragile");
                assert_eq!(block, 0);
            }
            other => panic!("expected BlockUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn drop_replicas_is_deterministic_and_bounded() {
        let mut a = SimDfs::new(small());
        let mut b = SimDfs::new(small());
        for dfs in [&mut a, &mut b] {
            dfs.ingest("d", 4 * 1024, true).unwrap();
        }
        assert_eq!(a.drop_replicas(5), 5);
        assert_eq!(b.drop_replicas(5), 5);
        assert_eq!(
            a.files.get("d").unwrap().blocks,
            b.files.get("d").unwrap().blocks
        );
        // 4 blocks × 3 replicas = 12 total; can never drop more.
        let mut c = SimDfs::new(small());
        c.ingest("d", 4 * 1024, true).unwrap();
        assert_eq!(c.drop_replicas(100), 12);
    }

    #[test]
    fn re_replication_restores_target_factor() {
        let mut dfs = SimDfs::new(small()); // replication 3 over 4 nodes
        dfs.ingest("data", 4 * 1024, true).unwrap();
        let dropped = dfs.drop_replicas(4);
        assert_eq!(dropped, 4);
        let created = dfs.re_replicate();
        assert_eq!(created, 4);
        for block in &dfs.files.get("data").unwrap().blocks {
            assert_eq!(block.replicas.len(), 3);
            let unique: std::collections::HashSet<usize> = block.replicas.iter().copied().collect();
            assert_eq!(
                unique.len(),
                3,
                "re-replication duplicated a node: {block:?}"
            );
        }
    }

    #[test]
    fn re_replication_skips_dead_nodes_and_lost_blocks() {
        let mut dfs = SimDfs::new(DfsConfig {
            block_bytes: 1024,
            replication: 2,
            nodes: 3,
        });
        dfs.ingest("d", 2048, true).unwrap();
        dfs.fail_node(0);
        dfs.re_replicate();
        for block in &dfs.files.get("d").unwrap().blocks {
            assert!(!block.replicas.contains(&0));
            assert_eq!(block.replicas.len(), 2);
        }
        // Lose everything: nothing left to copy from.
        let mut gone = SimDfs::new(DfsConfig {
            block_bytes: 1024,
            replication: 1,
            nodes: 2,
        });
        gone.ingest("g", 512, true).unwrap();
        gone.drop_replicas(1);
        assert_eq!(gone.re_replicate(), 0);
    }

    #[test]
    fn ingest_avoids_dead_nodes() {
        let mut dfs = SimDfs::new(small());
        dfs.fail_node(1);
        dfs.ingest("late", 8 * 1024, true).unwrap();
        for block in &dfs.files.get("late").unwrap().blocks {
            assert!(!block.replicas.contains(&1), "{block:?}");
            assert_eq!(block.replicas.len(), 3);
        }
    }

    #[test]
    fn all_nodes_dead_refuses_ingest() {
        let mut dfs = SimDfs::new(DfsConfig {
            block_bytes: 1024,
            replication: 1,
            nodes: 1,
        });
        dfs.fail_node(0);
        assert!(matches!(
            dfs.ingest("f", 10, true),
            Err(Error::NoHealthyNodes)
        ));
    }
}
