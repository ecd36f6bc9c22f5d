//! An in-memory B+tree index from scratch.
//!
//! Maps `u64` keys (household ids) to posting lists of packed
//! [`crate::heap::TupleId`]s — the "B-tree index ... built on the
//! household ID to speed up the extraction of all the data for a given
//! consumer" of Section 5.3.3. Leaves are chained for range scans.

/// Maximum keys per node before it splits.
const ORDER: usize = 64;

#[derive(Debug)]
enum Node {
    Internal {
        /// Separator keys; child `i` holds keys `< keys[i]`, the last
        /// child holds the rest.
        keys: Vec<u64>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u64>,
        postings: Vec<Vec<u64>>,
        next: Option<usize>,
    },
}

/// A B+tree mapping `u64` keys to posting lists of `u64` values.
#[derive(Debug)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: usize,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of inserting into a subtree: a split produces a new right
/// sibling and its separator key.
enum InsertResult {
    Done,
    Split { sep: u64, right: usize },
}

impl BTreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        BTreeIndex {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
        }
    }

    /// Insert a value under `key` (appends to the key's posting list).
    pub fn insert(&mut self, key: u64, value: u64) {
        if let InsertResult::Split { sep, right } = self.insert_into(self.root, key, value) {
            let old_root = self.root;
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = self.nodes.len() - 1;
        }
    }

    fn insert_into(&mut self, node: usize, key: u64, value: u64) -> InsertResult {
        match &mut self.nodes[node] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    postings[i].push(value);
                    InsertResult::Done
                }
                Err(i) => {
                    keys.insert(i, key);
                    postings.insert(i, vec![value]);
                    if keys.len() > ORDER {
                        self.split_leaf(node)
                    } else {
                        InsertResult::Done
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = children[idx];
                match self.insert_into(child, key, value) {
                    InsertResult::Done => InsertResult::Done,
                    InsertResult::Split { sep, right } => {
                        let Node::Internal { keys, children } = &mut self.nodes[node] else {
                            unreachable!("node type cannot change during insert")
                        };
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > ORDER {
                            self.split_internal(node)
                        } else {
                            InsertResult::Done
                        }
                    }
                }
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> InsertResult {
        let new_index = self.nodes.len();
        let Node::Leaf {
            keys,
            postings,
            next,
        } = &mut self.nodes[node]
        else {
            unreachable!("split_leaf called on a leaf")
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_postings = postings.split_off(mid);
        let sep = right_keys[0];
        let right_next = *next;
        *next = Some(new_index);
        self.nodes.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
            next: right_next,
        });
        InsertResult::Split {
            sep,
            right: new_index,
        }
    }

    fn split_internal(&mut self, node: usize) -> InsertResult {
        let new_index = self.nodes.len();
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!("split_internal called on an internal node")
        };
        let mid = keys.len() / 2;
        // The middle key moves up; right node takes keys after it.
        let sep = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop();
        let right_children = children.split_off(mid + 1);
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        InsertResult::Split {
            sep,
            right: new_index,
        }
    }

    fn find_leaf(&self, key: u64) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    node = children[keys.partition_point(|k| *k <= key)];
                }
            }
        }
    }

    /// The posting list for `key`, empty when absent.
    pub fn get(&self, key: u64) -> &[u64] {
        match &self.nodes[self.find_leaf(key)] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search(&key) {
                Ok(i) => &postings[i],
                Err(_) => &[],
            },
            Node::Internal { .. } => unreachable!("find_leaf returns a leaf"),
        }
    }

    /// All (key, posting-list) pairs with `lo <= key <= hi`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, &[u64])> {
        let mut out = Vec::new();
        let mut node = Some(self.find_leaf(lo));
        while let Some(n) = node {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.nodes[n]
            else {
                unreachable!("leaf chain only contains leaves")
            };
            for (i, k) in keys.iter().enumerate() {
                if *k > hi {
                    return out;
                }
                if *k >= lo {
                    out.push((*k, postings[i].as_slice()));
                }
            }
            node = *next;
        }
        out
    }

    /// All keys in ascending order.
    pub fn keys(&self) -> Vec<u64> {
        self.range(0, u64::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Height of the tree (1 = just a leaf).
    fn height(idx: &BTreeIndex) -> usize {
        let mut h = 1;
        let mut node = idx.root;
        loop {
            match &idx.nodes[node] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut idx = BTreeIndex::new();
        idx.insert(5, 50);
        idx.insert(3, 30);
        idx.insert(5, 51);
        assert_eq!(idx.get(5), &[50, 51]);
        assert_eq!(idx.get(3), &[30]);
        assert!(idx.get(99).is_empty());
    }

    #[test]
    fn splits_maintain_order_and_reachability() {
        let mut idx = BTreeIndex::new();
        // Insert enough distinct keys to force several levels.
        let n = 10_000u64;
        for i in 0..n {
            // Scatter insertion order.
            let key = (i * 7919) % n;
            idx.insert(key, key * 10);
        }
        assert!(height(&idx) >= 2, "height {}", height(&idx));
        for key in 0..n {
            assert_eq!(idx.get(key), &[key * 10], "key {key}");
        }
        let keys = idx.keys();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let mut idx = BTreeIndex::new();
        for k in (0..100).step_by(2) {
            idx.insert(k, k);
        }
        let hits = idx.range(10, 20);
        let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        assert!(idx.range(101, 200).is_empty());
        assert_eq!(idx.range(0, 0).len(), 1);
    }

    #[test]
    fn duplicate_heavy_workload() {
        // Few keys, many postings — the household-id shape (8760 readings
        // per household).
        let mut idx = BTreeIndex::new();
        for household in 0..10u64 {
            for reading in 0..500u64 {
                idx.insert(household, household * 1000 + reading);
            }
        }
        for household in 0..10u64 {
            let postings = idx.get(household);
            assert_eq!(postings.len(), 500);
            assert_eq!(postings[0], household * 1000);
        }
    }

    #[test]
    fn empty_index() {
        let idx = BTreeIndex::new();
        assert!(idx.get(0).is_empty());
        assert!(idx.range(0, u64::MAX).is_empty());
        assert_eq!(height(&idx), 1);
    }

    #[test]
    fn sequential_and_reverse_insertion_agree() {
        let mut fwd = BTreeIndex::new();
        let mut rev = BTreeIndex::new();
        for k in 0..1000 {
            fwd.insert(k, k);
        }
        for k in (0..1000).rev() {
            rev.insert(k, k);
        }
        assert_eq!(fwd.keys(), rev.keys());
    }
}
