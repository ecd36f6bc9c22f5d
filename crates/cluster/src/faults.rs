//! Deterministic fault injection for the cluster layer.
//!
//! A [`FaultPlan`] is a *seeded, reproducible* schedule of failures:
//! node crashes at fixed virtual times, slow-node (straggler) factors,
//! block-replica losses applied at load, and per-attempt task failures
//! drawn from a counter-based hash of `(seed, phase, task, attempt)`.
//! Because every decision is a pure function of the plan, two runs with
//! the same plan inject byte-identical fault sequences — the property the
//! determinism tests pin down.
//!
//! The plan only *describes* faults. The machinery that injects and
//! recovers from them lives in [`crate::scheduler::VirtualScheduler`]
//! (retry, rescheduling, speculation), [`crate::dfs::SimDfs`] (replica
//! loss and re-replication) and `smda_engines::WorkerPool::run_contained`
//! (panic containment and retry, spending [`FaultPlan::max_attempts`]).

use std::time::Duration;

use smda_types::{Error, Result};

/// A node crash at a fixed point in virtual time. The node stays dead
/// for the rest of the job; tasks running on it at `at` are killed and
/// rescheduled onto survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: usize,
    /// Virtual time of death, measured from job start.
    pub at: Duration,
}

/// A persistent straggler: every task placed on `node` takes `factor`
/// times longer (models a failing disk, a noisy neighbor, thermal
/// throttling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowNode {
    /// The degraded node.
    pub node: usize,
    /// Slowdown multiplier (must be ≥ 1).
    pub factor: f64,
}

/// A seeded, reproducible schedule of faults to inject into a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-attempt task-failure draw.
    pub seed: u64,
    /// Probability that any single task attempt fails (0 disables).
    pub task_failure_rate: f64,
    /// Retry budget per task, counting the first attempt. Exhaustion
    /// surfaces as [`Error::TaskFailed`].
    pub max_attempts: usize,
    /// Scheduled node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Persistent slow nodes.
    pub slow_nodes: Vec<SlowNode>,
    /// Number of block replicas to drop at load time.
    pub replica_losses: usize,
    /// Whether the DFS re-replicates under-replicated blocks after the
    /// losses are applied.
    pub re_replicate: bool,
    /// Speculative-execution threshold: a task whose projected finish
    /// exceeds `threshold × median finish` of its phase gets a backup
    /// copy on a different node (0 disables speculation).
    pub speculation_threshold: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            task_failure_rate: 0.0,
            max_attempts: 4,
            crashes: Vec::new(),
            slow_nodes: Vec::new(),
            replica_losses: 0,
            re_replicate: false,
            speculation_threshold: 0.0,
        }
    }
}

/// SplitMix64 — a tiny, high-quality mixer; the standard way to expand
/// a seed into independent streams without carrying RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with only a seed set; configure the rest via the fields.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether this plan injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.task_failure_rate <= 0.0
            && self.crashes.is_empty()
            && self.slow_nodes.is_empty()
            && self.replica_losses == 0
            && self.speculation_threshold <= 0.0
    }

    /// Deterministic failure draw for one task attempt. A pure function
    /// of `(seed, phase, task, attempt)`: the same plan replayed against
    /// the same job fails exactly the same attempts.
    pub fn attempt_fails(&self, phase: u64, task: u64, attempt: u64) -> bool {
        if self.task_failure_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(phase ^ splitmix64(task ^ splitmix64(attempt ^ 0xFA17))),
        );
        // 53 uniform mantissa bits → [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.task_failure_rate
    }

    /// The slowdown factor for `node` (1.0 when the node is healthy).
    pub fn slow_factor(&self, node: usize) -> f64 {
        self.slow_nodes
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.factor.max(1.0))
            .product::<f64>()
            .max(1.0)
    }

    /// Parse a compact fault spec, as accepted by the `--faults` CLI
    /// flag. Comma-separated `key=value` terms:
    ///
    /// - `seed=N` — failure-draw seed
    /// - `task_fail=P` — per-attempt failure probability in `[0, 1)`
    /// - `retries=N` — retry budget per task (≥ 1)
    /// - `crash=NODE@SECS` — crash `NODE` at `SECS` of virtual time
    ///   (repeatable)
    /// - `slow=NODExFACTOR` — straggler factor for `NODE` (repeatable)
    /// - `lose=N` — drop `N` block replicas at load
    /// - `rereplicate` — re-replicate under-replicated blocks after loss
    /// - `speculate=T` — speculative-execution threshold (> 1)
    ///
    /// Example: `seed=7,task_fail=0.1,crash=2@0.5,slow=1x4,lose=3,rereplicate`
    ///
    /// A malformed term is rejected with [`Error::FaultSpec`], which
    /// carries the term verbatim, its byte offset within the spec, and
    /// the reason — so `--faults` diagnostics can point at the exact
    /// position instead of echoing a generic message.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut plan = FaultPlan::default();
        let mut cursor = 0usize;
        for raw in spec.split(',') {
            let term = raw.trim();
            let offset = cursor + (raw.len() - raw.trim_start().len());
            cursor += raw.len() + 1; // +1 for the consumed comma
            if term.is_empty() {
                continue;
            }
            let bad = |why: &str| Error::FaultSpec {
                term: term.to_string(),
                offset,
                reason: why.to_string(),
            };
            if term == "rereplicate" {
                plan.re_replicate = true;
                continue;
            }
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| bad("expected key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| bad("seed must be a u64"))?;
                }
                "task_fail" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| bad("probability must be a float"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(bad("probability must be in [0, 1)"));
                    }
                    plan.task_failure_rate = p;
                }
                "retries" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| bad("retries must be an integer"))?;
                    if n == 0 {
                        return Err(bad("retry budget must be at least 1"));
                    }
                    plan.max_attempts = n;
                }
                "crash" => {
                    let (node, at) = value
                        .split_once('@')
                        .ok_or_else(|| bad("expected NODE@SECS"))?;
                    let node = node.parse().map_err(|_| bad("node must be an integer"))?;
                    let secs: f64 = at.parse().map_err(|_| bad("crash time must be a float"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(bad("crash time must be non-negative"));
                    }
                    plan.crashes.push(NodeCrash {
                        node,
                        at: Duration::from_secs_f64(secs),
                    });
                }
                "slow" => {
                    let (node, factor) = value
                        .split_once('x')
                        .ok_or_else(|| bad("expected NODExFACTOR"))?;
                    let node = node.parse().map_err(|_| bad("node must be an integer"))?;
                    let factor: f64 = factor.parse().map_err(|_| bad("factor must be a float"))?;
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(bad("factor must be at least 1"));
                    }
                    plan.slow_nodes.push(SlowNode { node, factor });
                }
                "lose" => {
                    plan.replica_losses =
                        value.parse().map_err(|_| bad("lose must be an integer"))?;
                }
                "speculate" => {
                    let t: f64 = value
                        .parse()
                        .map_err(|_| bad("threshold must be a float"))?;
                    if !t.is_finite() || t <= 1.0 {
                        return Err(bad("threshold must be greater than 1"));
                    }
                    plan.speculation_threshold = t;
                }
                _ => return Err(bad("unknown key")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.attempt_fails(0, 0, 0));
        assert_eq!(plan.slow_factor(3), 1.0);
    }

    #[test]
    fn failure_draw_is_deterministic_and_calibrated() {
        let plan = FaultPlan {
            task_failure_rate: 0.2,
            ..FaultPlan::seeded(42)
        };
        let draws: Vec<bool> = (0..10_000).map(|t| plan.attempt_fails(1, t, 0)).collect();
        let again: Vec<bool> = (0..10_000).map(|t| plan.attempt_fails(1, t, 0)).collect();
        assert_eq!(draws, again, "same plan must draw identically");
        let rate = draws.iter().filter(|&&b| b).count() as f64 / draws.len() as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn different_seeds_draw_differently() {
        let a = FaultPlan {
            task_failure_rate: 0.5,
            ..FaultPlan::seeded(1)
        };
        let b = FaultPlan {
            task_failure_rate: 0.5,
            ..FaultPlan::seeded(2)
        };
        let da: Vec<bool> = (0..256).map(|t| a.attempt_fails(0, t, 0)).collect();
        let db: Vec<bool> = (0..256).map(|t| b.attempt_fails(0, t, 0)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn attempts_are_independent_draws() {
        let plan = FaultPlan {
            task_failure_rate: 0.5,
            ..FaultPlan::seeded(9)
        };
        // With rate 0.5 and 64 tasks, some task must differ across attempts.
        let a0: Vec<bool> = (0..64).map(|t| plan.attempt_fails(0, t, 0)).collect();
        let a1: Vec<bool> = (0..64).map(|t| plan.attempt_fails(0, t, 1)).collect();
        assert_ne!(a0, a1);
    }

    #[test]
    fn slow_factor_composes() {
        let plan = FaultPlan {
            slow_nodes: vec![
                SlowNode {
                    node: 1,
                    factor: 2.0,
                },
                SlowNode {
                    node: 1,
                    factor: 3.0,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.slow_factor(1), 6.0);
        assert_eq!(plan.slow_factor(0), 1.0);
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=7,task_fail=0.1,crash=2@0.5,slow=1x4,lose=3,rereplicate")
            .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.task_failure_rate, 0.1);
        assert_eq!(
            plan.crashes,
            vec![NodeCrash {
                node: 2,
                at: Duration::from_millis(500)
            }]
        );
        assert_eq!(
            plan.slow_nodes,
            vec![SlowNode {
                node: 1,
                factor: 4.0
            }]
        );
        assert_eq!(plan.replica_losses, 3);
        assert!(plan.re_replicate);
    }

    #[test]
    fn parse_rejects_malformed_terms() {
        for bad in [
            "nonsense",
            "task_fail=1.5",
            "crash=2",
            "crash=2@-1",
            "slow=1x0.5",
            "retries=0",
            "speculate=0.9",
            "unknown=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn parse_errors_carry_term_and_offset() {
        // `crash=2` starts at byte 7 of the spec below.
        let err = FaultPlan::parse("seed=7,crash=2,lose=1").unwrap_err();
        match err {
            Error::FaultSpec {
                term,
                offset,
                reason,
            } => {
                assert_eq!(term, "crash=2");
                assert_eq!(offset, 7);
                assert!(reason.contains("NODE@SECS"), "{reason}");
            }
            other => panic!("expected Error::FaultSpec, got {other:?}"),
        }
        // Offsets point at the term, not its leading whitespace.
        let err = FaultPlan::parse("seed=7,  retries=0").unwrap_err();
        match err {
            Error::FaultSpec { term, offset, .. } => {
                assert_eq!(term, "retries=0");
                assert_eq!(offset, 9);
            }
            other => panic!("expected Error::FaultSpec, got {other:?}"),
        }
    }

    #[test]
    fn parse_empty_spec_is_noop() {
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }
}
