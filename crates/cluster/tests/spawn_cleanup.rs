//! A cluster that fails to start leaves no worker running.
//!
//! `RealCluster::spawn` forks its workers one by one. When one fails to
//! announce its address, the spawn returns an error, and every worker
//! forked before it must be killed and reaped. A stand-in worker script
//! plays both parts: its first launch announces an address and sleeps,
//! its second exits without announcing.
//!
//! Its own binary, because `SMDA_WORKER_BIN` is process-global.

use std::os::unix::fs::PermissionsExt as _;
use std::process::Command;

use smda_cluster::{RealCluster, RealClusterConfig};
use smda_obs::MetricsSink;

/// Whether process `pid` exists (a reaped process does not).
fn running(pid: &str) -> bool {
    Command::new("sh")
        .arg("-c")
        .arg(format!("kill -0 {pid} 2>/dev/null"))
        .status()
        .is_ok_and(|s| s.success())
}

#[test]
fn a_failed_spawn_kills_the_workers_already_forked() {
    let dir = std::env::temp_dir().join(format!("smda-spawn-cleanup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pid_file = dir.join("first.pid");
    let script = dir.join("worker.sh");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\n\
             [ -e '{pid}' ] && exit 0\n\
             echo $$ > '{pid}'\n\
             echo 'SMDA-WORKER-LISTENING 127.0.0.1:9'\n\
             exec sleep 30\n",
            pid = pid_file.display()
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::env::set_var("SMDA_WORKER_BIN", &script);

    let config = RealClusterConfig {
        workers: 2,
        ..RealClusterConfig::default()
    };
    let spawned = RealCluster::spawn(config, MetricsSink::disabled());

    let pid = std::fs::read_to_string(&pid_file).unwrap();
    let pid = pid.trim();
    let orphaned = running(pid);
    if orphaned {
        // Never leave the stand-in behind, whatever the verdict.
        let _ = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -9 {pid}"))
            .status();
    }
    std::fs::remove_dir_all(&dir).unwrap();
    let error = spawned.err().expect("the second worker never announced");
    assert!(error.to_string().contains("announcing"), "{error}");
    assert!(!orphaned, "worker 0 (pid {pid}) outlived the failed spawn");
}
