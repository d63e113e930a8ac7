//! The accept loop over many connections: a connection's descriptors
//! and reader thread are released when it ends, so a long-running
//! daemon does not run out of file descriptors. Kept in its own test
//! binary because it counts the descriptors of the whole process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use simgen_serve::{query_status, ServeOptions, Server};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// Descriptors a few still-exiting readers may hold.
const SLACK: usize = 6;

#[test]
fn sequential_connections_release_their_descriptors() {
    let dir = std::env::temp_dir().join(format!("simgen_accept_loop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();
    let baseline = open_fds();

    for i in 0..300 {
        query_status(server.socket()).unwrap_or_else(|e| panic!("status call {i} failed: {e}"));
    }
    // Readers finish on their own after the client hangs up; give the
    // last few a moment to exit.
    let limit = Instant::now() + Duration::from_secs(10);
    let mut now_open = open_fds();
    while now_open > baseline + SLACK && Instant::now() < limit {
        std::thread::sleep(Duration::from_millis(20));
        now_open = open_fds();
    }
    assert!(
        now_open <= baseline + SLACK,
        "{now_open} descriptors open after 300 connections, {baseline} before"
    );
    query_status(server.socket()).expect("the daemon still answers");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
