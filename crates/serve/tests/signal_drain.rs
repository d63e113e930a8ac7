//! Shutdown by signal: [`request_shutdown`] — what the SIGTERM/SIGINT
//! handler calls — drains an idle daemon promptly. Kept in its own test
//! binary because the signal flag is process-wide and would stop every
//! daemon in the process.

use std::sync::mpsc;
use std::time::Duration;

use simgen_serve::{query_status, request_shutdown, ServeOptions, Server};

#[test]
fn a_signal_drains_an_idle_daemon() {
    let dir = std::env::temp_dir().join(format!("simgen_signal_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("sock");
    let server = Server::start(ServeOptions::new(&socket)).unwrap();
    query_status(server.socket()).expect("the daemon answers");

    request_shutdown();
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(5))
        .expect("the daemon drains within 5 s of the signal");
    assert!(!socket.exists(), "socket file cleaned up on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
