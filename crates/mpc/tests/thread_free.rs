//! Streaming links own exactly their threads: an in-process pair starts
//! none, and a TCP endpoint runs its writer and reader — two threads —
//! while it is live and none once it is dropped. This suite holds a
//! single test so the count of `/proc/self/task` entries sees no other
//! test's threads.

#[cfg(target_os = "linux")]
#[test]
fn streaming_links_start_only_their_tcp_threads() {
    use bf_mpc::transport::{channel_pair_with_network, Endpoint, Msg, NetworkProfile};
    use std::time::{Duration, Instant};

    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let baseline = threads();

    let (a, b) = channel_pair_with_network(NetworkProfile {
        latency: Duration::from_millis(2),
        bytes_per_sec: 1_000_000,
    });
    for i in 0..4 {
        a.send(Msg::U64(i)).unwrap();
    }
    for i in 0..4 {
        assert_eq!(b.recv_u64().unwrap(), i);
    }
    b.send(Msg::Scalar(1.5)).unwrap();
    assert_eq!(a.recv_scalar().unwrap(), 1.5);
    assert_eq!(threads(), baseline, "an in-process link started a thread");
    drop((a, b));

    // The kernel completes a localhost connect from the listen backlog,
    // so both ends open on this thread.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let a = Endpoint::tcp_connect(listener.local_addr().unwrap()).unwrap();
    assert_eq!(threads(), baseline + 2, "a TCP endpoint runs two threads");
    let b = Endpoint::tcp_accept(&listener).unwrap();
    assert_eq!(threads(), baseline + 4);
    a.send(Msg::U64(7)).unwrap();
    assert_eq!(b.recv_u64().unwrap(), 7);
    b.send(Msg::Scalar(2.5)).unwrap();
    assert_eq!(a.recv_scalar().unwrap(), 2.5);
    assert_eq!(threads(), baseline + 4);

    // Dropping both ends must stop all four threads: the reader's fd
    // shutdown in `Drop` is what wakes a reader blocked in `read`.
    drop((a, b));
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        threads(),
        baseline,
        "a dropped TCP link left threads behind"
    );
}
