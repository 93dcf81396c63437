//! An in-process streaming link is thread-free: converting a channel
//! endpoint with `make_pipelined` and exchanging messages over it
//! starts no thread. This suite holds a single test so the count of
//! `/proc/self/task` entries sees no other test's threads.

#[cfg(target_os = "linux")]
#[test]
fn in_process_streaming_starts_no_thread() {
    use bf_mpc::transport::{channel_pair_with_network, Msg, NetworkProfile};
    use std::time::Duration;

    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let (mut a, mut b) = channel_pair_with_network(NetworkProfile {
        latency: Duration::from_millis(2),
        bytes_per_sec: 1_000_000,
    });
    let before = threads();
    a.make_pipelined(8);
    b.make_pipelined(8);
    assert!(a.is_pipelined() && b.is_pipelined());
    for i in 0..4 {
        a.send(Msg::U64(i)).unwrap();
    }
    for i in 0..4 {
        assert_eq!(b.recv_u64().unwrap(), i);
    }
    b.send(Msg::Scalar(1.5)).unwrap();
    assert_eq!(a.recv_scalar().unwrap(), 1.5);
    assert_eq!(
        threads(),
        before,
        "the streaming conversion started a thread"
    );
}
