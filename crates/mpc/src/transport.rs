//! Pluggable two-party transport with traffic accounting.
//!
//! Every cross-party value in the BlindFL protocols flows through an
//! [`Endpoint`] as a typed [`Msg`]. This gives the experiments exact
//! communication-volume numbers and gives the security tests a single
//! choke point to audit: if a restricted value never appears in a
//! message, the other party never sees it.
//!
//! Two wire backends sit behind the same [`Endpoint`] API:
//!
//! * **in-process** ([`channel_pair`]) — a `crossbeam` channel pair
//!   moving `Msg` values between threads, each stamped with the instant
//!   it is delivered; the harness every test and experiment uses,
//! * **TCP** ([`Endpoint::tcp_connect`] / [`Endpoint::tcp_accept`]) —
//!   a length-prefixed binary stream per [`crate::wire`] and
//!   `docs/WIRE_PROTOCOL.md`, so the two parties can run as separate
//!   processes or machines.
//!
//! [`TrafficStats`] counts the *canonical* message sizes
//! ([`Msg::wire_size`]) on both backends, so byte counts — the paper's
//! Table 7/8 numbers — are identical whether a run is in-process or
//! cross-process. [`NetworkProfile`] simulation likewise applies to
//! both.
//!
//! # Streaming (pipelined) mode
//!
//! A blocking endpoint models a stop-and-wait link: every `send` sleeps
//! `latency + bytes/bw` on the caller. Either backend can be converted
//! in place onto the **streaming** schedule ([`Endpoint::make_pipelined`]):
//! serialisation occupies the link back to back, propagation latency
//! pipelines across in-flight messages, and `send` returns at once, so
//! the caller's compute overlaps wire time instead of sleeping through
//! it.
//!
//! * In process this costs no thread: `send` stamps each message with
//!   its scheduled delivery instant and `recv` sleeps until the stamp.
//! * Over TCP a writer thread owns the socket's send half (frame
//!   encoding, the simulated profile, the physical write) and a reader
//!   thread eagerly decodes the receive half into a bounded inbox.
//!
//! Message *content*, *order*, and [`TrafficStats`] accounting are
//! identical to the blocking mode — streaming reorders wall-clock work,
//! never bytes (the determinism contract `tests/pipeline_parity.rs`
//! enforces).

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_paillier::{CtMat, PublicKey};
use bf_tensor::Dense;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::wire;

/// A typed cross-party message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// An encrypted tensor.
    Ct(CtMat),
    /// A plaintext tensor (only ever secret-share pieces or aggregated
    /// outputs — the protocols never put restricted plaintext here).
    Mat(Dense),
    /// A public key (initialisation handshake).
    Key(PublicKey),
    /// A sparse support set (sorted feature / embedding-row indices).
    Support(Vec<u32>),
    /// A scalar (e.g. a loss value for logging, batch sizes).
    Scalar(f64),
    /// A small integer (protocol step tags, dimensions).
    U64(u64),
    /// Multi-party link identification: the first message a guest
    /// sends on a fresh connection, announcing which of the job's
    /// `total` guest slots it fills. Lets the host map an arbitrary
    /// TCP accept order back onto the deterministic link order (and
    /// reject mis-configured guests with a typed error).
    Hello {
        /// This guest's 0-based link index.
        index: u32,
        /// The total number of guests the sender was configured with.
        total: u32,
    },
    /// Reconnect resync cursor (wire kind 8, protocol v4): the first
    /// frame each side sends on a re-established connection, announcing
    /// how many logical frames it had received before the link dropped
    /// so the peer can replay exactly the gap. Transport control, never
    /// sent by protocol code and never counted in [`TrafficStats`] —
    /// the logical byte stream of a run is identical with or without a
    /// mid-run reconnect.
    Resume {
        /// Logical frames the sender has received on this link so far.
        recv_seq: u64,
    },
    /// Federated gradient boosting (wire kind 9, protocol v5): the
    /// host tells a guest which of the guest's split candidates won a
    /// node, naming it only by the guest's *local* feature index and
    /// bucket — the host never learns the threshold value, the guest
    /// never learns why it won.
    GbSplit {
        /// Guest-local feature index of the winning split.
        feature: u32,
        /// Split bucket: rows whose bucket id ≤ `bucket` go left.
        bucket: u32,
    },
    /// Federated gradient boosting (wire kind 10, protocol v5): a
    /// guest's routing bitmap for an inference batch — for each of its
    /// `records` stored split predicates and each of the `rows`
    /// requested rows, one bit saying whether the row satisfies the
    /// predicate (goes left). Packed LSB-first; bit index is
    /// `record · rows + row`; padding bits must be zero (canonical).
    GbBits {
        /// Number of inference rows covered.
        rows: u64,
        /// Number of split records covered.
        records: u64,
        /// LSB-first packed predicate bits, `⌈rows·records / 8⌉` bytes.
        bits: Vec<u8>,
    },
    /// Sample alignment (wire kind 11, protocol v6): the host opens the
    /// PSI phase by announcing the shared digest salt and its own set
    /// size. The salt travels in the clear — salted hashing defends
    /// against *precomputed* dictionaries, not against a peer grinding
    /// a low-entropy ID space; see `docs/ARCHITECTURE.md` §"Sample
    /// alignment" for the threat model.
    PsiOffer {
        /// Salt mixed into every ID digest of this PSI phase.
        salt: u64,
        /// Number of sample IDs the host holds (set size leaks by
        /// design in digest-exchange PSI).
        count: u64,
    },
    /// Sample alignment (wire kind 12, protocol v6): a salted-digest
    /// *set*, strictly ascending on the wire — the canonical form means
    /// a party's row order can never leak through frame bytes. Sent
    /// guest→host with the guest's full column, then host→guest with
    /// the intersection.
    PsiDigests {
        /// Strictly ascending salted ID digests.
        digests: Vec<u64>,
    },
}

impl Msg {
    /// Canonical size in bytes for traffic accounting (shape header +
    /// payload, excluding the 8-byte frame header the TCP backend
    /// adds; see `docs/WIRE_PROTOCOL.md` §"Traffic accounting").
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::Ct(ct) => ct.wire_size(),
            Msg::Mat(m) => 16 + m.rows() * m.cols() * 8,
            Msg::Key(_) => 256, // n + metadata, order-of-magnitude
            Msg::Support(s) => 8 + s.len() * 4,
            Msg::Scalar(_) => 8,
            Msg::U64(_) => 8,
            Msg::Hello { .. } => 8,
            Msg::Resume { .. } => 8,
            Msg::GbSplit { .. } => 8,
            Msg::GbBits { bits, .. } => 16 + bits.len(),
            Msg::PsiOffer { .. } => 16,
            Msg::PsiDigests { digests } => 8 + digests.len() * 8,
        }
    }

    /// Message kind name (`TransportError::TypeMismatch`, and the
    /// security audit: the peer's received kinds are this endpoint's
    /// sent kinds).
    pub fn kind(&self) -> &'static str {
        wire::KIND_NAMES[usize::from(wire::kind_byte(self))]
    }
}

/// Why a send or receive failed. At the transport level a malformed or
/// vanished peer surfaces here as an `Err` — never as a panic — so a
/// party loop can refuse the connection and keep serving others.
///
/// Scope: this covers frame and payload *structure* (bad magic,
/// truncation, type mismatches, length-field attacks). Semantic
/// validity — e.g. a well-formed `Ct` whose shape or limb width does
/// not match the current protocol step and key — is the protocol
/// layer's contract, enforced by its shape assertions.
#[derive(Debug)]
pub enum TransportError {
    /// The peer endpoint is gone (channel dropped / TCP EOF).
    Disconnected,
    /// The peer sent a well-formed message of the wrong kind.
    TypeMismatch {
        /// The kind the protocol step expected.
        expected: &'static str,
        /// The kind that actually arrived.
        got: &'static str,
    },
    /// The peer sent bytes that do not decode as a protocol frame.
    Wire(wire::WireError),
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer violated the session-setup contract: wrong role, zero
    /// guests, a duplicate / out-of-range / inconsistent link index in
    /// a multi-party [`Msg::Hello`], and similar configuration faults.
    Setup(String),
    /// An operation's overall deadline elapsed: a connect retry
    /// ([`Endpoint::tcp_connect_retry`]) or a reconnect attempt
    /// ([`RetryPolicy::deadline`]) gave up waiting for the peer.
    Timeout {
        /// How long the operation waited before giving up.
        waited: Duration,
    },
    /// The link dropped and could not be transparently resumed: the
    /// reconnect resync failed for the stated reason (e.g. the peer
    /// missed more frames than the replay window holds, or sent
    /// something other than a [`Msg::Resume`] cursor).
    Reconnecting(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::TypeMismatch { expected, got } => {
                write!(f, "protocol error: expected {expected}, got {got}")
            }
            TransportError::Wire(e) => write!(f, "wire decode error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Setup(why) => write!(f, "session setup error: {why}"),
            TransportError::Timeout { waited } => {
                write!(f, "transport deadline elapsed after {waited:?}")
            }
            TransportError::Reconnecting(why) => {
                write!(f, "link dropped and could not be resumed: {why}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Wire(e) => Some(e),
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for TransportError {
    fn from(e: wire::WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        // Keep the "peer is gone" classification transport-agnostic:
        // a dead remote surfaces as EOF on reads and as broken-pipe /
        // reset / abort on writes, all of which mean Disconnected —
        // the same variant the channel backend yields when the peer
        // endpoint is dropped.
        match e.kind() {
            ErrorKind::UnexpectedEof
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted => TransportError::Disconnected,
            _ => TransportError::Io(e),
        }
    }
}

/// Shorthand for transport-fallible results, used by every protocol
/// function downstream.
pub type TransportResult<T> = Result<T, TransportError>;

/// Shared traffic counters for one direction of a channel pair.
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Total bytes sent from this endpoint.
    pub bytes_sent: AtomicU64,
    /// Total messages sent from this endpoint.
    pub msgs_sent: AtomicU64,
    /// Messages sent per kind, indexed by [`wire::kind_byte`] — the
    /// *peer's* received-observable audit trail (see
    /// `tests/security.rs`), bounded however long the link lives.
    sent_by_kind: [AtomicU64; wire::KIND_NAMES.len()],
}

impl TrafficStats {
    /// Bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages sent so far.
    pub fn msgs(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Messages sent so far per kind name, listing only kinds sent.
    pub fn sent_kinds(&self) -> BTreeMap<&'static str, u64> {
        wire::KIND_NAMES
            .iter()
            .zip(&self.sent_by_kind)
            .map(|(&name, n)| (name, n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Preload the byte/message counters — the checkpoint-restore hook:
    /// a run resumed on a fresh endpoint seeds the counters with the
    /// totals captured at the checkpoint so its final numbers equal an
    /// uninterrupted run's. The per-kind audit counts are deliberately
    /// *not* restored (they are a security-test observable of the live
    /// connection, not an accounting total).
    pub fn preload(&self, bytes: u64, msgs: u64) {
        self.bytes_sent.store(bytes, Ordering::Relaxed);
        self.msgs_sent.store(msgs, Ordering::Relaxed);
    }
}

/// The backend actually moving messages.
enum Wire {
    /// In-process `crossbeam` channel pair: values move, nothing is
    /// serialized. Every message carries the instant it is delivered,
    /// and `recv` sleeps until then. `link_free` is `Some` once the
    /// endpoint streams ([`Endpoint::make_pipelined`]): the instant the
    /// simulated link finishes serialising the last message sent.
    Channel {
        tx: Sender<(Msg, Instant)>,
        rx: Receiver<(Msg, Instant)>,
        link_free: Option<Mutex<Instant>>,
    },
    /// A TCP stream carrying [`crate::wire`] frames. Reader and writer
    /// halves are locked independently so full-duplex protocols (send
    /// while the peer sends) don't deadlock.
    Tcp {
        writer: Mutex<BufWriter<TcpStream>>,
        reader: Mutex<BufReader<TcpStream>>,
    },
    /// A streaming TCP stream: sends enqueue onto a writer thread,
    /// receives pop a reader thread's prefetch inbox (see
    /// [`Endpoint::make_pipelined`]).
    Pipelined(Pipelined),
}

/// State of a streaming TCP endpoint. Outbox entries carry their
/// enqueue time so the writer can schedule simulated delivery relative
/// to when the protocol produced the message, not to when the writer
/// finished the previous one (that is what lets propagation latency
/// pipeline).
struct Pipelined {
    /// Bounded outbox; `None` only transiently during drop.
    tx_q: Option<Sender<(Msg, Instant)>>,
    /// Bounded inbox filled by the reader thread.
    rx_q: Receiver<TransportResult<Msg>>,
    /// Writer thread handle, joined on drop so queued tail messages
    /// reach the wire before the endpoint disappears.
    writer: Option<std::thread::JoinHandle<()>>,
    /// Messages the writer has put on the wire so far. Drop watches
    /// this to tell "writer is draining a slow (simulated) link" from
    /// "writer is stuck on a peer that stopped reading".
    progress: Arc<AtomicU64>,
    /// First writer-side failure, surfaced on the next `send`.
    send_err: Arc<Mutex<Option<TransportError>>>,
    /// A clone of the stream kept for teardown. The reader thread holds
    /// its own duplicated fd blocked in `read`, so without an explicit
    /// `shutdown` the kernel would never send FIN when this endpoint
    /// drops, and the peer's blocking `recv` would hang instead of
    /// returning `Disconnected`.
    tcp: TcpStream,
}

/// Write one `Msg` as a wire frame. Header and payload are written
/// separately: Ct payloads are megabytes, and a contiguous
/// `encode_frame` buffer would re-copy every one of them on the hot
/// path. Shared by the blocking TCP path and the pipelined writer.
fn write_frame(w: &mut impl Write, msg: &Msg) -> TransportResult<()> {
    let payload = wire::encode_payload(msg);
    let header = wire::frame_header(msg, &payload);
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one wire frame into a `Msg`. Shared by the blocking TCP path
/// and the pipelined reader.
fn read_frame(r: &mut impl Read) -> TransportResult<Msg> {
    let mut header = [0u8; wire::HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = wire::decode_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(wire::decode_payload(kind, &payload)?)
}

/// Sleep until `t` (no-op once it has passed).
fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// How a reconnecting endpoint re-establishes its TCP link after a
/// drop: redial the peer's address, or re-accept on the listener the
/// original connection came from. The two ends of a link use opposite
/// variants, mirroring the original connect/accept split.
pub enum Redial {
    /// Redial the peer (the original `tcp_connect` side).
    Connect(std::net::SocketAddr),
    /// Re-accept on the original listener (the `tcp_accept` side).
    Accept(Arc<TcpListener>),
}

/// Timeout/backoff policy for connect retries and reconnects.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Overall deadline: give up with [`TransportError::Timeout`] once
    /// this much time has elapsed without a live connection.
    pub deadline: Duration,
    /// Pause between attempts (the peer needs time to come back).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(10),
            backoff: Duration::from_millis(20),
        }
    }
}

/// Bounded send/recv replay cursor for a reconnecting TCP endpoint.
///
/// Every logical frame sent is also appended to a bounded log and
/// counted in `sent_seq`; every logical frame received bumps
/// `recv_seq`. When the link drops, both sides re-establish a socket
/// (per their [`Redial`]), exchange [`Msg::Resume`] cursors (each side
/// sends first, then reads — deadlock-free), and the sender replays
/// exactly the `sent_seq − peer.recv_seq` tail of its log. In-flight
/// frames are therefore neither lost (the gap is replayed) nor
/// duplicated (frames the peer acknowledged are skipped); a gap wider
/// than the log window is a typed [`TransportError::Reconnecting`].
struct ReconnectState {
    redial: Redial,
    policy: RetryPolicy,
    window: usize,
    sent_seq: AtomicU64,
    recv_seq: AtomicU64,
    sent_log: Mutex<std::collections::VecDeque<Msg>>,
}

impl ReconnectState {
    /// Log one outgoing logical frame into the bounded replay window.
    fn log_sent(&self, msg: &Msg) {
        self.sent_seq.fetch_add(1, Ordering::Relaxed);
        let mut log = self.sent_log.lock();
        if log.len() == self.window {
            log.pop_front();
        }
        log.push_back(msg.clone());
    }

    /// Re-establish the physical stream per the redial policy.
    fn redial(&self) -> TransportResult<TcpStream> {
        let start = Instant::now();
        let deadline = start + self.policy.deadline;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout {
                    waited: start.elapsed(),
                });
            }
            let attempt = match &self.redial {
                Redial::Connect(addr) => TcpStream::connect_timeout(addr, remaining),
                Redial::Accept(listener) => accept_with_deadline(listener, remaining),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) if is_transient_connect_error(&e) => {
                    std::thread::sleep(self.policy.backoff.min(remaining))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Accept one connection within `deadline`, restoring the listener to
/// blocking mode afterwards. (A plain `accept` has no timeout; polling
/// in nonblocking mode keeps the reconnect path's overall deadline.)
fn accept_with_deadline(listener: &TcpListener, deadline: Duration) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let until = Instant::now() + deadline;
    let res = loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                break Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= until {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "accept deadline elapsed",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => break Err(e),
        }
    };
    let _ = listener.set_nonblocking(false);
    res
}

/// Try every resolved address once, each under the given per-attempt
/// timeout; returns the first success or the last failure.
fn connect_any<A: ToSocketAddrs>(addr: &A, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    }))
}

/// Connect failures worth retrying while waiting for a peer to (re)
/// appear; anything else (unroutable host, permission denied, …) is a
/// configuration error and fails fast.
fn is_transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// True if this failure means "the link itself died" (as opposed to a
/// protocol/codec fault) — the trigger for transparent reconnection.
fn is_link_failure(e: &TransportError) -> bool {
    matches!(e, TransportError::Disconnected | TransportError::Io(_))
}

/// The replay-cursor arithmetic of the resync handshake, as a pure
/// function: given that we have sent `sent` frames, the peer
/// acknowledges receiving `peer_recv` of them, and the bounded replay
/// log holds the last `log_len` sent frames, return how many frames
/// from the tail of the log must be replayed — or a reason the link
/// cannot be resumed (an impossible cursor, or a gap wider than the
/// window). Property-tested in this module's test suite.
fn replay_span(sent: u64, peer_recv: u64, log_len: usize) -> Result<usize, String> {
    let gap = sent.checked_sub(peer_recv).ok_or_else(|| {
        format!("peer claims {peer_recv} frames received, only {sent} were ever sent")
    })?;
    let gap = usize::try_from(gap).unwrap_or(usize::MAX);
    if gap > log_len {
        return Err(format!(
            "peer missed {gap} frames but the replay window holds only {log_len}"
        ));
    }
    Ok(gap)
}

/// One party's end of a duplex link (in-process or TCP).
pub struct Endpoint {
    wire: Wire,
    stats: Arc<TrafficStats>,
    net: Option<NetworkProfile>,
    reconnect: Option<ReconnectState>,
}

impl Endpoint {
    /// Send a message to the peer.
    pub fn send(&self, msg: Msg) -> TransportResult<()> {
        let bytes = msg.wire_size();
        self.stats
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats.sent_by_kind[usize::from(wire::kind_byte(&msg))].fetch_add(1, Ordering::Relaxed);
        match &self.wire {
            Wire::Channel { tx, link_free, .. } => {
                let deliver_at = match (link_free, &self.net) {
                    (Some(free), Some(net)) => {
                        net.stream_delivery(&mut free.lock(), bytes, Instant::now())
                    }
                    _ => {
                        self.stop_and_wait(bytes);
                        Instant::now()
                    }
                };
                tx.send((msg, deliver_at))
                    .map_err(|_| TransportError::Disconnected)
            }
            Wire::Tcp { writer, .. } => {
                self.stop_and_wait(bytes);
                if let Some(rc) = &self.reconnect {
                    // Log before the physical write: if the write (or
                    // any in-flight predecessor) is lost to a link
                    // drop, the resync replay covers it.
                    rc.log_sent(&msg);
                    let res = write_frame(&mut *writer.lock(), &msg);
                    match res {
                        Err(e) if is_link_failure(&e) => self.reestablish(),
                        other => other,
                    }
                } else {
                    write_frame(&mut *writer.lock(), &msg)
                }
            }
            Wire::Pipelined(p) => {
                let q = p.tx_q.as_ref().expect("pipelined outbox present");
                q.send((msg, Instant::now())).map_err(|_| {
                    // Writer thread died: surface its error once, then
                    // a generic disconnect.
                    p.send_err
                        .lock()
                        .take()
                        .unwrap_or(TransportError::Disconnected)
                })
            }
        }
    }

    /// The blocking link model: sleep through this message's whole wire
    /// time on the sending thread (no-op without a profile).
    fn stop_and_wait(&self, bytes: usize) {
        if let Some(net) = &self.net {
            std::thread::sleep(net.delay_for(bytes));
        }
    }

    /// Blocking receive.
    pub fn recv(&self) -> TransportResult<Msg> {
        match &self.wire {
            Wire::Channel { rx, .. } => {
                let (msg, deliver_at) = rx.recv().map_err(|_| TransportError::Disconnected)?;
                sleep_until(deliver_at);
                Ok(msg)
            }
            Wire::Tcp { reader, .. } => {
                let Some(rc) = &self.reconnect else {
                    return read_frame(&mut *reader.lock());
                };
                // A couple of reconnect rounds bound the retry: each
                // round is itself deadline-limited by the policy, and a
                // link that dies again mid-resync is not coming back.
                for _ in 0..2 {
                    let res = read_frame(&mut *reader.lock());
                    match res {
                        Ok(msg) => {
                            rc.recv_seq.fetch_add(1, Ordering::Relaxed);
                            return Ok(msg);
                        }
                        Err(e) if is_link_failure(&e) => self.reestablish()?,
                        Err(e) => return Err(e),
                    }
                }
                Err(TransportError::Reconnecting(
                    "link kept dropping across reconnect attempts".into(),
                ))
            }
            Wire::Pipelined(p) => match p.rx_q.recv() {
                Ok(res) => res,
                // Reader thread gone after delivering its final error.
                Err(_) => Err(TransportError::Disconnected),
            },
        }
    }

    /// Re-establish a dropped TCP link and resync the replay cursors:
    /// redial per the policy, exchange [`Msg::Resume`] cursors (send
    /// first, then read — both sides doing the same cannot deadlock),
    /// replay the frames the peer missed, and swap the fresh stream
    /// into place. Resync and replayed frames bypass [`TrafficStats`]:
    /// the logical traffic of the run is unchanged by a reconnect.
    fn reestablish(&self) -> TransportResult<()> {
        let rc = self
            .reconnect
            .as_ref()
            .expect("reestablish requires reconnect state");
        let Wire::Tcp { writer, reader } = &self.wire else {
            return Err(TransportError::Disconnected);
        };
        // Both halves are held for the whole resync so a concurrent
        // send/recv on another thread observes either the dead stream
        // (and retries into this path) or the fully resynced one.
        let mut w = writer.lock();
        let mut r = reader.lock();
        let stream = rc.redial()?;
        let mut new_w = BufWriter::new(stream.try_clone()?);
        let mut new_r = BufReader::new(stream);
        write_frame(
            &mut new_w,
            &Msg::Resume {
                recv_seq: rc.recv_seq.load(Ordering::Relaxed),
            },
        )?;
        let peer_recv = match read_frame(&mut new_r)? {
            Msg::Resume { recv_seq } => recv_seq,
            other => {
                return Err(TransportError::Reconnecting(format!(
                    "peer sent {} instead of a Resume cursor",
                    other.kind()
                )))
            }
        };
        let sent = rc.sent_seq.load(Ordering::Relaxed);
        let log = rc.sent_log.lock();
        let gap = replay_span(sent, peer_recv, log.len()).map_err(TransportError::Reconnecting)?;
        for msg in log.iter().skip(log.len() - gap) {
            write_frame(&mut new_w, msg)?;
        }
        drop(log);
        *w = new_w;
        *r = new_r;
        Ok(())
    }

    /// Forcibly shut down the underlying TCP socket — the `Drop` fault
    /// injection seam: the connection dies mid-run while both party
    /// processes stay up, exactly what a flaky WAN does. Returns
    /// `false` on backends with no socket to sever (in-process
    /// channels). Subsequent operations surface the failure and, on a
    /// reconnect-enabled endpoint, recover transparently.
    pub fn sever(&self) -> bool {
        match &self.wire {
            Wire::Channel { .. } => false,
            Wire::Tcp { writer, .. } => {
                let _ = writer.lock().get_ref().shutdown(std::net::Shutdown::Both);
                true
            }
            Wire::Pipelined(p) => {
                let _ = p.tcp.shutdown(std::net::Shutdown::Both);
                true
            }
        }
    }

    /// Enable transparent reconnection with a bounded replay cursor on
    /// this (blocking TCP) endpoint. `window` bounds how many recent
    /// frames are kept for replay; the protocols here are strict
    /// request/response, so a handful suffices. A reconnecting endpoint
    /// stays on the blocking wire: [`Endpoint::make_pipelined`] leaves
    /// it alone, because the replay log lives on the blocking path.
    pub fn with_reconnect(
        mut self,
        redial: Redial,
        policy: RetryPolicy,
        window: usize,
    ) -> Endpoint {
        assert!(window >= 1, "replay window must hold at least 1 frame");
        assert!(
            matches!(self.wire, Wire::Tcp { .. }),
            "reconnection requires a blocking TCP endpoint"
        );
        self.reconnect = Some(ReconnectState {
            redial,
            policy,
            window,
            sent_seq: AtomicU64::new(0),
            recv_seq: AtomicU64::new(0),
            sent_log: Mutex::new(std::collections::VecDeque::with_capacity(window)),
        });
        self
    }

    /// Receive, expecting a ciphertext tensor.
    pub fn recv_ct(&self) -> TransportResult<CtMat> {
        match self.recv()? {
            Msg::Ct(ct) => Ok(ct),
            other => Err(mismatch("Ct", &other)),
        }
    }

    /// Receive, expecting a plaintext tensor.
    pub fn recv_mat(&self) -> TransportResult<Dense> {
        match self.recv()? {
            Msg::Mat(m) => Ok(m),
            other => Err(mismatch("Mat", &other)),
        }
    }

    /// Receive, expecting a public key.
    pub fn recv_key(&self) -> TransportResult<PublicKey> {
        match self.recv()? {
            Msg::Key(k) => Ok(k),
            other => Err(mismatch("Key", &other)),
        }
    }

    /// Receive, expecting a support set.
    pub fn recv_support(&self) -> TransportResult<Vec<u32>> {
        match self.recv()? {
            Msg::Support(s) => Ok(s),
            other => Err(mismatch("Support", &other)),
        }
    }

    /// Receive, expecting a scalar.
    pub fn recv_scalar(&self) -> TransportResult<f64> {
        match self.recv()? {
            Msg::Scalar(v) => Ok(v),
            other => Err(mismatch("Scalar", &other)),
        }
    }

    /// Receive, expecting a u64.
    pub fn recv_u64(&self) -> TransportResult<u64> {
        match self.recv()? {
            Msg::U64(v) => Ok(v),
            other => Err(mismatch("U64", &other)),
        }
    }

    /// Receive, expecting a multi-party hello; returns `(index, total)`.
    pub fn recv_hello(&self) -> TransportResult<(u32, u32)> {
        match self.recv()? {
            Msg::Hello { index, total } => Ok((index, total)),
            other => Err(mismatch("Hello", &other)),
        }
    }

    /// Receive, expecting a tree-split record; returns
    /// `(feature, bucket)`.
    pub fn recv_gb_split(&self) -> TransportResult<(u32, u32)> {
        match self.recv()? {
            Msg::GbSplit { feature, bucket } => Ok((feature, bucket)),
            other => Err(mismatch("GbSplit", &other)),
        }
    }

    /// Receive, expecting a routing bitmap; returns
    /// `(rows, records, bits)`.
    pub fn recv_gb_bits(&self) -> TransportResult<(u64, u64, Vec<u8>)> {
        match self.recv()? {
            Msg::GbBits {
                rows,
                records,
                bits,
            } => Ok((rows, records, bits)),
            other => Err(mismatch("GbBits", &other)),
        }
    }

    /// Receive, expecting a PSI offer; returns `(salt, count)`.
    pub fn recv_psi_offer(&self) -> TransportResult<(u64, u64)> {
        match self.recv()? {
            Msg::PsiOffer { salt, count } => Ok((salt, count)),
            other => Err(mismatch("PsiOffer", &other)),
        }
    }

    /// Receive, expecting a PSI digest set (strictly ascending).
    pub fn recv_psi_digests(&self) -> TransportResult<Vec<u64>> {
        match self.recv()? {
            Msg::PsiDigests { digests } => Ok(digests),
            other => Err(mismatch("PsiDigests", &other)),
        }
    }

    /// This endpoint's outbound traffic counters.
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.stats
    }

    /// Attach a simulated network profile (applied to every subsequent
    /// `send`, exactly as on the in-process backend).
    pub fn with_network(mut self, profile: NetworkProfile) -> Endpoint {
        self.net = Some(profile);
        self
    }

    /// Wrap an established TCP stream. Disables Nagle's algorithm —
    /// the protocols are strict request/response ping-pong, where
    /// delayed ACKs would otherwise dominate round times.
    pub fn from_tcp_stream(stream: TcpStream) -> TransportResult<Endpoint> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Endpoint {
            wire: Wire::Tcp {
                writer: Mutex::new(writer),
                reader: Mutex::new(reader),
            },
            stats: Arc::new(TrafficStats::default()),
            net: None,
            reconnect: None,
        })
    }

    /// Connect to a listening peer (the "guest" side of a deployment).
    pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> TransportResult<Endpoint> {
        Endpoint::from_tcp_stream(TcpStream::connect(addr)?)
    }

    /// Connect, retrying while the peer's listener is not up yet (used
    /// by two-process launches where start order is not guaranteed).
    /// Only transient failures are retried; a non-transient error
    /// (unroutable host, permission denied, …) fails fast. The
    /// `timeout` is an overall deadline — a peer that never listens
    /// (or silently drops SYNs, which `connect` alone can out-wait)
    /// yields a typed [`TransportError::Timeout`], never a hang.
    pub fn tcp_connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> TransportResult<Endpoint> {
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout {
                    waited: start.elapsed(),
                });
            }
            // Per-attempt timeout bounded by the remaining budget, so
            // even a single black-holed connect cannot exceed the
            // overall deadline.
            match connect_any(&addr, remaining) {
                Ok(stream) => return Endpoint::from_tcp_stream(stream),
                Err(e) if is_transient_connect_error(&e) => {
                    std::thread::sleep(Duration::from_millis(20).min(remaining));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Accept one peer connection (the "host" side of a deployment).
    pub fn tcp_accept(listener: &TcpListener) -> TransportResult<Endpoint> {
        let (stream, _) = listener.accept()?;
        Endpoint::from_tcp_stream(stream)
    }

    /// Put this endpoint on the **streaming** schedule in place (no-op
    /// if it already streams).
    ///
    /// After conversion `send` returns without sleeping through wire
    /// time. The simulated [`NetworkProfile`] becomes a streaming link —
    /// serialisation occupies the link back to back and propagation
    /// latency pipelines across in-flight messages, which is how a real
    /// TCP stream behaves — where the blocking mode models stop-and-wait
    /// (each send sleeps `latency + bytes/bw` inline). One schedule
    /// (`NetworkProfile::stream_delivery`) serves both backends:
    ///
    /// * **in process** no thread is started: `send` stamps the message
    ///   with its scheduled delivery instant and the peer's `recv`
    ///   sleeps until it. `depth` is unused (nothing is queued that the
    ///   channel does not already hold);
    /// * **over TCP** a writer thread drains a bounded outbox of `depth`
    ///   messages (blocking the caller only when it is full —
    ///   backpressure, bounding memory) onto the socket, applying the
    ///   profile, and a reader thread prefetches up to `depth` decoded
    ///   frames.
    ///
    /// A TCP endpoint with transparent reconnection
    /// ([`Endpoint::with_reconnect`]) is left on the blocking wire: its
    /// replay log and redial live on that path, and a streaming wire's
    /// threads would own the socket it has to swap. Such a link keeps
    /// surviving drops and simply does not stream. Likewise, should the
    /// socket refuse to be duplicated for the threads, the endpoint
    /// stays blocking.
    ///
    /// Semantics preserved exactly: message order, message bytes, and
    /// [`TrafficStats`] accounting (still performed on the calling
    /// thread, in call order) are identical to the blocking mode. Only
    /// wall-clock scheduling changes.
    pub fn make_pipelined(&mut self, depth: usize) {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        let tcp = match &mut self.wire {
            Wire::Channel { link_free, .. } => {
                link_free.get_or_insert_with(|| Mutex::new(Instant::now()));
                return;
            }
            Wire::Pipelined(_) => return,
            Wire::Tcp { .. } if self.reconnect.is_some() => return,
            Wire::Tcp { writer, .. } => match writer.get_mut().get_ref().try_clone() {
                Ok(tcp) => tcp,
                Err(_) => return,
            },
        };
        // Swap in a throwaway channel wire so we can take ownership of
        // the socket halves (they move into the worker threads).
        let (dummy_tx, dummy_rx) = unbounded();
        let placeholder = Wire::Channel {
            tx: dummy_tx,
            rx: dummy_rx,
            link_free: None,
        };
        let Wire::Tcp { writer, reader } = std::mem::replace(&mut self.wire, placeholder) else {
            unreachable!("checked above");
        };
        // The writer thread takes over the simulated network: inline
        // sleeps on the caller are exactly what streaming removes.
        let net = self.net.take();
        let send_err = Arc::new(Mutex::new(None));
        let err_slot = Arc::clone(&send_err);
        let progress = Arc::new(AtomicU64::new(0));
        let progress_w = Arc::clone(&progress);
        let (tx_q, out_q) = bounded(depth);
        let (in_q, rx_q) = bounded(depth);
        let writer = writer.into_inner();
        let reader = reader.into_inner();
        let writer = std::thread::Builder::new()
            .name("bf-mpc-writer".into())
            .spawn(move || writer_loop(writer, out_q, net, progress_w, err_slot))
            .expect("spawn transport writer");
        std::thread::Builder::new()
            .name("bf-mpc-reader".into())
            .spawn(move || reader_loop(reader, in_q))
            .expect("spawn transport reader");
        self.wire = Wire::Pipelined(Pipelined {
            tx_q: Some(tx_q),
            rx_q,
            writer: Some(writer),
            progress,
            send_err,
            tcp,
        });
    }

    /// True if this endpoint is on the streaming schedule
    /// ([`Endpoint::make_pipelined`]).
    pub fn is_pipelined(&self) -> bool {
        match &self.wire {
            Wire::Channel { link_free, .. } => link_free.is_some(),
            Wire::Tcp { .. } => false,
            Wire::Pipelined(_) => true,
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if let Wire::Pipelined(p) = &mut self.wire {
            // Close the outbox, then wait for the writer to drain the
            // queued tail onto the wire: the peer may still be waiting
            // on those messages after this side's party loop returned.
            p.tx_q.take();
            if let Some(h) = p.writer.take() {
                // Let the writer flush the queued tail (at most `depth`
                // messages), but don't join unconditionally: a peer
                // that stopped reading would leave the writer blocked
                // in `write_all` and this Drop stuck forever. A slow
                // *simulated* link is legitimate, so the deadline is
                // on per-message progress, not total elapsed time; the
                // socket is severed only after 5 s with no message
                // delivered.
                let mut last_progress = p.progress.load(Ordering::Relaxed);
                let mut stalled_since = Instant::now();
                while !h.is_finished() {
                    std::thread::sleep(Duration::from_millis(2));
                    let now_progress = p.progress.load(Ordering::Relaxed);
                    if now_progress != last_progress {
                        last_progress = now_progress;
                        stalled_since = Instant::now();
                    } else if stalled_since.elapsed() > Duration::from_secs(5) {
                        let _ = p.tcp.shutdown(std::net::Shutdown::Both);
                        break;
                    }
                }
                let _ = h.join();
            }
            // The reader thread's duplicated fd would keep the
            // connection open forever; shut the socket down so the
            // peer sees FIN (→ `Disconnected`) and our reader exits.
            let _ = p.tcp.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Writer-thread body: drain the outbox onto the socket, applying the
/// simulated network as a *streaming* link.
fn writer_loop(
    mut w: BufWriter<TcpStream>,
    q: Receiver<(Msg, Instant)>,
    net: Option<NetworkProfile>,
    progress: Arc<AtomicU64>,
    err_slot: Arc<Mutex<Option<TransportError>>>,
) {
    // When the link becomes free for the next message's serialisation.
    let mut link_free = Instant::now();
    while let Ok((msg, enqueued_at)) = q.recv() {
        if let Some(p) = &net {
            // Scheduled from when the sender handed the message over,
            // not from when this thread got around to it.
            sleep_until(p.stream_delivery(&mut link_free, msg.wire_size(), enqueued_at));
        }
        if let Err(e) = write_frame(&mut w, &msg) {
            *err_slot.lock() = Some(e);
            // Dropping the queue receiver makes the caller's next
            // `send` fail and pick up the stored error.
            return;
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Reader-thread body: eagerly decode socket frames into the inbox.
/// A transport error is delivered in-stream (after all messages that
/// preceded it), then the thread exits.
fn reader_loop(mut r: BufReader<TcpStream>, q: Sender<TransportResult<Msg>>) {
    loop {
        let res = read_frame(&mut r);
        let done = res.is_err();
        if q.send(res).is_err() || done {
            return;
        }
    }
}

fn mismatch(expected: &'static str, got: &Msg) -> TransportError {
    TransportError::TypeMismatch {
        expected,
        got: got.kind(),
    }
}

/// Create a connected pair of endpoints (Party A's end, Party B's end).
pub fn channel_pair() -> (Endpoint, Endpoint) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    let end = |tx, rx| Endpoint {
        wire: Wire::Channel {
            tx,
            rx,
            link_free: None,
        },
        stats: Arc::new(TrafficStats::default()),
        net: None,
        reconnect: None,
    };
    (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
}

/// A simulated network link: per-message latency plus serialisation
/// delay proportional to the message size.
///
/// The paper's testbed links the two parties at 10 Gbps; to study how
/// BlindFL behaves over slower cross-enterprise links (where its low
/// communication volume matters even more), build the pair with a
/// profile and every message pays `latency + bytes/bandwidth`: inline
/// on the sender of a blocking endpoint, on the streaming schedule of
/// one converted by [`Endpoint::make_pipelined`].
#[derive(Clone, Copy, Debug)]
pub struct NetworkProfile {
    /// One-way latency per message.
    pub latency: std::time::Duration,
    /// Link bandwidth in bytes/second (0 = infinite).
    pub bytes_per_sec: u64,
}

impl NetworkProfile {
    /// The paper's testbed: 10 Gbps LAN, sub-millisecond latency.
    pub fn lan_10gbps() -> Self {
        Self {
            latency: std::time::Duration::from_micros(100),
            bytes_per_sec: 10_000_000_000 / 8,
        }
    }

    /// A conservative cross-enterprise WAN: 20 ms, 100 Mbps.
    pub fn wan_100mbps() -> Self {
        Self {
            latency: std::time::Duration::from_millis(20),
            bytes_per_sec: 100_000_000 / 8,
        }
    }

    /// Serialisation (bandwidth) delay alone — the portion that
    /// occupies the link. Propagation latency pipelines across
    /// in-flight messages on a streaming link, so
    /// [`NetworkProfile::stream_delivery`] accounts for the two
    /// separately.
    fn ser_delay(&self, bytes: usize) -> Duration {
        if self.bytes_per_sec == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64)
        }
    }

    fn delay_for(&self, bytes: usize) -> std::time::Duration {
        self.latency + self.ser_delay(bytes)
    }

    /// The streaming-link schedule: a message of `bytes` handed over at
    /// `handed_over` starts serialising when the sender hands it over
    /// or when the link frees up, whichever is later; propagation
    /// latency then rides on top and pipelines across messages. Moves
    /// `link_free` past this message and returns its delivery instant.
    fn stream_delivery(
        &self,
        link_free: &mut Instant,
        bytes: usize,
        handed_over: Instant,
    ) -> Instant {
        let start = (*link_free).max(handed_over);
        *link_free = start + self.ser_delay(bytes);
        *link_free + self.latency
    }
}

/// Create a connected pair whose messages incur the given simulated
/// network delay (blocking until converted, so wall-clock measurements
/// of protocol phases include the wire time).
pub fn channel_pair_with_network(profile: NetworkProfile) -> (Endpoint, Endpoint) {
    let (a, b) = channel_pair();
    (a.with_network(profile), b.with_network(profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_accounting() {
        let (a, b) = channel_pair();
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.send(Msg::Mat(m.clone())).unwrap();
        a.send(Msg::Scalar(7.5)).unwrap();
        assert_eq!(b.recv_mat().unwrap(), m);
        assert_eq!(b.recv_scalar().unwrap(), 7.5);
        assert_eq!(a.stats().msgs(), 2);
        assert_eq!(a.stats().bytes(), (16 + 32 + 8) as u64);
        assert_eq!(b.stats().msgs(), 0);
    }

    #[test]
    fn duplex_across_threads() {
        let (a, b) = channel_pair();
        let t = std::thread::spawn(move || {
            let v = b.recv_scalar().unwrap();
            b.send(Msg::Scalar(v * 2.0)).unwrap();
        });
        a.send(Msg::Scalar(21.0)).unwrap();
        assert_eq!(a.recv_scalar().unwrap(), 42.0);
        t.join().unwrap();
    }

    #[test]
    fn type_mismatch_is_a_typed_error() {
        let (a, b) = channel_pair();
        a.send(Msg::Scalar(1.0)).unwrap();
        match b.recv_ct() {
            Err(TransportError::TypeMismatch { expected, got }) => {
                assert_eq!(expected, "Ct");
                assert_eq!(got, "Scalar");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dropped_peer_is_disconnected_not_panic() {
        let (a, b) = channel_pair();
        drop(b);
        assert!(matches!(
            a.send(Msg::Scalar(1.0)),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn network_profile_delays_sends() {
        let profile = NetworkProfile {
            latency: std::time::Duration::from_millis(5),
            bytes_per_sec: 0,
        };
        let (a, b) = channel_pair_with_network(profile);
        let t = std::time::Instant::now();
        for _ in 0..4 {
            a.send(Msg::Scalar(1.0)).unwrap();
        }
        assert!(t.elapsed() >= std::time::Duration::from_millis(20));
        for _ in 0..4 {
            b.recv_scalar().unwrap();
        }
    }

    #[test]
    fn network_profile_serialisation_delay() {
        // 1 KiB at 1 KiB/s ≈ 1s; use a tiny message + tiny bandwidth to
        // keep the test fast but measurable.
        let profile = NetworkProfile {
            latency: std::time::Duration::ZERO,
            bytes_per_sec: 1_000,
        };
        assert!(profile.delay_for(100) >= std::time::Duration::from_millis(99));
        let lan = NetworkProfile::lan_10gbps();
        assert!(lan.delay_for(1 << 20) < std::time::Duration::from_millis(2));
        let wan = NetworkProfile::wan_100mbps();
        assert!(wan.delay_for(1 << 20) > std::time::Duration::from_millis(20));
    }

    #[test]
    fn support_roundtrip() {
        let (a, b) = channel_pair();
        a.send(Msg::Support(vec![1, 5, 9])).unwrap();
        assert_eq!(b.recv_support().unwrap(), vec![1, 5, 9]);
    }

    /// One connected TCP endpoint pair over localhost.
    fn tcp_pair() -> (Endpoint, Endpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || Endpoint::tcp_connect(addr).unwrap());
        let host = Endpoint::tcp_accept(&listener).unwrap();
        (t.join().unwrap(), host)
    }

    #[test]
    fn tcp_roundtrip_matches_channel_accounting() {
        let (a, b) = tcp_pair();
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.send(Msg::Mat(m.clone())).unwrap();
        a.send(Msg::Scalar(7.5)).unwrap();
        a.send(Msg::Support(vec![3, 1])).unwrap();
        a.send(Msg::U64(9)).unwrap();
        assert_eq!(b.recv_mat().unwrap(), m);
        assert_eq!(b.recv_scalar().unwrap(), 7.5);
        assert_eq!(b.recv_support().unwrap(), vec![3, 1]);
        assert_eq!(b.recv_u64().unwrap(), 9);
        // Byte accounting identical to the in-process backend.
        let (ca, _cb) = channel_pair();
        ca.send(Msg::Mat(m)).unwrap();
        ca.send(Msg::Scalar(7.5)).unwrap();
        ca.send(Msg::Support(vec![3, 1])).unwrap();
        ca.send(Msg::U64(9)).unwrap();
        assert_eq!(a.stats().bytes(), ca.stats().bytes());
        assert_eq!(a.stats().msgs(), ca.stats().msgs());
        assert_eq!(a.stats().sent_kinds(), ca.stats().sent_kinds());
    }

    #[test]
    fn tcp_duplex_and_disconnect() {
        let (a, b) = tcp_pair();
        let t = std::thread::spawn(move || {
            let v = b.recv_scalar().unwrap();
            b.send(Msg::Scalar(v + 1.0)).unwrap();
            // b drops here: a's next recv must be Disconnected.
        });
        a.send(Msg::Scalar(1.0)).unwrap();
        assert_eq!(a.recv_scalar().unwrap(), 2.0);
        t.join().unwrap();
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn pipelined_channel_preserves_order_content_and_accounting() {
        let (mut a, b) = channel_pair();
        a.make_pipelined(8);
        assert!(a.is_pipelined());
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.send(Msg::Mat(m.clone())).unwrap();
        a.send(Msg::Scalar(7.5)).unwrap();
        a.send(Msg::Support(vec![3, 1])).unwrap();
        assert_eq!(b.recv_mat().unwrap(), m);
        assert_eq!(b.recv_scalar().unwrap(), 7.5);
        assert_eq!(b.recv_support().unwrap(), vec![3, 1]);
        // Accounting identical to the blocking mode.
        let (sync_a, _sync_b) = channel_pair();
        sync_a.send(Msg::Mat(m)).unwrap();
        sync_a.send(Msg::Scalar(7.5)).unwrap();
        sync_a.send(Msg::Support(vec![3, 1])).unwrap();
        assert_eq!(a.stats().bytes(), sync_a.stats().bytes());
        assert_eq!(a.stats().msgs(), sync_a.stats().msgs());
        assert_eq!(a.stats().sent_kinds(), sync_a.stats().sent_kinds());
    }

    #[test]
    fn pipelined_recv_side_prefetches() {
        let (a, mut b) = channel_pair();
        b.make_pipelined(4);
        for i in 0..16 {
            a.send(Msg::U64(i)).unwrap();
        }
        for i in 0..16 {
            assert_eq!(b.recv_u64().unwrap(), i);
        }
    }

    #[test]
    fn pipelined_send_overlaps_network_latency() {
        // Blocking mode sleeps latency+ser inline per send; streaming
        // mode returns immediately and the receiver waits out each
        // message's stamp, with latency pipelined across in-flight
        // messages.
        let profile = NetworkProfile {
            latency: std::time::Duration::from_millis(30),
            bytes_per_sec: 0,
        };
        let (a, b) = channel_pair_with_network(profile);
        let mut a = a;
        a.make_pipelined(8);
        let t = std::time::Instant::now();
        for _ in 0..4 {
            a.send(Msg::Scalar(1.0)).unwrap();
        }
        let enqueue_time = t.elapsed();
        // The blocking path would `sleep` ≥ 4×30 ms = 120 ms inline
        // (thread::sleep guarantees at least its duration), so these
        // bounds discriminate even with generous scheduling slack for
        // loaded CI machines.
        assert!(
            enqueue_time < std::time::Duration::from_millis(90),
            "pipelined sends blocked for {enqueue_time:?}"
        );
        for _ in 0..4 {
            b.recv_scalar().unwrap();
        }
        let total = t.elapsed();
        // Streaming link: ≈ one latency for the whole burst (ideal
        // 30 ms) vs 120 ms stop-and-wait; 115 ms keeps the
        // discrimination while absorbing ~85 ms of scheduler noise.
        assert!(total >= std::time::Duration::from_millis(30));
        assert!(
            total < std::time::Duration::from_millis(115),
            "latencies did not pipeline: {total:?}"
        );
    }

    #[test]
    fn pipelined_drop_flushes_queued_tail() {
        // Messages still in flight when the endpoint drops must reach
        // the peer.
        let profile = NetworkProfile {
            latency: std::time::Duration::from_millis(10),
            bytes_per_sec: 0,
        };
        let (a, b) = channel_pair_with_network(profile);
        let mut a = a;
        a.make_pipelined(8);
        for i in 0..5 {
            a.send(Msg::U64(i)).unwrap();
        }
        drop(a);
        for i in 0..5 {
            assert_eq!(b.recv_u64().unwrap(), i);
        }
        assert!(matches!(b.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn pipelined_disconnect_surfaces_as_error() {
        let (mut a, b) = channel_pair();
        a.make_pipelined(2);
        drop(b);
        // The writer discovers the dead peer asynchronously; keep
        // sending until the error propagates back.
        let mut saw_err = false;
        for _ in 0..64 {
            if a.send(Msg::Scalar(1.0)).is_err() {
                saw_err = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(saw_err, "send against a dead peer never failed");
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn pipelined_tcp_matches_channel_accounting() {
        let (mut a, mut b) = tcp_pair();
        a.make_pipelined(4);
        b.make_pipelined(4);
        let m = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.send(Msg::Mat(m.clone())).unwrap();
        b.send(Msg::Scalar(2.0)).unwrap();
        a.send(Msg::U64(7)).unwrap();
        assert_eq!(b.recv_mat().unwrap(), m);
        assert_eq!(b.recv_u64().unwrap(), 7);
        assert_eq!(a.recv_scalar().unwrap(), 2.0);
        let (ca, _cb) = channel_pair();
        ca.send(Msg::Mat(m)).unwrap();
        ca.send(Msg::U64(7)).unwrap();
        assert_eq!(a.stats().bytes(), ca.stats().bytes());
        assert_eq!(a.stats().sent_kinds(), ca.stats().sent_kinds());
    }

    #[test]
    fn pipelined_tcp_drop_disconnects_the_peer() {
        // Regression: the pipelined reader thread holds a duplicated
        // socket fd; Drop must still get a FIN out so a peer blocked
        // in a *sync* recv observes Disconnected (with queued tail
        // messages delivered first) instead of hanging forever.
        let (mut a, b) = tcp_pair();
        a.make_pipelined(4);
        a.send(Msg::U64(5)).unwrap();
        drop(a);
        assert_eq!(b.recv_u64().unwrap(), 5);
        assert!(matches!(b.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn connect_retry_times_out_with_typed_error() {
        // Bind a port, then drop the listener: nothing ever listens
        // there again, so the retry loop must give up at its overall
        // deadline with a typed Timeout — not loop forever and not
        // return a raw refused error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let budget = Duration::from_millis(200);
        let t = Instant::now();
        let err = Endpoint::tcp_connect_retry(addr, budget)
            .err()
            .expect("never-listening peer must fail");
        assert!(
            matches!(err, TransportError::Timeout { waited } if waited >= budget),
            "expected Timeout, got {err:?}"
        );
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "deadline not honoured: {:?}",
            t.elapsed()
        );
    }

    /// A reconnect-enabled TCP pair: the accept side keeps its
    /// listener for re-accepts, the connect side redials the address.
    fn reconnecting_tcp_pair(window: usize, policy: RetryPolicy) -> (Endpoint, Endpoint) {
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0").unwrap());
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            Endpoint::tcp_connect(addr).unwrap().with_reconnect(
                Redial::Connect(addr),
                policy,
                window,
            )
        });
        let host = Endpoint::tcp_accept(&listener).unwrap().with_reconnect(
            Redial::Accept(listener),
            policy,
            window,
        );
        (t.join().unwrap(), host)
    }

    #[test]
    fn severed_link_reconnects_and_replays_in_flight_frames() {
        let (a, b) = reconnecting_tcp_pair(8, RetryPolicy::default());
        a.send(Msg::U64(1)).unwrap();
        assert_eq!(b.recv_u64().unwrap(), 1);
        // Kill the link, then keep talking: the frame sent into the
        // dead socket must arrive exactly once after the transparent
        // reconnect (b blocks in recv on the dead socket, observes the
        // failure, re-accepts; a's failed send redials and replays).
        a.sever();
        let t = std::thread::spawn(move || {
            let v = b.recv_u64().unwrap();
            let m = b.recv_mat().unwrap();
            b.send(Msg::Scalar(v as f64)).unwrap();
            (v, m, b)
        });
        let m = Dense::from_vec(1, 2, vec![4.0, -5.0]);
        a.send(Msg::U64(2)).unwrap();
        a.send(Msg::Mat(m.clone())).unwrap();
        assert_eq!(a.recv_scalar().unwrap(), 2.0);
        let (v, got, b) = t.join().unwrap();
        assert_eq!(v, 2);
        assert_eq!(got, m);
        // Accounting counts each logical frame exactly once — resync
        // and replay frames are invisible to TrafficStats.
        assert_eq!(a.stats().msgs(), 3);
        assert_eq!(a.stats().bytes(), (8 + 8 + 32) as u64);
        assert_eq!(
            a.stats().sent_kinds(),
            BTreeMap::from([("U64", 2), ("Mat", 1)])
        );
        assert_eq!(b.stats().msgs(), 1);
    }

    #[test]
    fn streaming_conversion_keeps_a_reconnecting_link_alive() {
        // A link configured to survive drops must keep surviving them
        // after a caller asks for the streaming wire (training's
        // pipelined mode and every serve loop do): the endpoint stays
        // blocking, and a severed link reconnects and replays.
        let (mut a, mut b) = reconnecting_tcp_pair(8, RetryPolicy::default());
        a.make_pipelined(4);
        b.make_pipelined(4);
        assert!(!a.is_pipelined() && !b.is_pipelined());
        a.send(Msg::U64(1)).unwrap();
        assert_eq!(b.recv_u64().unwrap(), 1);
        a.sever();
        let t = std::thread::spawn(move || {
            let v = b.recv_u64().unwrap();
            b.send(Msg::Scalar(v as f64)).unwrap();
            b
        });
        a.send(Msg::U64(2)).unwrap();
        assert_eq!(a.recv_scalar().unwrap(), 2.0);
        let b = t.join().unwrap();
        assert_eq!(a.stats().msgs(), 2);
        assert_eq!(a.stats().bytes(), 16);
        assert_eq!(b.stats().msgs(), 1);
    }

    #[test]
    fn stream_schedule_serialises_back_to_back_and_pipelines_latency() {
        let p = NetworkProfile {
            latency: Duration::from_millis(20),
            bytes_per_sec: 1_000,
        };
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut link_free = t0;
        // Two 10-byte messages handed over together: the second waits
        // for the first's 10 ms on the link, latency overlaps.
        assert_eq!(p.stream_delivery(&mut link_free, 10, t0), ms(30));
        assert_eq!(p.stream_delivery(&mut link_free, 10, t0), ms(40));
        assert_eq!(link_free, ms(20));
        // Handed over after the link went idle: starts on hand-over.
        assert_eq!(p.stream_delivery(&mut link_free, 5, ms(100)), ms(125));
        assert_eq!(link_free, ms(105));
    }

    #[test]
    fn reconnect_survives_repeated_drops() {
        let (a, b) = reconnecting_tcp_pair(4, RetryPolicy::default());
        let t = std::thread::spawn(move || {
            for i in 0..6u64 {
                assert_eq!(b.recv_u64().unwrap(), i);
            }
            b
        });
        for i in 0..6u64 {
            if i % 2 == 0 {
                a.sever();
            }
            a.send(Msg::U64(i)).unwrap();
        }
        t.join().unwrap();
    }

    #[test]
    fn replay_gap_beyond_window_is_a_typed_error() {
        // A scripted peer that lost everything: it accepts the redial
        // and announces `recv_seq = 0` although five frames were sent
        // against a 2-frame window. The resync must refuse with a
        // typed Reconnecting error — silently dropping the three
        // unreplayable frames would corrupt the protocol stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            // Original connection: swallow frames, never ack anything.
            let (conn1, _) = listener.accept().unwrap();
            // Redialled connection: speak the resync handshake raw.
            let (mut conn2, _) = listener.accept().unwrap();
            conn2
                .write_all(&wire::encode_frame(&Msg::Resume { recv_seq: 0 }))
                .unwrap();
            let theirs = read_frame(&mut conn2).unwrap();
            assert!(matches!(theirs, Msg::Resume { recv_seq: 0 }));
            drop(conn1);
            conn2
        });
        let a = Endpoint::tcp_connect(addr).unwrap().with_reconnect(
            Redial::Connect(addr),
            RetryPolicy::default(),
            2,
        );
        for i in 0..4u64 {
            a.send(Msg::U64(i)).unwrap();
        }
        // Kill the local write side so the fifth send deterministically
        // fails over into the resync path.
        a.sever();
        let err = a.send(Msg::U64(4)).expect_err("gap exceeds the window");
        match err {
            TransportError::Reconnecting(why) => {
                assert!(why.contains("replay window"), "unexpected reason: {why}")
            }
            other => panic!("expected Reconnecting, got {other:?}"),
        }
        peer.join().unwrap();
    }

    #[test]
    fn sever_reports_backend_capability() {
        let (a, _b) = channel_pair();
        assert!(!a.sever());
        let (ta, _tb) = tcp_pair();
        assert!(ta.sever());
    }

    #[test]
    fn tcp_rejects_garbage_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        });
        let host = Endpoint::tcp_accept(&listener).unwrap();
        assert!(matches!(host.recv(), Err(TransportError::Wire(_))));
        t.join().unwrap();
    }

    #[test]
    fn replay_span_edge_cases() {
        // Fully acknowledged → nothing to replay, even with an empty log.
        assert_eq!(replay_span(0, 0, 0), Ok(0));
        assert_eq!(replay_span(7, 7, 0), Ok(0));
        // Exact window fit.
        assert_eq!(replay_span(10, 7, 3), Ok(3));
        // One frame beyond the window → typed refusal.
        assert!(replay_span(10, 6, 3).unwrap_err().contains("replay window"));
        // A peer acknowledging more than was sent is an impossible
        // cursor, not a zero-length replay.
        assert!(replay_span(3, 4, 8).unwrap_err().contains("ever sent"));
        // u64 gap far beyond usize must refuse, not wrap.
        assert!(replay_span(u64::MAX, 0, 16).is_err());
    }

    proptest::proptest! {
        /// The resync cursor arithmetic never panics, never replays
        /// more than the log holds, and accepts exactly the cursors
        /// with `sent − peer_recv ≤ log_len`.
        #[test]
        fn replay_span_is_sound(
            sent in 0u64..=u64::MAX,
            lag in 0u64..1024,
            log_len in 0usize..512,
        ) {
            let peer_recv = sent.saturating_sub(lag);
            let gap = sent - peer_recv;
            match replay_span(sent, peer_recv, log_len) {
                Ok(n) => {
                    proptest::prop_assert!(n <= log_len);
                    proptest::prop_assert_eq!(n as u64, gap);
                }
                Err(why) => {
                    proptest::prop_assert!(gap > log_len as u64, "refused a coverable gap: {}", why);
                    proptest::prop_assert!(why.contains("replay window"));
                }
            }
        }

        /// An acknowledgement ahead of the send cursor is always an
        /// impossible-cursor error, regardless of window size.
        #[test]
        fn replay_span_rejects_future_acks(
            sent in 0u64..u64::MAX,
            ahead in 1u64..1024,
            log_len in 0usize..512,
        ) {
            let peer_recv = sent.saturating_add(ahead);
            let res = replay_span(sent, peer_recv, log_len);
            proptest::prop_assert!(res.is_err());
            proptest::prop_assert!(res.unwrap_err().contains("ever sent"));
        }
    }
}
