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
//! # Streaming
//!
//! Every endpoint streams from construction: `send` returns once the
//! message is queued, serialisation occupies the (simulated) link back
//! to back, and propagation latency pipelines across in-flight
//! messages, so a party's compute overlaps its wire time. One schedule
//! ([`NetworkProfile::stream_delivery`]), computed on the sending
//! thread, stamps each message with its delivery instant:
//!
//! * in process no thread exists: the peer's `recv` sleeps until the
//!   stamp;
//! * over TCP a writer thread owns the socket's send half (it waits
//!   out the stamp, encodes and writes) and a reader thread eagerly
//!   decodes the receive half into a bounded inbox.
//!
//! A TCP endpoint made [`Endpoint::with_reconnect`] survives a dropped
//! link on the same two threads: the writer redials, swaps
//! [`Msg::Resume`] cursors with the peer, replays the frames the peer
//! missed and hands the reader a fresh read half.
//!
//! Message *content*, *order*, and [`TrafficStats`] accounting
//! (counted on the calling thread, in call order) do not depend on the
//! backend, the profile or a reconnect — streaming reorders wall-clock
//! work, never bytes (the determinism contract
//! `tests/pipeline_parity.rs` enforces).

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_paillier::{CtMat, PublicKey};
use bf_tensor::Dense;
use crossbeam::channel::{bounded, unbounded, Receiver, SendError, Sender};
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

/// Frames a TCP link queues per direction: the writer's outbox bounds a
/// caller that runs ahead of the socket (backpressure, bounding memory)
/// and the reader's inbox bounds how far it prefetches.
const QUEUE_DEPTH: usize = 32;

/// The backend actually moving messages.
enum Wire {
    /// In-process `crossbeam` channel pair: values move, nothing is
    /// serialized. Every message carries the instant it is delivered,
    /// and `recv` sleeps until then — the streaming schedule with no
    /// thread of its own.
    Channel {
        tx: Sender<(Msg, Instant)>,
        rx: Receiver<(Msg, Instant)>,
    },
    /// A TCP stream carrying [`crate::wire`] frames, written and read by
    /// the link's own two threads.
    Tcp(TcpLink),
}

/// The caller's side of a TCP link. A writer thread owns the socket's
/// send half (it waits out each frame's delivery stamp, encodes and
/// writes it, and resyncs a dropped reconnecting link); a reader thread
/// eagerly decodes the receive half into a bounded inbox.
///
/// Fields drop in declaration order, and that order is the teardown:
/// closing the outbox lets the writer drain it, closing the inbox frees
/// a reader blocked on a full one, and `threads` goes last.
struct TcpLink {
    /// The writer's outbox.
    jobs: Sender<Job>,
    /// Decoded frames, then at most one error, from the reader.
    inbox: Receiver<TransportResult<Msg>>,
    threads: LinkThreads,
}

impl TcpLink {
    fn send(&self, frame: Job) -> TransportResult<()> {
        let shared = &self.threads.shared;
        // The writer's unrecoverable failure is reported once, then the
        // closed outbox reports a generic disconnect.
        if let Some(e) = shared.error.lock().take() {
            return Err(e);
        }
        (self.jobs.send(frame)).map_err(|_| {
            shared
                .error
                .lock()
                .take()
                .unwrap_or(TransportError::Disconnected)
        })?;
        self.threads.queued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A TCP link's writer and reader threads (in that order) and what the
/// caller shares with them.
struct LinkThreads {
    shared: Arc<Shared>,
    /// Frames handed to the writer so far.
    queued: AtomicU64,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for LinkThreads {
    fn drop(&mut self) {
        // Let the writer flush the queued tail: the peer may still be
        // waiting on those frames after this side's party loop
        // returned. A slow (simulated) link is legitimate, a peer that
        // stopped reading would leave the writer blocked in `write_all`
        // forever, so the deadline is on per-frame progress: give up
        // after 5 s with no frame delivered.
        let queued = self.queued.load(Ordering::Relaxed);
        let mut written = self.shared.written.load(Ordering::Relaxed);
        let mut stalled_since = Instant::now();
        while written < queued
            && !self.handles[0].is_finished()
            && stalled_since.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(2));
            let now = self.shared.written.load(Ordering::Relaxed);
            if now != written {
                written = now;
                stalled_since = Instant::now();
            }
        }
        // The reader blocks in `read` on its own fd, so without an
        // explicit shutdown the kernel would never send FIN and the
        // peer's `recv` would hang instead of returning `Disconnected`.
        // The reader exits on it, and the writer once the reader is gone
        // (the outbox already is); a resync in flight gives up.
        self.shared.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What a TCP link's caller and its two threads share.
struct Shared {
    /// The socket carrying the link now (each resync swaps it in);
    /// `None` once teardown has begun.
    socket: Mutex<Option<TcpStream>>,
    /// Frames the writer has put on the wire so far.
    written: AtomicU64,
    /// The writer's unrecoverable failure, surfaced on the next `send`.
    error: Mutex<Option<TransportError>>,
}

impl Shared {
    /// Shut the current socket down: the reader and the peer both see
    /// the link fail.
    fn cut(&self) {
        if let Some(stream) = &*self.socket.lock() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Teardown: cut the link, and let no resync start or finish.
    fn close(&self) {
        if let Some(stream) = self.socket.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn closing(&self) -> bool {
        self.socket.lock().is_none()
    }

    /// Make `stream` the link's socket, unless teardown has begun.
    fn adopt(&self, stream: &TcpStream) -> TransportResult<()> {
        match &mut *self.socket.lock() {
            Some(current) => *current = stream.try_clone()?,
            None => return Err(TransportError::Disconnected),
        }
        Ok(())
    }
}

/// What the writer thread works through, in order.
enum Job {
    /// A frame to write once its delivery instant has passed.
    Frame(Msg, Instant),
    /// [`Endpoint::sever`]: cut the link at this point of the stream.
    /// The sender is dropped once the cut has been handled — resynced,
    /// on a reconnecting link.
    Sever(Sender<()>),
    /// The reader's socket failed after it had decoded `received`
    /// frames; the reader waits for the writer's verdict.
    Failed {
        error: TransportError,
        received: u64,
    },
    /// [`Endpoint::with_reconnect`]: log every frame from here on.
    Reconnect(Replay),
}

/// Write one `Msg` as a wire frame. Header and payload are written
/// separately: Ct payloads are megabytes, and a contiguous
/// `encode_frame` buffer would re-copy every one of them on the hot
/// path.
fn write_frame(w: &mut impl Write, msg: &Msg) -> TransportResult<()> {
    let payload = wire::encode_payload(msg);
    let header = wire::frame_header(msg, &payload);
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one wire frame into a `Msg`.
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

/// A reconnecting link's replay state, owned by its writer thread.
///
/// The writer counts every frame it puts on the wire and appends it to
/// a bounded log; the reader counts every frame it decodes. When the
/// link drops, both sides re-establish a socket (per their [`Redial`]),
/// exchange [`Msg::Resume`] cursors (each side sends first, then reads
/// — deadlock-free), and the writer replays exactly the
/// `sent − peer.recv_seq` tail of its log. Frames still in the outbox
/// were never written and simply follow. In-flight frames are therefore
/// neither lost (the gap is replayed) nor duplicated (frames the peer
/// acknowledged are skipped); a gap wider than the log window is a
/// typed [`TransportError::Reconnecting`].
struct Replay {
    redial: Redial,
    policy: RetryPolicy,
    window: usize,
    log: VecDeque<Msg>,
}

impl Replay {
    /// Keep one written frame in the bounded replay window.
    fn log(&mut self, msg: Msg) {
        if self.log.len() == self.window {
            self.log.pop_front();
        }
        self.log.push_back(msg);
    }

    /// Re-establish the physical stream per the redial policy, within
    /// the deadline counted from `start`; teardown aborts the attempt.
    fn redial(&self, start: Instant, shared: &Shared) -> TransportResult<TcpStream> {
        let deadline = start + self.policy.deadline;
        loop {
            if shared.closing() {
                return Err(TransportError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout {
                    waited: start.elapsed(),
                });
            }
            let attempt = match &self.redial {
                Redial::Connect(addr) => TcpStream::connect_timeout(addr, remaining),
                Redial::Accept(listener) => accept_now(listener),
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

/// Accept a waiting connection without blocking (`WouldBlock` when
/// none is), leaving the listener in blocking mode.
fn accept_now(listener: &TcpListener) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let accepted = listener.accept();
    listener.set_nonblocking(false)?;
    let (stream, _) = accepted?;
    stream.set_nonblocking(false)?;
    Ok(stream)
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

/// A resync failure for the caller's next `send`, while the original
/// goes in-stream to its next `recv`.
fn duplicate(e: &TransportError) -> TransportError {
    match e {
        TransportError::Disconnected => TransportError::Disconnected,
        TransportError::Timeout { waited } => TransportError::Timeout { waited: *waited },
        TransportError::Reconnecting(why) => TransportError::Reconnecting(why.clone()),
        other => TransportError::Reconnecting(other.to_string()),
    }
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

/// The writer thread's state.
struct Writer {
    jobs: Receiver<Job>,
    /// Jobs that arrived while the writer waited for the reader to
    /// report a failure, in order.
    held: VecDeque<Job>,
    out: BufWriter<TcpStream>,
    /// Answers to the reader's failure reports: a fresh read half once
    /// the link resynced, or the error to deliver.
    verdicts: Sender<TransportResult<BufReader<TcpStream>>>,
    shared: Arc<Shared>,
    /// Frames put on the wire so far: the send side of the cursor.
    sent: u64,
    /// Set by [`Endpoint::with_reconnect`].
    replay: Option<Replay>,
    /// False once the reader has been handed a terminal error.
    reader_alive: bool,
}

impl Writer {
    fn run(mut self) {
        while let Some(job) = self.held.pop_front().or_else(|| self.jobs.recv().ok()) {
            let running = match job {
                Job::Frame(msg, deliver_at) => {
                    sleep_until(deliver_at);
                    let res = write_frame(&mut self.out, &msg);
                    self.sent += 1;
                    if let Some(replay) = &mut self.replay {
                        replay.log(msg);
                    }
                    match res {
                        Ok(()) => {
                            self.shared.written.store(self.sent, Ordering::Relaxed);
                            true
                        }
                        Err(e) => self.recover(e, None),
                    }
                }
                Job::Sever(done) => {
                    self.shared.cut();
                    let running = self.recover(TransportError::Disconnected, None);
                    drop(done);
                    running
                }
                Job::Failed { error, received } => self.recover(error, Some(received)),
                Job::Reconnect(replay) => {
                    self.replay = Some(replay);
                    true
                }
            };
            if !running {
                return;
            }
        }
    }

    /// Handle a failure the writer hit itself (`reported` is `None`) or
    /// the reader reported after `reported` frames. A dropped
    /// reconnecting link is resynced — the one resync per failure;
    /// anything else ends the side it hit. Returns whether the writer
    /// keeps running.
    fn recover(&mut self, error: TransportError, reported: Option<u64>) -> bool {
        let resumable = is_link_failure(&error)
            && self.replay.is_some()
            && self.reader_alive
            && !self.shared.closing();
        if !resumable {
            return match reported {
                // The read side is done; the write side may still work.
                Some(_) => {
                    self.reader_alive = false;
                    let _ = self.verdicts.send(Err(error));
                    true
                }
                // The write side is done: the next `send` reports why.
                None => {
                    *self.shared.error.lock() = Some(error);
                    false
                }
            };
        }
        // The peer and the reader must see the drop too; the cursor is
        // final once the reader has stopped counting.
        self.shared.cut();
        let Some(received) = reported.or_else(|| self.await_reader()) else {
            return false;
        };
        match self.resync(received) {
            Ok(input) => {
                self.shared.written.store(self.sent, Ordering::Relaxed);
                let _ = self.verdicts.send(Ok(input));
                true
            }
            Err(e) => {
                *self.shared.error.lock() = Some(duplicate(&e));
                let _ = self.verdicts.send(Err(e));
                false
            }
        }
    }

    /// Wait for the reader to report the cut, holding back the jobs
    /// that arrive meanwhile; `None` once the caller and the reader are
    /// both gone.
    fn await_reader(&mut self) -> Option<u64> {
        loop {
            match self.jobs.recv().ok()? {
                Job::Failed { received, .. } => return Some(received),
                job => self.held.push_back(job),
            }
        }
    }

    /// Re-establish the link after the reader stopped at `received`
    /// frames: redial, exchange [`Msg::Resume`] cursors, replay the
    /// frames the peer missed, and return the fresh read half. A fresh
    /// socket that dies mid-resync is redialled; [`RetryPolicy::deadline`]
    /// bounds the whole resync. Resync and replayed frames bypass
    /// [`TrafficStats`]: the logical traffic of a run is unchanged by a
    /// reconnect.
    fn resync(&mut self, received: u64) -> TransportResult<BufReader<TcpStream>> {
        let replay = self.replay.as_ref().expect("a resumable link replays");
        let start = Instant::now();
        let deadline = start + replay.policy.deadline;
        loop {
            let stream = replay.redial(start, &self.shared)?;
            let exchange = || -> TransportResult<(BufWriter<TcpStream>, BufReader<TcpStream>)> {
                self.shared.adopt(&stream)?;
                // The peer's cursor must arrive within the deadline too.
                let remaining = deadline.saturating_duration_since(Instant::now());
                stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
                let mut out = BufWriter::new(stream.try_clone()?);
                let mut input = BufReader::new(stream.try_clone()?);
                write_frame(&mut out, &Msg::Resume { recv_seq: received })?;
                let peer_recv = match read_frame(&mut input)? {
                    Msg::Resume { recv_seq } => recv_seq,
                    other => {
                        return Err(TransportError::Reconnecting(format!(
                            "peer sent {} instead of a Resume cursor",
                            other.kind()
                        )))
                    }
                };
                let log = &replay.log;
                let gap = replay_span(self.sent, peer_recv, log.len())
                    .map_err(TransportError::Reconnecting)?;
                for msg in log.iter().skip(log.len() - gap) {
                    write_frame(&mut out, msg)?;
                }
                stream.set_read_timeout(None)?;
                Ok((out, input))
            };
            match exchange() {
                Ok((out, input)) => {
                    self.out = out;
                    return Ok(input);
                }
                Err(e) if is_link_failure(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reader-thread body: decode frames into the inbox, counting them. A
/// failed read goes to the writer, which answers with a fresh read half
/// (the link resynced) or the error to deliver in-stream, after every
/// frame that preceded it.
fn reader_loop(
    mut input: BufReader<TcpStream>,
    inbox: Sender<TransportResult<Msg>>,
    jobs: Sender<Job>,
    verdicts: Receiver<TransportResult<BufReader<TcpStream>>>,
) {
    let mut received = 0u64;
    loop {
        let error = match read_frame(&mut input) {
            Ok(msg) => {
                received += 1;
                if inbox.send(Ok(msg)).is_err() {
                    return;
                }
                continue;
            }
            Err(error) => error,
        };
        let verdict = match jobs.send(Job::Failed { error, received }) {
            Ok(()) => verdicts.recv().unwrap_or(Err(TransportError::Disconnected)),
            // The writer is gone: deliver the error as it is.
            Err(SendError(Job::Failed { error, .. })) => Err(error),
            Err(_) => unreachable!("the job sent was a failure report"),
        };
        match verdict {
            Ok(fresh) => input = fresh,
            Err(e) => {
                let _ = inbox.send(Err(e));
                return;
            }
        }
    }
}

/// One party's end of a duplex link (in-process or TCP).
pub struct Endpoint {
    wire: Wire,
    stats: Arc<TrafficStats>,
    net: Option<NetworkProfile>,
    /// When the simulated link finishes serialising the last message
    /// sent ([`NetworkProfile::stream_delivery`]).
    link_free: Mutex<Instant>,
}

impl Endpoint {
    fn new(wire: Wire) -> Endpoint {
        Endpoint {
            wire,
            stats: Arc::new(TrafficStats::default()),
            net: None,
            link_free: Mutex::new(Instant::now()),
        }
    }

    /// Send a message to the peer. Returns once the message is queued;
    /// with a [`NetworkProfile`] it reaches the peer on the streaming
    /// schedule.
    pub fn send(&self, msg: Msg) -> TransportResult<()> {
        let bytes = msg.wire_size();
        self.stats
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats.sent_by_kind[usize::from(wire::kind_byte(&msg))].fetch_add(1, Ordering::Relaxed);
        let deliver_at = match &self.net {
            Some(net) => net.stream_delivery(&mut self.link_free.lock(), bytes, Instant::now()),
            None => Instant::now(),
        };
        match &self.wire {
            Wire::Channel { tx, .. } => tx
                .send((msg, deliver_at))
                .map_err(|_| TransportError::Disconnected),
            Wire::Tcp(link) => link.send(Job::Frame(msg, deliver_at)),
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
            // The reader is gone after delivering its final error.
            Wire::Tcp(link) => (link.inbox.recv()).unwrap_or(Err(TransportError::Disconnected)),
        }
    }

    /// Forcibly shut down the underlying TCP socket once every message
    /// sent so far has been written — the `Drop` fault injection seam:
    /// the connection dies mid-run at a fixed point of the message
    /// stream while both party processes stay up, exactly what a flaky
    /// WAN does. A reconnecting endpoint returns once the link has
    /// resynced (or failed to: the next `send` says why); any other
    /// surfaces the failure on its next operations. Returns `false` on
    /// backends with no socket to sever (in-process channels).
    pub fn sever(&self) -> bool {
        let Wire::Tcp(link) = &self.wire else {
            return false;
        };
        let (done, handled) = bounded::<()>(1);
        if link.jobs.send(Job::Sever(done)).is_ok() {
            let _ = handled.recv();
        }
        true
    }

    /// Enable transparent reconnection with a bounded replay cursor on
    /// this TCP endpoint. `window` bounds how many recent frames are
    /// kept for replay; the protocols here are strict request/response,
    /// so a handful suffices. The link keeps streaming: its writer
    /// thread resyncs a dropped link in place.
    pub fn with_reconnect(self, redial: Redial, policy: RetryPolicy, window: usize) -> Endpoint {
        assert!(window >= 1, "replay window must hold at least 1 frame");
        let Wire::Tcp(link) = &self.wire else {
            panic!("reconnection requires a TCP endpoint");
        };
        // A writer that already died has nothing left to resync.
        let _ = link.jobs.send(Job::Reconnect(Replay {
            redial,
            policy,
            window,
            log: VecDeque::with_capacity(window),
        }));
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

    /// Attach a simulated network profile, applied to every subsequent
    /// `send` on either backend.
    pub fn with_network(mut self, profile: NetworkProfile) -> Endpoint {
        self.net = Some(profile);
        self
    }

    /// Wrap an established TCP stream and start the link's writer and
    /// reader threads. Disables Nagle's algorithm — the protocols are
    /// strict request/response ping-pong, where delayed ACKs would
    /// otherwise dominate round times.
    pub fn from_tcp_stream(stream: TcpStream) -> TransportResult<Endpoint> {
        stream.set_nodelay(true)?;
        let input = BufReader::new(stream.try_clone()?);
        let shared = Arc::new(Shared {
            socket: Mutex::new(Some(stream.try_clone()?)),
            written: AtomicU64::new(0),
            error: Mutex::new(None),
        });
        let (jobs, job_rx) = bounded(QUEUE_DEPTH);
        let (inbox_tx, inbox) = bounded(QUEUE_DEPTH);
        let (verdicts, verdict_rx) = bounded(1);
        let writer = Writer {
            jobs: job_rx,
            held: VecDeque::new(),
            out: BufWriter::new(stream),
            verdicts,
            shared: Arc::clone(&shared),
            sent: 0,
            replay: None,
            reader_alive: true,
        };
        let writer = std::thread::Builder::new()
            .name("bf-mpc-writer".into())
            .spawn(move || writer.run())?;
        let reader_jobs = jobs.clone();
        let reader = std::thread::Builder::new()
            .name("bf-mpc-reader".into())
            .spawn(move || reader_loop(input, inbox_tx, reader_jobs, verdict_rx))?;
        Ok(Endpoint::new(Wire::Tcp(TcpLink {
            jobs,
            inbox,
            threads: LinkThreads {
                shared,
                queued: AtomicU64::new(0),
                handles: vec![writer, reader],
            },
        })))
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
    let end = |tx, rx| Endpoint::new(Wire::Channel { tx, rx });
    (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
}

/// A simulated network link: per-message latency plus serialisation
/// delay proportional to the message size.
///
/// The paper's testbed links the two parties at 10 Gbps; to study how
/// BlindFL behaves over slower cross-enterprise links (where its low
/// communication volume matters even more), build the pair with a
/// profile and every message pays `latency + bytes/bandwidth` on the
/// streaming schedule ([`NetworkProfile::stream_delivery`]).
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
    /// in-flight messages, so [`NetworkProfile::stream_delivery`]
    /// accounts for the two separately.
    fn ser_delay(&self, bytes: usize) -> Duration {
        if self.bytes_per_sec == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64)
        }
    }

    /// One message's whole wire time, from the start of its
    /// serialisation to its delivery.
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
        start + self.delay_for(bytes)
    }
}

/// Create a connected pair whose messages incur the given simulated
/// network delay on the streaming schedule: `send` returns at once, the
/// peer's `recv` waits until the message is delivered.
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
        // The delay shows at the receiver: no message arrives before
        // one latency has passed since it was sent.
        let profile = NetworkProfile {
            latency: std::time::Duration::from_millis(5),
            bytes_per_sec: 0,
        };
        let (a, b) = channel_pair_with_network(profile);
        let t = std::time::Instant::now();
        for _ in 0..4 {
            a.send(Msg::Scalar(1.0)).unwrap();
        }
        b.recv_scalar().unwrap();
        assert!(t.elapsed() >= std::time::Duration::from_millis(5));
        for _ in 0..3 {
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
        let (a, b) = channel_pair();
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.send(Msg::Mat(m.clone())).unwrap();
        a.send(Msg::Scalar(7.5)).unwrap();
        a.send(Msg::Support(vec![3, 1])).unwrap();
        assert_eq!(b.recv_mat().unwrap(), m);
        assert_eq!(b.recv_scalar().unwrap(), 7.5);
        assert_eq!(b.recv_support().unwrap(), vec![3, 1]);
        // Accounting counts each message once, in call order.
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
        let (a, b) = channel_pair();
        for i in 0..16 {
            a.send(Msg::U64(i)).unwrap();
        }
        for i in 0..16 {
            assert_eq!(b.recv_u64().unwrap(), i);
        }
    }

    #[test]
    fn pipelined_send_overlaps_network_latency() {
        // `send` returns immediately and the receiver waits out each
        // message's stamp, with latency pipelined across in-flight
        // messages.
        let profile = NetworkProfile {
            latency: std::time::Duration::from_millis(30),
            bytes_per_sec: 0,
        };
        let (a, b) = channel_pair_with_network(profile);
        let t = std::time::Instant::now();
        for _ in 0..4 {
            a.send(Msg::Scalar(1.0)).unwrap();
        }
        let enqueue_time = t.elapsed();
        // A stop-and-wait link would `sleep` ≥ 4×30 ms = 120 ms inline
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
        let (a, b) = channel_pair();
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
        let (a, b) = tcp_pair();
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
        // Regression: the reader thread holds a duplicated socket fd;
        // Drop must still get a FIN out so a peer blocked in recv
        // observes Disconnected (with queued tail messages delivered
        // first) instead of hanging forever.
        let (a, b) = tcp_pair();
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
    fn a_reconnecting_link_streams_and_survives_a_sever() {
        // Drop survival and overlap at once: on a 30 ms link the sends
        // of a reconnecting endpoint return at once and their latencies
        // pipeline, and a severed link reconnects and replays.
        let profile = NetworkProfile {
            latency: Duration::from_millis(30),
            bytes_per_sec: 0,
        };
        let (a, b) = reconnecting_tcp_pair(8, RetryPolicy::default());
        let (a, b) = (a.with_network(profile), b.with_network(profile));
        let t = Instant::now();
        for i in 0..4 {
            a.send(Msg::U64(i)).unwrap();
        }
        assert!(
            t.elapsed() < Duration::from_millis(90),
            "reconnecting sends blocked for {:?}",
            t.elapsed()
        );
        for i in 0..4 {
            assert_eq!(b.recv_u64().unwrap(), i);
        }
        let total = t.elapsed();
        assert!(total >= Duration::from_millis(30));
        assert!(
            total < Duration::from_millis(115),
            "latencies did not pipeline: {total:?}"
        );
        a.sever();
        let t = std::thread::spawn(move || {
            let v = b.recv_u64().unwrap();
            b.send(Msg::Scalar(v as f64)).unwrap();
            b
        });
        a.send(Msg::U64(9)).unwrap();
        assert_eq!(a.recv_scalar().unwrap(), 9.0);
        let b = t.join().unwrap();
        assert_eq!(a.stats().msgs(), 5);
        assert_eq!(a.stats().bytes(), 40);
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
