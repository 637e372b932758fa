//! The event-driven connection plane: a few threads, thousands of
//! sockets.
//!
//! Each event thread owns a set of `set_nonblocking` connections and
//! drives a per-connection state machine — read-accumulate →
//! [`parse_request_limited`] → dispatch → write-drain — around a `poll(2)`
//! readiness wait (declared directly, like [`crate::signal`]: std
//! links libc anyway). Thread 0 additionally owns the nonblocking
//! listener and deals accepted connections round-robin across the
//! event threads.
//!
//! The split of work is the point of the design:
//!
//! * **Answered inline on the event thread** (never queued): control
//!   routes (`/health`, `/metrics`, shutdown), routing errors, warm
//!   cache hits, and 429/503 refusals. A warm hit is a hash-map probe
//!   plus two syscalls, so its latency is bounded by syscall cost, not
//!   by queue depth or worker count.
//! * **Handed to the compute pool**: cache misses, as [`ComputeJob`]s
//!   through the same [`BoundedQueue`](crate::pool::BoundedQueue)
//!   admission point as before — singleflight coalescing, the
//!   dequeue-time deadline check, and 429 shedding keep their
//!   semantics; the completion rides back to the owning event thread
//!   through its [`EventInbox`] and a self-pipe wake.
//!
//! Keep-alive and pipelining: a connection's buffer may hold several
//! requests; they dispatch strictly in order (the next one only after
//! the previous response is enqueued), which makes pipelined responses
//! naturally in-order. `Connection: close` (or HTTP/1.0) drains the
//! response then closes.
//!
//! A stuck peer cannot pin an event thread: a partial request times
//! out against the per-request deadline (408), an unread response
//! against a write-stall bound, and an idle keep-alive connection
//! against an idle bound — all enforced by a sweep whose next due time
//! feeds the poll timeout, so an idle daemon wakes ~2 times a second
//! instead of the old accept loop's ~2000 no-op polls.

use crate::http::{parse_request_limited, ParseOutcome, Request, Response};
use crate::metrics::ServeMetrics;
use crate::pool::Pushed;
use crate::router::{body_limit, route, Route};
use crate::server::{finish_api, wire_bytes, ComputeJob, Shared, Work};
use crate::signal;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tcor_common::{fault, TcorError, TcorResult};

/// Poll timeout while idle (stop-flag and signal responsiveness).
const IDLE_POLL: Duration = Duration::from_millis(500);
/// Poll timeout while draining for shutdown.
const DRAIN_POLL: Duration = Duration::from_millis(25);
/// A connection whose peer stops reading our response is closed after
/// this long without write progress (it cannot pin buffer memory).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// An idle keep-alive connection is closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Most unparsed bytes buffered per connection before reads pause
/// (pipelining backpressure).
const MAX_CONN_BUF: usize = 256 * 1024;
/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

#[cfg(unix)]
mod sys {
    //! `poll(2)`, declared directly (std links libc; same precedent as
    //! [`crate::signal`]).
    use std::os::raw::{c_int, c_ulong};
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Readiness wait: blocks until a descriptor is ready or `timeout`
    /// passes. EINTR (a signal arrived) reports as 0 ready — callers
    /// re-check their stop conditions every iteration anyway.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
        let mut ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        if ms == 0 && timeout > Duration::ZERO {
            ms = 1;
        }
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        n.max(0) as usize
    }
}

#[cfg(not(unix))]
mod sys {
    //! Portability fallback without a readiness syscall: report every
    //! descriptor ready after a short sleep. Nonblocking I/O turns
    //! that into a bounded busy-poll — correct, just not cheap; the
    //! deployment targets are all Unix.
    use std::time::Duration;

    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        fds.len()
    }
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

/// The wake-pipe read end an event thread polls.
#[cfg(unix)]
pub(crate) type WakeRx = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
pub(crate) type WakeRx = ();

/// A finished compute job riding back to the event thread that owns
/// its connection.
pub(crate) struct Completion {
    /// Connection id the response belongs to.
    pub conn: u64,
    /// The response to serialize (already accounted by `finish_api`).
    pub response: Response,
}

/// One event thread's mailbox: completions from the compute pool,
/// connection hand-offs from the accepting thread, and the wake pipe
/// that interrupts its poll.
pub(crate) struct EventInbox {
    completions: Mutex<VecDeque<Completion>>,
    handoffs: Mutex<Vec<TcpStream>>,
    #[cfg(unix)]
    wake_tx: std::os::unix::net::UnixStream,
}

impl EventInbox {
    /// Builds the inbox plus the wake-pipe read end its event thread
    /// will poll.
    ///
    /// # Errors
    ///
    /// A serve-class error if the self-pipe cannot be created.
    pub(crate) fn new() -> TcorResult<(Arc<EventInbox>, WakeRx)> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair().map_err(|e| {
                TcorError::with_source(tcor_common::ErrorKind::Serve, "creating wake pipe", e)
            })?;
            tx.set_nonblocking(true)
                .and_then(|()| rx.set_nonblocking(true))
                .map_err(|e| {
                    TcorError::with_source(
                        tcor_common::ErrorKind::Serve,
                        "configuring wake pipe",
                        e,
                    )
                })?;
            Ok((
                Arc::new(EventInbox {
                    completions: Mutex::new(VecDeque::new()),
                    handoffs: Mutex::new(Vec::new()),
                    wake_tx: tx,
                }),
                rx,
            ))
        }
        #[cfg(not(unix))]
        {
            Ok((
                Arc::new(EventInbox {
                    completions: Mutex::new(VecDeque::new()),
                    handoffs: Mutex::new(Vec::new()),
                }),
                (),
            ))
        }
    }

    /// Interrupts the owning thread's poll. Best-effort: a full pipe
    /// means a wake is already pending, which is all we need.
    pub(crate) fn notify(&self) {
        #[cfg(unix)]
        {
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }

    /// Delivers a finished compute job (called from pool workers).
    pub(crate) fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(completion);
        self.notify();
    }

    /// Hands an accepted connection to this thread (called from the
    /// accepting event thread).
    fn hand_off(&self, stream: TcpStream) {
        self.handoffs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stream);
        self.notify();
    }

    fn take_completions(&self) -> VecDeque<Completion> {
        std::mem::take(
            &mut self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn take_handoffs(&self) -> Vec<TcpStream> {
        std::mem::take(&mut self.handoffs.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Serialized responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Parsed requests not yet dispatched (pipelining).
    pending: VecDeque<(Request, Instant)>,
    /// A compute job for this connection is in the pool.
    inflight: bool,
    /// Keep-alive state negotiated by the most recently dispatched
    /// request.
    keep_alive: bool,
    /// Stop reading; close once responses drain and nothing is inflight.
    close_after_drain: bool,
    /// `serve/drop_conn` fired: hard-sever after the truncated write.
    severed: bool,
    /// Peer sent FIN; requests already buffered still get answers.
    peer_closed: bool,
    /// When the first byte of the currently-incomplete request arrived
    /// (slowloris clock; cleared when the request parses).
    partial_since: Option<Instant>,
    /// `serve/stall_read` fired: don't parse new bytes until then.
    stall_until: Option<Instant>,
    /// Head+body size of the in-progress request once its head has
    /// parsed and its declared body passed the per-route limit — the
    /// read cap is raised to this so an *allowed* large body (stream
    /// ingest) can finish arriving; hostile sizes were already 413'd.
    frame_total: Option<usize>,
    last_activity: Instant,
    /// Requests parsed on this connection (≥ 2 ⇒ keep-alive reuse).
    served: u64,
    /// Marked for removal at the next reap.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            inflight: false,
            keep_alive: true,
            close_after_drain: false,
            severed: false,
            peer_closed: false,
            partial_since: None,
            stall_until: None,
            frame_total: None,
            last_activity: Instant::now(),
            served: 0,
            dead: false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Read cap: the pipelining backpressure bound, raised to the
    /// in-progress request's admitted frame size when that is larger.
    fn read_cap(&self) -> usize {
        MAX_CONN_BUF.max(self.frame_total.unwrap_or(0))
    }

    fn wants_read(&self, stopping: bool) -> bool {
        !stopping
            && !self.dead
            && !self.close_after_drain
            && !self.peer_closed
            && self.stall_until.is_none()
            && self.buf.len() < self.read_cap()
    }

    /// Nothing left to do for this connection: safe to close.
    fn finished(&self) -> bool {
        !self.inflight && self.pending.is_empty() && !self.has_output()
    }
}

enum Tag {
    Wake,
    Listener,
    Conn(u64),
}

/// One event thread. `listener` is `Some` only on thread 0.
pub(crate) fn event_loop(
    id: usize,
    shared: Arc<Shared>,
    inbox: Arc<EventInbox>,
    rx: WakeRx,
    listener: Option<TcpListener>,
) {
    EventLoop {
        id,
        shared,
        inbox,
        rx,
        listener,
        conns: HashMap::new(),
        next_conn: 0,
        rr: 0,
        announced_stop: false,
    }
    .run();
}

struct EventLoop {
    id: usize,
    shared: Arc<Shared>,
    inbox: Arc<EventInbox>,
    #[allow(dead_code)] // read on unix only
    rx: WakeRx,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    rr: u64,
    announced_stop: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut tags: Vec<Tag> = Vec::new();
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst) || signal::requested();
            if stopping {
                self.begin_drain();
            }
            for stream in self.inbox.take_handoffs() {
                if stopping {
                    drop(stream); // arrived after stop: refused at the door
                } else {
                    self.register(stream);
                }
            }
            for completion in self.inbox.take_completions() {
                self.on_completion(completion);
            }
            self.sweep(Instant::now());
            self.reap();
            if stopping && self.conns.is_empty() {
                break;
            }

            fds.clear();
            tags.clear();
            #[cfg(unix)]
            {
                fds.push(sys::PollFd {
                    fd: fd_of(&self.rx),
                    events: sys::POLLIN,
                    revents: 0,
                });
                tags.push(Tag::Wake);
            }
            if let Some(listener) = &self.listener {
                fds.push(sys::PollFd {
                    fd: fd_of(listener),
                    events: sys::POLLIN,
                    revents: 0,
                });
                tags.push(Tag::Listener);
            }
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if conn.wants_read(stopping) {
                    events |= sys::POLLIN;
                }
                if conn.has_output() {
                    events |= sys::POLLOUT;
                }
                if events != 0 {
                    fds.push(sys::PollFd {
                        fd: fd_of(&conn.stream),
                        events,
                        revents: 0,
                    });
                    tags.push(Tag::Conn(id));
                }
            }
            let timeout = self.next_timeout(stopping);
            sys::wait(&mut fds, timeout);
            ServeMetrics::bump(&self.shared.metrics.eventloop_wakeups);
            for (fd, tag) in fds.iter().zip(&tags) {
                if fd.revents == 0 {
                    continue;
                }
                match tag {
                    Tag::Wake => self.drain_wake(),
                    Tag::Listener => self.accept_ready(),
                    Tag::Conn(id) => self.conn_ready(*id, fd.revents),
                }
            }
            self.reap();
        }
    }

    /// First observation of the stop flag: stop accepting, mark every
    /// connection close-after-drain, and wake the sibling threads so
    /// they notice without waiting out their poll timeout.
    fn begin_drain(&mut self) {
        self.listener = None;
        for conn in self.conns.values_mut() {
            conn.close_after_drain = true;
        }
        if !self.announced_stop {
            self.announced_stop = true;
            for inbox in &self.shared.inboxes {
                inbox.notify();
            }
        }
    }

    fn drain_wake(&mut self) {
        #[cfg(unix)]
        {
            let mut tmp = [0u8; 256];
            loop {
                match (&self.rx).read(&mut tmp) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let id = (self.id as u64) << 48 | self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, Conn::new(stream));
        ServeMetrics::bump(&self.shared.metrics.conns_accepted);
        ServeMetrics::bump(&self.shared.metrics.conns_open);
        // The client's request may already be in the socket buffer.
        self.readable(id);
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let n = self.shared.inboxes.len().max(1);
                    let target = (self.rr as usize) % n;
                    self.rr += 1;
                    if target == self.id {
                        self.register(stream);
                    } else {
                        self.shared.inboxes[target].hand_off(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, id: u64, revents: i16) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            conn.dead = true;
            return;
        }
        if revents & (sys::POLLIN | sys::POLLHUP) != 0 {
            self.readable(id);
        }
        if revents & sys::POLLOUT != 0 {
            self.writable(id);
        }
    }

    fn readable(&mut self, id: u64) {
        let now = Instant::now();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.dead || conn.close_after_drain {
            return;
        }
        let mut tmp = [0u8; READ_CHUNK];
        let mut read_any = false;
        loop {
            if conn.buf.len() >= conn.read_cap() {
                break;
            }
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&tmp[..n]);
                    read_any = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if read_any {
            conn.last_activity = now;
            if conn.partial_since.is_none() && !conn.buf.is_empty() {
                conn.partial_since = Some(now);
                // Chaos: a stalled read — the bytes sit unparsed, as
                // if the peer (or kernel) had stopped delivering them.
                if let Some(ms) = fault::fire("serve/stall_read") {
                    conn.stall_until = Some(now + Duration::from_millis(ms));
                }
            }
        }
        if conn.stall_until.is_none() {
            self.parse_ready(id);
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.peer_closed && conn.finished() {
                conn.dead = true;
            }
        }
    }

    /// Parses every complete request at the front of the buffer into
    /// the pending queue, then pumps the dispatch state machine.
    fn parse_ready(&mut self, id: u64) {
        let mut parsed = 0u32;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.dead || conn.close_after_drain {
                break;
            }
            match parse_request_limited(&conn.buf, |req| body_limit(&req.method, &req.path)) {
                Ok(ParseOutcome::Complete(request, consumed)) => {
                    conn.buf.drain(..consumed);
                    conn.frame_total = None;
                    let arrived = conn.partial_since.take().unwrap_or_else(Instant::now);
                    if !conn.buf.is_empty() {
                        conn.partial_since = Some(Instant::now());
                    }
                    conn.served += 1;
                    if conn.served > 1 {
                        ServeMetrics::bump(&self.shared.metrics.keepalive_reuses);
                    }
                    conn.pending.push_back((request, arrived));
                    parsed += 1;
                }
                Ok(ParseOutcome::Incomplete { frame }) => {
                    conn.frame_total = frame;
                    break;
                }
                Ok(ParseOutcome::BodyTooLarge { declared, limit }) => {
                    // The head alone convicted the request: answer 413
                    // and close without ever buffering the body.
                    ServeMetrics::bump(&self.shared.metrics.body_rejected);
                    conn.keep_alive = false;
                    conn.buf.clear();
                    conn.partial_since = None;
                    conn.frame_total = None;
                    conn.pending.clear();
                    conn.close_after_drain = true;
                    self.enqueue_response(
                        id,
                        Response::text(
                            413,
                            format!(
                                "declared body of {declared} bytes exceeds the \
                                 {limit}-byte limit for this route\n"
                            ),
                        ),
                    );
                    break;
                }
                Err(e) => {
                    // Framing is poisoned: answer 400 and close.
                    // (`close_after_drain` is set before the enqueue
                    // so the synchronous drain inside it already sees
                    // a finished connection and closes it.)
                    conn.keep_alive = false;
                    conn.buf.clear();
                    conn.partial_since = None;
                    conn.frame_total = None;
                    conn.pending.clear();
                    conn.close_after_drain = true;
                    self.enqueue_response(id, Response::text(400, format!("{e}\n")));
                    break;
                }
            }
        }
        if parsed >= 2 {
            ServeMetrics::bump(&self.shared.metrics.pipelined_batches);
        }
        if parsed > 0 {
            self.pump(id);
        }
    }

    /// Dispatches pending requests in order. Stops at the first one
    /// that goes to the compute pool (responses must stay in request
    /// order) and resumes when its completion arrives.
    fn pump(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.dead || conn.inflight {
                return;
            }
            if conn.close_after_drain {
                // `Connection: close` (or shutdown drain): anything
                // still pending was never admitted and is dropped.
                conn.pending.clear();
                return;
            }
            let Some((request, arrived)) = conn.pending.pop_front() else {
                return;
            };
            conn.keep_alive = request.wants_keep_alive();
            let close_after = !conn.keep_alive;
            if close_after {
                conn.close_after_drain = true;
            }
            match self.dispatch(id, &request, arrived) {
                Some(response) => self.enqueue_response(id, response),
                None => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.inflight = true;
                    }
                    return;
                }
            }
        }
    }

    /// Routes one request: `Some(response)` to answer inline, `None`
    /// when a compute job was queued for it.
    fn dispatch(&mut self, id: u64, request: &Request, arrived: Instant) -> Option<Response> {
        let shared = Arc::clone(&self.shared);
        match route(request) {
            Err(response) => Some(response),
            Ok(Route::Health) => Some(if shared.cache.degraded() {
                Response::text(200, "degraded\n")
            } else {
                Response::text(200, "ok\n")
            }),
            Ok(Route::Metrics) => Some(Response::text(200, shared.metrics_text())),
            Ok(Route::Shutdown) => {
                shared.stop.store(true, Ordering::SeqCst);
                for inbox in &shared.inboxes {
                    inbox.notify();
                }
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.keep_alive = false;
                    conn.close_after_drain = true;
                }
                Some(Response::text(200, "shutting down\n"))
            }
            Ok(Route::Api(call)) => {
                // Warm probe inline: a cache hit never touches the
                // queue, so its latency is two syscalls + a map probe.
                if let Some((response, source)) = shared.try_warm(&call) {
                    shared.note_received(&call);
                    finish_api(
                        &shared,
                        self.id as u64,
                        &request.path,
                        arrived,
                        &response,
                        source,
                    );
                    return Some(response);
                }
                let endpoint = call.endpoint();
                let canonical = call.canonical();
                let job = ComputeJob {
                    thread: self.id,
                    conn: id,
                    work: Work::Api(call),
                    path: request.path.clone(),
                    arrived,
                };
                match shared.queue.try_push(job) {
                    Pushed::Accepted => {
                        shared.note_received_parts(endpoint, &canonical);
                        None
                    }
                    Pushed::Full(_) => Some(shared.shed_response()),
                    Pushed::ShuttingDown(_) => Some(Response::text(503, "shutting down\n")),
                }
            }
            Ok(Route::Stream(op)) => {
                // Stream ops are stateful: no warm probe, no
                // coalescing — straight through the same bounded
                // admission point as API work.
                let endpoint = op.endpoint();
                let job = ComputeJob {
                    thread: self.id,
                    conn: id,
                    work: Work::Stream(op),
                    path: request.path.clone(),
                    arrived,
                };
                match shared.queue.try_push(job) {
                    Pushed::Accepted => {
                        shared.note_received_parts(endpoint, endpoint);
                        None
                    }
                    Pushed::Full(_) => Some(shared.shed_response()),
                    Pushed::ShuttingDown(_) => Some(Response::text(503, "shutting down\n")),
                }
            }
        }
    }

    fn on_completion(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&completion.conn) else {
            return; // the connection died while its job computed
        };
        conn.inflight = false;
        self.enqueue_response(completion.conn, completion.response);
        self.pump(completion.conn);
    }

    /// Serializes a response (connection header per negotiated state,
    /// integrity stamp, armed serve-plane faults) onto the
    /// connection's output buffer and drains opportunistically.
    fn enqueue_response(&mut self, id: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.dead || conn.severed {
            return;
        }
        let keep = conn.keep_alive && !conn.close_after_drain;
        let (bytes, sever) = wire_bytes(&response.with_keep_alive(keep));
        conn.out.extend_from_slice(&bytes);
        if sever {
            conn.severed = true;
            conn.close_after_drain = true;
        }
        self.writable(id);
    }

    fn writable(&mut self, id: u64) {
        let now = Instant::now();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.has_output() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.severed {
            let _ = conn.stream.shutdown(Shutdown::Both);
            conn.dead = true;
            return;
        }
        if (conn.close_after_drain || conn.peer_closed) && conn.finished() {
            conn.dead = true;
        }
    }

    /// Time-based state transitions: stalled-read expiry, slowloris
    /// 408s, write-stall and idle closes.
    fn sweep(&mut self, now: Instant) {
        let deadline = self.shared.deadline;
        let mut resume_parse = Vec::new();
        let mut expire = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            if conn.dead {
                continue;
            }
            // A close-marked connection owing nothing closes now —
            // without this, an idle keep-alive conn at shutdown would
            // sit out the full idle timeout (reads stop during drain,
            // so even the peer's FIN goes unnoticed).
            if conn.close_after_drain && conn.finished() {
                conn.dead = true;
                continue;
            }
            if let Some(until) = conn.stall_until {
                if now >= until {
                    conn.stall_until = None;
                    resume_parse.push(id);
                }
            }
            if let Some(since) = conn.partial_since {
                // Slowloris: a request that never completes times out
                // against the same per-request deadline as real work —
                // but only once every earlier response has drained, so
                // pipelined responses stay in order.
                if conn.finished() && now.saturating_duration_since(since) >= deadline {
                    expire.push(id);
                    continue;
                }
            }
            if conn.has_output()
                && now.saturating_duration_since(conn.last_activity) >= WRITE_STALL_TIMEOUT
            {
                conn.dead = true;
                continue;
            }
            if conn.finished()
                && conn.buf.is_empty()
                && now.saturating_duration_since(conn.last_activity) >= IDLE_TIMEOUT
            {
                conn.dead = true;
            }
        }
        for id in resume_parse {
            self.parse_ready(id);
        }
        for id in expire {
            ServeMetrics::bump(&self.shared.metrics.deadline_expired);
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.keep_alive = false;
                conn.buf.clear();
                conn.partial_since = None;
                conn.close_after_drain = true;
            }
            self.enqueue_response(
                id,
                Response::text(408, "deadline expired before a complete request arrived\n"),
            );
        }
    }

    /// How long the poll may sleep before some timed transition is due.
    fn next_timeout(&self, stopping: bool) -> Duration {
        let now = Instant::now();
        let mut timeout = if stopping { DRAIN_POLL } else { IDLE_POLL };
        for conn in self.conns.values() {
            if let Some(until) = conn.stall_until {
                timeout = timeout.min(until.saturating_duration_since(now));
            }
            if let Some(since) = conn.partial_since {
                if conn.finished() {
                    timeout =
                        timeout.min((since + self.shared.deadline).saturating_duration_since(now));
                }
            }
            if conn.has_output() {
                timeout = timeout
                    .min((conn.last_activity + WRITE_STALL_TIMEOUT).saturating_duration_since(now));
            }
        }
        timeout.max(Duration::from_millis(1))
    }

    fn reap(&mut self) {
        let metrics = &self.shared.metrics;
        self.conns.retain(|_, conn| {
            if conn.dead {
                ServeMetrics::drop_gauge(&metrics.conns_open);
                false
            } else {
                true
            }
        });
    }
}
