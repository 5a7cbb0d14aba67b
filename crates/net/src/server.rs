//! The wire server: one blocking thread per admitted session.
//!
//! An accept thread owns the listener and runs admission control. Each
//! admitted socket gets a thread of its own, which owns the socket and
//! the session's engine [`Connection`] for the session's whole life and
//! loops: blocking read of one frame → execute it inline → blocking
//! write of the reply. A statement parked on the lock table stalls only
//! its own session, and a session's frames execute in arrival order by
//! construction — pipelined input simply waits in the socket, which
//! keeps the one-session-one-thread discipline the engine's
//! `Connection` assumes.
//!
//! Disconnect-abort needs no special machinery: when a socket vanishes,
//! the session thread's read ends, the thread drops its `Connection`,
//! and the connection's `Drop` takes the same rollback path an explicit
//! `ROLLBACK` would — undo, GC unpin, lock release, waiter wakeup, and
//! the synthetic `Aborted` log entry (DESIGN.md §14 explains why routing
//! this through the normal path is what keeps the §8 latch hierarchy
//! intact).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use acidrain_db::{sync, Connection, Database};
use acidrain_obs::Obs;

use crate::protocol::{encode_error, encode_result, escape, isolation_code, Request, MAX_LINE};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Sessions the server will hold open at once (0 = unlimited). The
    /// database's own [`Database::set_max_sessions`] ceiling applies on
    /// top, since every admission goes through
    /// [`Database::try_connect`].
    pub max_sessions: usize,
    /// Sockets parked waiting for a session slot before new arrivals are
    /// refused outright with `ERR SERVER_BUSY` (0 = refuse immediately).
    pub queue_capacity: usize,
    /// Close sessions idle this long *outside* a transaction (cleanly:
    /// no abort, nothing to roll back).
    pub idle_timeout: Option<Duration>,
    /// Abort sessions idle this long *inside* a transaction: the open
    /// transaction is rolled back through the normal drop path and the
    /// client is told `ERR TXN_TIMEOUT` before the socket closes. This
    /// is the defense against a stalled client squatting on row locks.
    pub txn_timeout: Option<Duration>,
}

/// How long the accept thread naps between promotion retries while
/// sockets wait in the admission queue — the only timed wait of a server
/// with no timeouts configured. A slot the *engine's* session ceiling
/// refused may be freed by another front end, which no event of this
/// server reports.
const PROMOTE_RETRY: Duration = Duration::from_micros(500);

/// State shared by the accept thread, the session threads and the
/// handle.
struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// Live sessions by token: a clone of the socket, so shutdown can
    /// unblock the session thread, and the thread itself.
    sessions: HashMap<u64, (TcpStream, JoinHandle<()>)>,
    /// Threads of ended sessions. An ending session thread moves its
    /// handle here as its last act; the next admission or shutdown joins
    /// it.
    ended: Vec<JoinHandle<()>>,
    /// Sockets waiting for a session slot, oldest first.
    pending: VecDeque<TcpStream>,
    next_token: u64,
}

/// A running wire server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops accepting, closes every session and
/// joins every thread — open transactions roll back via the normal
/// connection drop path.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (use this with
    /// `127.0.0.1:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server and wait for every thread it started to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Release);
        // The accept thread is blocked in `accept`; poke it awake with a
        // loopback connect. It sees the stop flag and drops the socket.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // No session starts once the flag is up: the accept thread is
        // gone, and promotion runs under the state lock and checks the
        // flag. So this is every session.
        let (sessions, ended) = {
            let mut state = self.shared.state();
            state.pending.clear();
            (
                std::mem::take(&mut state.sessions),
                std::mem::take(&mut state.ended),
            )
        };
        for (socket, _) in sessions.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for thread in sessions
            .into_values()
            .map(|(_, thread)| thread)
            .chain(ended)
        {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The wire server front end. See the module docs for the threading
/// model and DESIGN.md §14 for the protocol.
pub struct Server;

impl Server {
    /// Bind a loopback listener on an ephemeral port and serve `db`.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        Server::start_on(db, "127.0.0.1:0", config)
    }

    /// Bind `addr` and serve `db` until the handle shuts down.
    pub fn start_on(
        db: Arc<Database>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            config,
            stop: AtomicBool::new(false),
            state: Mutex::new(State::default()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("acidrain-accept".into())
                .spawn(move || shared.accept_loop(listener))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

impl Shared {
    /// The admission state. Every update to it is a single insert or
    /// removal that leaves it valid, so a poisoned lock is still usable —
    /// and shutdown, which runs in `Drop`, must not panic on one.
    fn state(&self) -> MutexGuard<'_, State> {
        sync::lock(&self.state)
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn has_room(&self, state: &State) -> bool {
        self.config.max_sessions == 0 || state.sessions.len() < self.config.max_sessions
    }

    /// Block in `accept` and route each arrival through admission. The
    /// listener polls, retrying promotion on a nap, only while sockets
    /// wait in the admission queue: a slot the engine refused may be
    /// freed by another front end, which signals nothing here, and a
    /// refusal met by an exiting session thread cannot wake a blocked
    /// `accept`.
    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        let obs = self.db.obs().clone();
        let mut polling = false;
        while !self.stopping() {
            let queued = !self.state().pending.is_empty();
            if queued != polling && listener.set_nonblocking(queued).is_ok() {
                polling = queued;
            }
            match listener.accept() {
                Ok((stream, _)) if !self.stopping() => self.enroll(stream),
                Ok(_) => {} // the shutdown wake, or an arrival racing it
                Err(e) => {
                    // A retry nap, or a pause after an accept error
                    // (e.g. out of descriptors) instead of a busy spin.
                    obs.net_timed_wait();
                    std::thread::sleep(PROMOTE_RETRY);
                    if e.kind() == ErrorKind::WouldBlock {
                        self.promote(&mut self.state());
                    }
                }
            }
        }
    }

    /// Route one accepted socket through admission control: into a
    /// session, the bounded wait queue, or an outright `SERVER_BUSY`
    /// refusal. A socket is refused a session either by the server
    /// ceiling (checked here) or by the engine's own
    /// [`Database::set_max_sessions`] ceiling inside [`Shared::admit`];
    /// both overflow into the same queue-or-reject path.
    fn enroll(self: &Arc<Self>, stream: TcpStream) {
        let mut state = self.state();
        let overflow = if self.has_room(&state) {
            self.admit(&mut state, stream).err()
        } else {
            Some(stream)
        };
        let Some(stream) = overflow else {
            return;
        };
        let obs = self.db.obs();
        if state.pending.len() < self.config.queue_capacity {
            state.pending.push_back(stream);
            obs.net_queued(state.pending.len() as u64);
        } else {
            reject(stream);
            obs.net_rejected();
        }
    }

    /// Admit queued sockets into free slots, oldest first. An engine
    /// refusal puts the socket back at the head — it keeps its place in
    /// line — and ends the pass.
    fn promote(self: &Arc<Self>, state: &mut State) {
        while self.has_room(state) && !self.stopping() {
            let Some(stream) = state.pending.pop_front() else {
                return;
            };
            if let Err(stream) = self.admit(state, stream) {
                state.pending.push_front(stream);
                return;
            }
        }
    }

    /// Reserve a database session for `stream` and start its thread. The
    /// socket is handed back when the engine itself is at its ceiling
    /// (other front ends or in-process sessions hold the
    /// [`Database::set_max_sessions`] slots), so the caller can queue or
    /// refuse it under the configured bounds.
    fn admit(self: &Arc<Self>, state: &mut State, stream: TcpStream) -> Result<(), TcpStream> {
        let conn = match self.db.try_connect() {
            Ok(conn) => conn,
            Err(_) => return Err(stream),
        };
        // On any failure below the socket and connection drop here; the
        // slot frees immediately.
        let Ok(socket) = stream.try_clone() else {
            return Ok(());
        };
        for thread in state.ended.drain(..) {
            // Already past its last use of the state; this returns at once.
            let _ = thread.join();
        }
        state.next_token += 1;
        let token = state.next_token;
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("acidrain-session-{token}"))
            .spawn(move || shared.serve(token, stream, conn));
        if let Ok(thread) = spawned {
            // Inserted before the state lock is released, so the thread's
            // own removal at exit always finds it.
            state.sessions.insert(token, (socket, thread));
        }
        Ok(())
    }

    /// A session thread: serve frames until the session ends, drop the
    /// connection (rolling back any open transaction), then hand the
    /// freed slot to the head of the admission queue.
    fn serve(self: Arc<Self>, token: u64, stream: TcpStream, conn: Connection) {
        let obs = conn.obs().clone();
        let sid = conn.session_id();
        obs.net_session_opened(sid);
        // Accepted sockets inherit the listener's polling mode on some
        // platforms; a session reads blocking.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        let greeting = format!("OK acidrain {} {}\n", sid, isolation_code(conn.isolation()));
        let mut session = Session {
            reader: BufReader::new(stream),
            conn: Some(conn),
            aborted: false,
            deadline: None,
        };
        session.run(&self.config, &obs, &greeting);
        let in_txn = session.aborted
            || session
                .conn
                .as_ref()
                .is_some_and(Connection::in_transaction);
        drop(session);
        obs.net_session_closed(sid, in_txn);
        let mut state = self.state();
        let entry = state.sessions.remove(&token);
        self.promote(&mut state);
        // After promotion, which joins the `ended` threads: a thread must
        // not join itself.
        state.ended.extend(entry.map(|(_, thread)| thread));
    }
}

/// Refuse a socket outright (best effort — the client may already be
/// gone).
fn reject(stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let _ = (&stream).write_all(b"ERR SERVER_BUSY admission queue full\n");
}

/// One admitted session, owned by its thread.
struct Session {
    reader: BufReader<TcpStream>,
    /// `None` once the server dropped the connection itself (txn
    /// timeout, or a panic during execution); the drop rolled back any
    /// open transaction.
    conn: Option<Connection>,
    /// The server aborted this session's transaction (txn timeout);
    /// count the close as a disconnect-abort.
    aborted: bool,
    /// The read/write timeout currently armed on the socket.
    deadline: Option<Duration>,
}

/// What one frame read leads to.
enum Step {
    /// Send this and read the next frame.
    Reply(String),
    /// Send this, then close the session cleanly.
    Close(String),
    /// The socket is gone (EOF, reset, shutdown).
    Gone,
}

impl Session {
    fn run(&mut self, config: &ServerConfig, obs: &Obs, greeting: &str) {
        let mut line = Vec::new();
        let mut out = greeting.to_string();
        loop {
            if self.reader.get_ref().write_all(out.as_bytes()).is_err() {
                return;
            }
            out = match self.step(config, obs, &mut line) {
                Step::Reply(reply) => reply,
                Step::Close(reply) => {
                    let _ = self.reader.get_ref().write_all(reply.as_bytes());
                    self.drain();
                    return;
                }
                Step::Gone => return,
            };
        }
    }

    /// Read one frame — bounded by `MAX_LINE`, under the timeout that
    /// fits the session's transaction state — and execute it.
    fn step(&mut self, config: &ServerConfig, obs: &Obs, line: &mut Vec<u8>) -> Step {
        let in_txn = self.conn.as_ref().is_some_and(Connection::in_transaction);
        let deadline = if in_txn {
            config.txn_timeout
        } else {
            config.idle_timeout
        };
        if !self.arm(deadline, obs) {
            return Step::Gone;
        }
        line.clear();
        let limit = MAX_LINE as u64 + 1;
        match (&mut self.reader).take(limit).read_until(b'\n', line) {
            Ok(0) => Step::Gone,
            Ok(_) if line.last() == Some(&b'\n') => {
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                match std::str::from_utf8(line) {
                    Ok(text) => self.execute(obs, text),
                    Err(_) => Step::Close("ERR PROTOCOL frame is not UTF-8\n".into()),
                }
            }
            Ok(n) if n as u64 == limit => {
                Step::Close("ERR PROTOCOL line exceeds MAX_LINE\n".into())
            }
            Ok(_) => Step::Gone, // EOF mid-line
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !in_txn {
                    return Step::Close(String::new());
                }
                // Abort through the normal rollback path: dropping the
                // connection is exactly what a vanished client gets. The
                // client is told why before the close.
                self.conn = None;
                self.aborted = true;
                Step::Close("ERR TXN_TIMEOUT in-transaction idle limit\n".into())
            }
            Err(_) => Step::Gone,
        }
    }

    /// Arm `deadline` as the socket's read and write timeout (a client
    /// that stops reading replies is as stalled as one that stops
    /// sending). `false` when the socket refuses, i.e. it is dead.
    fn arm(&mut self, deadline: Option<Duration>, obs: &Obs) -> bool {
        if deadline != self.deadline {
            // The OS rejects a zero timeout; the shortest one stands in.
            let timeout = deadline.map(|t| t.max(Duration::from_micros(1)));
            let socket = self.reader.get_ref();
            if socket.set_read_timeout(timeout).is_err()
                || socket.set_write_timeout(timeout).is_err()
            {
                return false;
            }
            self.deadline = deadline;
        }
        if deadline.is_some() {
            obs.net_timed_wait();
        }
        true
    }

    /// Execute one frame. An engine panic must not leak the session: the
    /// connection is dropped (rolling back through the normal drop path)
    /// and the session closes with `ERR INTERNAL`.
    fn execute(&mut self, obs: &Obs, text: &str) -> Step {
        let conn = self
            .conn
            .as_mut()
            .expect("a reading session holds its conn");
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process(conn, obs, text))) {
            Ok((reply, false)) => Step::Reply(reply),
            Ok((reply, true)) => Step::Close(reply),
            Err(_) => {
                self.conn = None;
                Step::Close("ERR INTERNAL statement execution panicked\n".into())
            }
        }
    }

    /// Discard the inbound bytes already received before closing: left
    /// unread, they would turn the close into an RST that can destroy
    /// the final reply still in flight to the client.
    fn drain(&mut self) {
        let mut socket = self.reader.get_ref();
        if socket.set_nonblocking(true).is_err() {
            return;
        }
        let mut buf = [0u8; 4096];
        loop {
            match socket.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock or a dead socket
            }
        }
    }
}

/// Execute one frame against the session's connection; returns the
/// reply and whether the session closes after it.
fn process(conn: &mut Connection, obs: &Obs, line: &str) -> (String, bool) {
    let sid = conn.session_id();
    match Request::parse(line) {
        Err(msg) => {
            obs.net_protocol_error(sid);
            (format!("ERR PROTOCOL {}\n", escape(&msg)), true)
        }
        Ok(req) => {
            obs.net_frame(sid);
            match req {
                Request::Hello(level) => {
                    conn.set_isolation(level);
                    (format!("OK iso {}\n", isolation_code(level)), false)
                }
                Request::Query(sql) => match conn.execute(&sql) {
                    Ok(rs) => (encode_result(&rs), false),
                    Err(e) => (format!("{}\n", encode_error(&e)), false),
                },
                Request::Api { invocation, name } => {
                    conn.set_api(name, invocation);
                    ("OK api\n".to_string(), false)
                }
                Request::NoApi => {
                    conn.clear_api();
                    ("OK api\n".to_string(), false)
                }
                Request::Ping => ("OK pong\n".to_string(), false),
                Request::Quit => ("OK bye\n".to_string(), true),
            }
        }
    }
}
