//! The in-process server and the loopback client that drives it.
//!
//! The server is the real `wdpt_serve::serve` on `127.0.0.1:0`; the client
//! speaks the newline-delimited JSON protocol over a real socket, one
//! request in flight (closed loop, concurrency 1).

use crate::oracle::{fast_row_hash, parsed_row_hash};
use crate::pin;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wdpt_obs::Json;
use wdpt_serve::{serve, ServeState};

/// A running server; [`Server::stop`] drains and joins it.
pub struct Server {
    pub state: Arc<ServeState>,
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds a loopback port and runs `serve` on a new thread, which first
    /// pins itself to `core` (workers and connection threads are spawned by
    /// `serve` afterwards and inherit the mask).
    pub fn start(state: Arc<ServeState>, core: Option<usize>) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("bench-serve".to_string())
                .spawn(move || {
                    if let Some(core) = core {
                        pin::pin_current_thread(core);
                    }
                    serve(listener, state)
                })?
        };
        Ok(Server {
            state,
            addr,
            thread,
        })
    }

    /// Graceful shutdown: close every client first so connection threads
    /// see EOF instead of waiting out their read timeout.
    pub fn stop(self) -> io::Result<()> {
        self.state.begin_shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))?
    }
}

/// What came back for one request.
#[derive(Debug, Default)]
pub struct Reply {
    /// `status` of the terminal line (`ok`, `error`, `cancelled`, …).
    pub status: String,
    /// `answers` of the `ok` line.
    pub answers: usize,
    /// Hashes of the streamed rows, in arrival order.
    pub rows: Vec<u64>,
    /// Send → first response line.
    pub first_line_ns: u64,
}

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line (newline included by the caller) and reads
    /// rows up to the terminal status line.
    pub fn request(&mut self, request_line: &str) -> io::Result<Reply> {
        let mut reply = Reply::default();
        let start = Instant::now();
        self.writer.write_all(request_line.as_bytes())?;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            if reply.first_line_ns == 0 {
                reply.first_line_ns = start.elapsed().as_nanos() as u64;
            }
            let line = self.line.trim_end();
            if let Some(hash) = fast_row_hash(line) {
                reply.rows.push(hash);
                continue;
            }
            let doc =
                Json::parse(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if let Some(hash) = parsed_row_hash(&doc) {
                reply.rows.push(hash);
                continue;
            }
            reply.status = doc
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("missing")
                .to_string();
            reply.answers = doc.get("answers").and_then(Json::as_num).unwrap_or(0.0) as usize;
            return Ok(reply);
        }
    }
}

/// The request line for a query.
pub fn query_line(query: &str, max_rows: usize) -> String {
    let mut line = Json::obj([
        ("op", Json::str("query")),
        ("query", Json::str(query)),
        ("max_rows", Json::int(max_rows as u64)),
    ])
    .to_string();
    line.push('\n');
    line
}
