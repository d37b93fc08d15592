//! The service under test, booted in-process.
//!
//! Untraced runs use `nhpp_serve::Server` as shipped. Traced runs build
//! the same `AppState` through `Server::bind` but serve it from the
//! loop below: the shipped acceptor → queue → worker shape (unbounded
//! here; `nproc` clients never reach the shipped 1024-slot bound),
//! calling the same public layer functions (`http::read_request`,
//! `routes::handle`, `Response::write_to`, `scheduler::flush_stale`)
//! with a span around each. Nothing inside the program is instrumented.

use crate::trace::Tracer;
use nhpp_serve::http::read_request;
use nhpp_serve::{routes, scheduler, AppState, Response, Server, ServerConfig, ServerHandle};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which operation and client span each in-flight connection belongs
/// to, keyed by the client's local port.
pub type PortMap = Mutex<HashMap<u16, (u64, u64)>>;

pub enum Service {
    Plain(ServerHandle),
    Traced(Traced),
}

pub struct Traced {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    pub ports: Arc<PortMap>,
}

impl Service {
    pub fn start(config: ServerConfig, tracer: Option<&Arc<Tracer>>) -> io::Result<Service> {
        match tracer {
            None => Ok(Service::Plain(Server::spawn(config)?)),
            Some(tracer) => Ok(Service::Traced(Traced::start(config, Arc::clone(tracer))?)),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Service::Plain(h) => h.addr(),
            Service::Traced(t) => t.addr,
        }
    }

    pub fn state(&self) -> Arc<AppState> {
        match self {
            Service::Plain(h) => h.state(),
            Service::Traced(t) => Arc::clone(&t.state),
        }
    }

    pub fn ports(&self) -> Option<&Arc<PortMap>> {
        match self {
            Service::Plain(_) => None,
            Service::Traced(t) => Some(&t.ports),
        }
    }

    /// Graceful shutdown: drain, join every thread, final snapshot.
    pub fn stop(self) {
        match self {
            Service::Plain(h) => h.shutdown(),
            Service::Traced(t) => t.stop(),
        }
    }
}

/// The span name of the route a request reaches.
pub fn route_name(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["projects", _] => "project",
        ["projects", _, "events"] => "events",
        ["projects", _, "fit"] => "fit",
        ["projects", _, "interval"] => "interval",
        ["projects", _, "spc"] => "spc",
        ["projects", _, "monitor"] => "monitor",
        ["monitor", "status"] => "monitor_status",
        _ => "other",
    }
}

struct Queue {
    items: Mutex<(VecDeque<(TcpStream, Instant)>, bool)>,
    ready: Condvar,
}

impl Queue {
    fn push(&self, item: (TcpStream, Instant)) {
        self.items.lock().expect("queue poisoned").0.push_back(item);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut items = self.items.lock().expect("queue poisoned");
        loop {
            if let Some(item) = items.0.pop_front() {
                return Some(item);
            }
            if items.1 {
                return None;
            }
            items = self.ready.wait(items).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.items.lock().expect("queue poisoned").1 = true;
        self.ready.notify_all();
    }
}

impl Traced {
    fn start(config: ServerConfig, tracer: Arc<Tracer>) -> io::Result<Traced> {
        let flush_interval = config.flush_interval;
        let state = Server::bind(config)?.state();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ports: Arc<PortMap> = Arc::new(Mutex::new(HashMap::new()));
        let queue = Arc::new(Queue {
            items: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let mut threads = Vec::new();
        {
            let (shutdown, queue) = (Arc::clone(&shutdown), Arc::clone(&queue));
            threads.push(std::thread::spawn(move || {
                loop {
                    let accepted = listener.accept();
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok((stream, _)) = accepted {
                        queue.push((stream, Instant::now()));
                    }
                }
                queue.close();
            }));
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..workers {
            let (state, queue, ports, tracer) = (
                Arc::clone(&state),
                Arc::clone(&queue),
                Arc::clone(&ports),
                Arc::clone(&tracer),
            );
            threads.push(std::thread::spawn(move || {
                while let Some((stream, accepted)) = queue.pop() {
                    serve(stream, accepted, &state, &ports, &tracer);
                }
            }));
        }
        if let Some(interval) = flush_interval {
            let (state, shutdown, tracer) = (
                Arc::clone(&state),
                Arc::clone(&shutdown),
                Arc::clone(&tracer),
            );
            threads.push(std::thread::spawn(move || {
                let slice = interval.min(Duration::from_millis(50));
                let mut elapsed = Duration::ZERO;
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        tracer.time(0, 0, "scheduler.flush_stale", || {
                            scheduler::flush_stale(&state.registry, &state.fit, &state.metrics)
                        });
                    }
                }
            }));
        }
        Ok(Traced {
            addr,
            state,
            shutdown,
            threads,
            ports,
        })
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor parked in `accept`.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            t.join().expect("traced server thread panicked");
        }
        self.state.registry.snapshot_all();
    }
}

/// Reads one request's raw bytes: the head, then `Content-Length` body
/// bytes. Kept apart from parsing so the parse span times CPU only.
fn read_raw(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut raw = Vec::with_capacity(512);
    let mut buf = [0u8; 4096];
    loop {
        if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if raw.len() >= end + 4 + length {
                return Ok(raw);
            }
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(raw);
        }
        raw.extend_from_slice(&buf[..n]);
    }
}

fn serve(
    mut stream: TcpStream,
    accepted: Instant,
    state: &AppState,
    ports: &PortMap,
    tracer: &Tracer,
) {
    let popped = tracer.now_ns();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let raw = match read_raw(&mut stream) {
        Ok(raw) if !raw.is_empty() => raw,
        _ => return,
    };
    let key = stream.peer_addr().map(|a| a.port()).unwrap_or(0);
    let (op, parent) = ports
        .lock()
        .expect("port map poisoned")
        .remove(&key)
        .unwrap_or((0, 0));
    tracer.record(
        tracer.new_id(),
        parent,
        op,
        "server.queue",
        tracer.ns_at(accepted),
        popped,
    );
    let started = Instant::now();
    let request = tracer.time(parent, op, "http.parse", || read_request(&mut &raw[..]));
    let response = match request {
        Ok(req) => {
            let name = format!("routes.{}", route_name(&req.path));
            tracer.time(parent, op, &name, || routes::handle(state, &req))
        }
        Err(err) => Response::json(400, format!("{{\"error\": \"malformed request: {err}\"}}")),
    };
    state
        .metrics
        .observe_request(response.status, started.elapsed());
    let mut bytes = Vec::with_capacity(response.body.len() + 128);
    let _ = tracer.time(parent, op, "http.render", || response.write_to(&mut bytes));
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
}
