//! Closed-loop and paced HTTP load generators.
//!
//! Closed loop: each connection sends its next request only after the
//! previous reply arrived. Paced: requests are due on a fixed schedule and
//! each latency is timed from its due time, so a stall also charges the
//! requests queued behind it. How late the generator itself sent (beyond
//! waiting for its connection to free up) is reported separately.

use crate::stats::Samples;
use kreach_server::client::BlockingClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Socket timeout for a single request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// How long before a due time the paced generator stops sleeping and
/// spins: about the median oversleep of a short sleep on a 2-vCPU VM.
const SPIN: Duration = Duration::from_micros(100);

/// One HTTP request.
pub struct Request<'a> {
    pub method: &'static str,
    pub target: &'a str,
    pub body: &'a [u8],
}

/// What a load generator sends, and how it checks each reply.
pub trait Source: Sync {
    /// The `i`-th request of the phase, or `None` once the source is
    /// exhausted.
    fn request(&self, i: usize) -> Option<Request<'_>>;
    /// Called just before request `i` is written; the token it returns is
    /// handed back to [`Source::on_response`].
    fn on_send(&self, _i: usize) -> u64 {
        0
    }
    /// Whether the 200 reply to request `i` is correct. Replies are checked
    /// against precomputed answers, so this costs a comparison.
    fn on_response(&self, i: usize, token: u64, body: &[u8]) -> bool;
}

/// Totals shared by both generators.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Request latency: closed loop from send, paced from due time.
    pub latency: Samples,
    /// Paced only: send time minus the later of due time and the moment the
    /// connection became free.
    pub late: Samples,
    /// Correct replies that arrived before the phase ended (closed loop
    /// only; the phase's rate is this over its duration).
    pub completed: u64,
    pub attempted: u64,
    /// Transport errors, non-200 replies and wrong answers.
    pub failed: u64,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.latency.extend(&other.latency);
        self.late.extend(&other.late);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

struct Conn {
    addr: SocketAddr,
    client: Option<BlockingClient>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: None }
    }

    /// Sends request `i`; `Ok(true)` for a correct 200 reply.
    fn exchange(&mut self, src: &dyn Source, i: usize, req: &Request) -> bool {
        if self.client.is_none() {
            match BlockingClient::connect(self.addr) {
                Ok(c) => {
                    let _ = c.set_timeout(REQUEST_TIMEOUT);
                    self.client = Some(c);
                }
                Err(_) => return false,
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let token = src.on_send(i);
        match client.request(req.method, req.target, req.body) {
            Ok(resp) => {
                if resp.close {
                    self.client = None;
                }
                resp.status == 200 && src.on_response(i, token, &resp.body)
            }
            Err(_) => {
                self.client = None;
                false
            }
        }
    }
}

/// Runs `conns` closed-loop connections for `duration`. Connection `c`
/// sends requests `first + c`, `first + c + conns`, ...
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    first: usize,
    src: &dyn Source,
) -> Outcome {
    let start = Instant::now();
    let end = start + duration;
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut conn = Conn::new(addr);
                    let mut i = first + c;
                    while let Some(req) = src.request(i) {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let ok = conn.exchange(src, i, &req);
                        let done = Instant::now();
                        out.attempted += 1;
                        if ok {
                            out.latency.push_duration(done - sent);
                            if done <= end {
                                out.completed += 1;
                            }
                        } else {
                            out.failed += 1;
                        }
                        i += conns;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop connection panicked"));
        }
    });
    total
}

/// Sends `rate` requests per second for `duration`, round-robin over
/// `conns` connections. Request `j` is due at `start + j / rate` and is
/// request `first + j` of the source.
pub fn paced(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    duration: Duration,
    first: usize,
    src: &dyn Source,
) -> Outcome {
    let count = (duration.as_secs_f64() * rate) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut conn = Conn::new(addr);
                    let mut free_at = start;
                    for j in (c..count).step_by(conns) {
                        let Some(req) = src.request(first + j) else {
                            break;
                        };
                        let due = start + interval * j as u32;
                        wait_until(due);
                        let sent = Instant::now();
                        out.late.push_duration(sent - due.max(free_at));
                        let ok = conn.exchange(src, first + j, &req);
                        let done = Instant::now();
                        free_at = done;
                        out.attempted += 1;
                        if ok {
                            out.latency.push_duration(done - due);
                        } else {
                            out.failed += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("paced connection panicked"));
        }
    });
    total
}

/// Sleeps until shortly before `due`, then spins to it, so the generator's
/// own wake-up delay stays out of latencies timed from the due time.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A monotone counter shared between a writer and a reader.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst);
    }
}
