//! The open-loop HTTP load generator.
//!
//! Two threads share two keep-alive connections. The sender sleeps
//! until each request's scheduled time and writes it to connection
//! `k % 2`, whether or not earlier replies have arrived (requests
//! pipeline behind each other on a connection, as independent users
//! would queue). The receiver waits on both sockets with epoll and
//! matches each reply to the oldest outstanding request on its
//! connection. Every request is charged from its scheduled time, so a
//! stall delays every later request's latency too. There are no
//! retries: a transport error, a non-200 status, or a class or spike
//! counts other than the expected ones is a failure. In a traced run
//! the receiver records each request's spans as its reply arrives.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_pool::epoll::{Epoll, Interest};

use crate::trace::Recorder;

/// Keep-alive connections the generator drives.
pub const CONNECTIONS: usize = 2;

/// One request of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Send time, seconds after the run starts.
    pub at: f64,
    /// Index into the request pool.
    pub item: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, each picking a
/// pool item uniformly; fully determined by `seed`.
pub fn poisson_schedule(rate: f64, seconds: f64, pool: usize, seed: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut plan = Vec::new();
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return plan;
        }
        plan.push(Planned {
            at,
            item: rng.gen_range(0..pool),
        });
    }
}

/// What happened to one planned request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Scheduled send time.
    pub due: Instant,
    /// When the write started.
    pub sent: Instant,
    /// When the reply was read, or the failure was noticed.
    pub done: Instant,
    /// 200 with the expected class and spike counts.
    pub ok: bool,
}

/// A finished run.
pub struct Run {
    /// Time zero of the schedule.
    pub start: Instant,
    /// One outcome per planned request, in plan order.
    pub outcomes: Vec<Outcome>,
}

impl Run {
    /// Seconds from time zero to the last completion.
    pub fn wall_s(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.done)
            .max()
            .map_or(0.0, |d| (d - self.start).as_secs_f64())
    }
}

/// FNV-1a 64 of a schedule (send times and items).
pub fn plan_digest(plan: &[Planned]) -> String {
    let bytes: Vec<u8> = plan
        .iter()
        .flat_map(|p| {
            p.at.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain((p.item as u64).to_le_bytes())
        })
        .collect();
    snn_store::fnv64_hex(&bytes)
}

/// A parsed reply: bytes consumed, status, and the body's `class`.
pub struct Reply {
    /// Bytes of the buffer the reply occupied.
    pub len: usize,
    /// HTTP status code.
    pub status: u16,
    /// The `class` and `counts` fields of a JSON body, if present.
    pub output: Option<(usize, Vec<f32>)>,
}

/// Parses one complete HTTP response from the front of `buf`; `None`
/// while it is incomplete.
pub fn parse_reply(buf: &[u8]) -> Option<Reply> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let content_length: usize = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    let len = head_end + 4 + content_length;
    if buf.len() < len {
        return None;
    }
    let body = std::str::from_utf8(&buf[head_end + 4..len]).ok()?;
    let output = serde_json::parse(body).ok().and_then(|v| {
        let fields = v.as_object()?;
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let number = |v: &serde::Value| match v {
            serde::Value::Number(n) => Some(*n),
            _ => None,
        };
        let class = number(field("class")?)? as usize;
        let counts = field("counts")?
            .as_array()?
            .iter()
            .map(|c| number(c).map(|n| n as f32))
            .collect::<Option<Vec<f32>>>()?;
        Some((class, counts))
    });
    Some(Reply {
        len,
        status,
        output,
    })
}

/// The full request bytes for an `/infer` body.
pub fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /infer HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Runs `plan` against `addr`: `requests[item]` is sent and its reply
/// must carry the class and spike counts `expected[item]`. Replies
/// still missing `drain` after the last send are failures. With `rec`,
/// every answered request becomes an `http.request` span with children
/// `loadgen.lag` (due to sent), `client.connection_wait` (sent to when
/// the server could start on it: the previous reply on its connection,
/// if later) and `http.exchange` (from then to the reply).
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    requests: &[Vec<u8>],
    expected: &[(usize, Vec<f32>)],
    drain: Duration,
    rec: Option<&mut Recorder>,
) -> std::io::Result<Run> {
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        conns.push(s);
    }
    let readers = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (sent, done) = std::thread::scope(|scope| {
        let receiver =
            scope.spawn(move || Receiver::new(readers, plan, expected, rec).run(rx, drain));
        let mut sent = Vec::with_capacity(plan.len());
        let mut broken = [false; CONNECTIONS];
        for (k, p) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(p.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let c = k % CONNECTIONS;
            let t = Instant::now();
            // Announce before writing, so the receiver knows the
            // request before its reply can arrive.
            let _ = tx.send(Sent {
                conn: c,
                k,
                due,
                at: t,
            });
            if !broken[c] && conns[c].write_all(&requests[p.item]).is_err() {
                broken[c] = true;
            }
            sent.push(t);
        }
        drop(tx);
        (sent, receiver.join().expect("receiver thread"))
    });
    let outcomes = plan
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let due = start + Duration::from_secs_f64(p.at);
            let (at, ok) = done[k];
            Outcome {
                due,
                sent: sent[k],
                done: at.unwrap_or_else(Instant::now),
                ok,
            }
        })
        .collect();
    Ok(Run { start, outcomes })
}

/// A request as the sender announces it to the receiver.
struct Sent {
    /// Connection it was written to.
    conn: usize,
    /// Index into the plan.
    k: usize,
    /// Scheduled send time.
    due: Instant,
    /// When the write started.
    at: Instant,
}

/// The receiving side of a run: matches replies to requests.
struct Receiver<'a> {
    conns: Vec<TcpStream>,
    plan: &'a [Planned],
    expected: &'a [(usize, Vec<f32>)],
    rec: Option<&'a mut Recorder>,
    /// Outstanding requests per connection, oldest first.
    pending: Vec<VecDeque<Sent>>,
    /// Last reply per connection.
    last_done: Vec<Option<Instant>>,
    /// `(completion time, ok)` per planned request.
    result: Vec<(Option<Instant>, bool)>,
}

impl<'a> Receiver<'a> {
    fn new(
        conns: Vec<TcpStream>,
        plan: &'a [Planned],
        expected: &'a [(usize, Vec<f32>)],
        rec: Option<&'a mut Recorder>,
    ) -> Self {
        let n = conns.len();
        Receiver {
            conns,
            plan,
            expected,
            rec,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            last_done: vec![None; n],
            result: vec![(None, false); plan.len()],
        }
    }

    /// Fails every request still outstanding on connection `c`.
    fn fail_pending(&mut self, c: usize) {
        let now = Instant::now();
        for s in self.pending[c].drain(..) {
            self.result[s.k] = (Some(now), false);
        }
    }

    /// Settles the oldest request on `c` with a reply read at `now`;
    /// `false` if none was outstanding.
    fn answer(&mut self, c: usize, reply: &Reply, now: Instant) -> bool {
        let Some(s) = self.pending[c].pop_front() else {
            return false;
        };
        let ok = reply.status == 200
            && reply.output.as_ref() == Some(&self.expected[self.plan[s.k].item]);
        self.result[s.k] = (Some(now), ok);
        let start = self.last_done[c].map_or(s.at, |d| d.max(s.at));
        self.last_done[c] = Some(now);
        if let Some(rec) = self.rec.as_deref_mut() {
            let id = s.k as u64;
            let root = rec.record("http.request", s.due, now, None, id);
            rec.record("loadgen.lag", s.due, s.at, Some(root), id);
            rec.record("client.connection_wait", s.at, start, Some(root), id);
            rec.record("http.exchange", start, now, Some(root), id);
        }
        true
    }

    /// The receive loop: returns `(completion time, ok)` per request.
    fn run(mut self, rx: mpsc::Receiver<Sent>, drain: Duration) -> Vec<(Option<Instant>, bool)> {
        let epoll = Epoll::new().expect("epoll instance");
        for (i, c) in self.conns.iter().enumerate() {
            epoll
                .add(c.as_raw_fd(), i as u64, Interest::READ)
                .expect("register connection");
        }
        let n = self.conns.len();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut alive = vec![true; n];
        let mut events = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut deadline: Option<Instant> = None;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(s) => self.pending[s.conn].push_back(s),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        deadline.get_or_insert_with(|| Instant::now() + drain);
                        break;
                    }
                }
            }
            for (c, &up) in alive.iter().enumerate() {
                if !up {
                    self.fail_pending(c);
                }
            }
            if deadline.is_some() && self.pending.iter().all(VecDeque::is_empty) {
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                for c in 0..n {
                    self.fail_pending(c);
                }
                break;
            }
            if epoll
                .wait(&mut events, Some(Duration::from_millis(5)))
                .is_err()
            {
                continue;
            }
            for ev in events.clone() {
                let c = ev.token as usize;
                if !alive[c] || !(ev.readable || ev.hangup) {
                    continue;
                }
                let got = match self.conns[c].read(&mut chunk) {
                    Ok(0) | Err(_) => {
                        alive[c] = false;
                        let _ = epoll.delete(self.conns[c].as_raw_fd());
                        continue;
                    }
                    Ok(got) => got,
                };
                let now = Instant::now();
                bufs[c].extend_from_slice(&chunk[..got]);
                // Requests announced after the last drain may already
                // have replies in this read.
                while let Ok(s) = rx.try_recv() {
                    self.pending[s.conn].push_back(s);
                }
                while let Some(reply) = parse_reply(&bufs[c]) {
                    bufs[c].drain(..reply.len);
                    if !self.answer(c, &reply, now) {
                        alive[c] = false;
                        break;
                    }
                }
            }
        }
        self.result
    }
}
