//! A minimal blocking HTTP client for exercising the service — used by the
//! end-to-end tests, the `nptsn-cli` smoke tests, the router and the
//! serving benchmark. One [`Client`] holds one keep-alive connection.
//!
//! With [`Client::with_backoff`] the client also self-heals: transport
//! errors and `503` backpressure answers are retried with capped, jittered
//! exponential backoff, honoring the server's `Retry-After` hint. The
//! jitter stream is seeded, so a retry schedule replays exactly.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};

/// Retry policy for [`Client::with_backoff`].
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Base delay for the exponential schedule, in milliseconds.
    pub base_ms: u64,
    /// Hard cap on any single delay (including `Retry-After` hints).
    pub cap_ms: u64,
    /// Seed for the jitter stream — same seed, same schedule.
    pub seed: u64,
    /// Hard cap on the **total elapsed** retry time of one request, in
    /// milliseconds (`0` disables). An attempt-count cap alone is not a
    /// latency bound — `Retry-After` hints and the exponential tail can
    /// stretch five retries to arbitrary wall-clock time. With a deadline
    /// the client never starts a sleep that the deadline could not cover,
    /// returning the last outcome instead. The router fan-out path relies
    /// on this so one slow shard cannot pin a routed request forever.
    pub deadline_ms: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig { max_retries: 5, base_ms: 50, cap_ms: 2_000, seed: 0, deadline_ms: 0 }
    }
}

impl BackoffConfig {
    /// The delay before retry number `attempt` (0-based): the server's
    /// `Retry-After` hint when present, otherwise `base * 2^attempt`,
    /// both capped at `cap_ms` — then halved and jittered so synchronized
    /// clients spread out instead of stampeding together.
    fn delay(&self, attempt: u32, retry_after_secs: Option<u64>, rng: &mut StdRng) -> Duration {
        let nominal = match retry_after_secs {
            Some(secs) => secs.saturating_mul(1_000),
            None => self.base_ms.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX)),
        }
        .min(self.cap_ms);
        let jittered = nominal / 2 + rng.gen_range(0..nominal / 2 + 1);
        Duration::from_millis(jittered)
    }
}

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking keep-alive HTTP client for one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    connection: Option<BufReader<TcpStream>>,
    backoff: Option<(BackoffConfig, StdRng)>,
}

impl Client {
    /// A client for the given address; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, connection: None, backoff: None }
    }

    /// Returns this client with retrying enabled: transport errors and
    /// `503` answers are retried up to `config.max_retries` times with
    /// capped jittered exponential backoff, honoring `Retry-After`.
    pub fn with_backoff(mut self, config: BackoffConfig) -> Client {
        let rng = StdRng::seed_from_u64(config.seed);
        self.backoff = Some((config, rng));
        self
    }

    /// Returns this client with retrying disabled, keeping the kept-alive
    /// connection. Lets a connection pool hand the same client to callers
    /// with different retry policies: each checkout re-applies its own.
    pub fn without_backoff(mut self) -> Client {
        self.backoff = None;
        self
    }

    /// A `GET` request.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, &[], &[])
    }

    /// A `POST` request with a body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, &[], body)
    }

    /// A `POST` request with extra headers (e.g. `X-Problem-Length`).
    pub fn post_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.request("POST", path, headers, body)
    }

    /// A `PUT` request with a body (checkpoint registration).
    pub fn put(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("PUT", path, &[], body)
    }

    /// A `DELETE` request.
    pub fn delete(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, &[], &[])
    }

    /// A request with an arbitrary method — the generic entry point a
    /// proxy (the router's fan-out) uses to forward whatever it received.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.request(method, path, headers, body)
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.connection.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            self.connection = Some(BufReader::new(stream));
        }
        Ok(self.connection.as_mut().expect("connection just established"))
    }

    /// Sends one request, reconnecting once if the kept-alive connection
    /// went away since the last exchange. With a backoff policy, also
    /// retries transport errors and `503` backpressure answers — bounded
    /// by both the attempt count and, when configured, the total-elapsed
    /// deadline (a sleep the deadline cannot cover is never started; the
    /// last outcome is returned instead).
    fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(method, path, headers, body);
            let Some((config, _)) = &self.backoff else { return outcome };
            if attempt >= config.max_retries {
                return outcome;
            }
            let retry_after = match &outcome {
                // Backpressure: retry on the server's schedule.
                Ok(r) if r.status == 503 => {
                    Some(r.header("retry-after").and_then(|v| v.parse::<u64>().ok()))
                }
                Ok(_) => return outcome,
                // Transport failure: the connection died or timed out.
                Err(_) => Some(None),
            };
            let Some(retry_after) = retry_after else { return outcome };
            self.connection = None;
            let (config, rng) = self.backoff.as_mut().expect("backoff checked above");
            let delay = config.delay(attempt, retry_after, rng);
            if config.deadline_ms > 0
                && started.elapsed() + delay > Duration::from_millis(config.deadline_ms)
            {
                return outcome;
            }
            nptsn_obs::telemetry().recovery_client_retries.inc();
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// One attempt: sends the request, reconnecting once if the
    /// kept-alive connection went away since the last exchange.
    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        match self.try_request(method, path, headers, body) {
            Ok(response) => Ok(response),
            Err(_) if self.connection.is_some() => {
                self.connection = None;
                self.try_request(method, path, headers, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let reader = self.connect()?;
        {
            let stream = reader.get_mut();
            let mut head = format!(
                "{method} {path} HTTP/1.1\r\nHost: nptsn\r\nContent-Length: {}\r\n",
                body.len()
            );
            for (name, value) in headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str("\r\n");
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
        }

        let status_line = read_line(reader)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {status_line:?}"))
            })?;

        let mut headers_out = Vec::new();
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                }
                headers_out.push((name, value));
            }
        }

        let mut body_out = vec![0u8; content_length];
        reader.read_exact(&mut body_out)?;
        if close {
            self.connection = None;
        }
        Ok(ClientResponse { status, headers: headers_out, body: body_out })
    }
}

fn read_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_grow_exponentially_and_cap() {
        let config = BackoffConfig { max_retries: 8, base_ms: 100, cap_ms: 1_000, seed: 1, ..BackoffConfig::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let mut previous_nominal = 0;
        for attempt in 0..8 {
            let delay = config.delay(attempt, None, &mut rng).as_millis() as u64;
            let nominal = (100u64 << attempt).min(1_000);
            // Jitter keeps the delay in [nominal/2, nominal].
            assert!(delay >= nominal / 2 && delay <= nominal, "attempt {attempt}: {delay}");
            assert!(nominal >= previous_nominal);
            previous_nominal = nominal;
        }
    }

    #[test]
    fn retry_after_hint_overrides_the_schedule_but_not_the_cap() {
        let config = BackoffConfig { max_retries: 3, base_ms: 10, cap_ms: 500, seed: 7, ..BackoffConfig::default() };
        let mut rng = StdRng::seed_from_u64(7);
        // 2s hint capped to 500ms, then jittered into [250, 500].
        let delay = config.delay(0, Some(2), &mut rng).as_millis() as u64;
        assert!((250..=500).contains(&delay), "{delay}");
    }

    #[test]
    fn deadline_caps_total_elapsed_retry_time() {
        // A listener that accepts and immediately drops every connection:
        // each attempt dies in transport, so without a deadline this
        // schedule would sleep for seconds (100 retries x ~22ms).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming().take(64) {
                drop(stream);
            }
        });
        let mut client = Client::new(addr).with_backoff(BackoffConfig {
            max_retries: 100,
            base_ms: 30,
            cap_ms: 30,
            seed: 3,
            deadline_ms: 120,
        });
        let started = Instant::now();
        let outcome = client.get("/healthz");
        let elapsed = started.elapsed();
        assert!(outcome.is_err(), "every attempt hits a dropped connection");
        // The deadline (120ms) bit long before the attempt cap could: even
        // with generous scheduling slack this must end well under the
        // ~2.2s the full 100-retry schedule would take.
        assert!(elapsed < Duration::from_millis(1_000), "{elapsed:?}");
        drop(client);
        drop(acceptor); // detach: it exits after its take(64) accepts
    }

    #[test]
    fn the_seeded_schedule_truncates_at_the_deadline_deterministically() {
        let config = BackoffConfig {
            max_retries: 10,
            base_ms: 40,
            cap_ms: 400,
            seed: 5,
            deadline_ms: 300,
        };
        // Replay the request loop's arithmetic: a sleep that would push
        // the total past the deadline is never started.
        let simulate = |config: &BackoffConfig| -> (u64, u32) {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut elapsed = 0u64;
            let mut slept = 0u32;
            for attempt in 0..config.max_retries {
                let delay = config.delay(attempt, None, &mut rng).as_millis() as u64;
                if elapsed + delay > config.deadline_ms {
                    break;
                }
                elapsed += delay;
                slept += 1;
            }
            (elapsed, slept)
        };
        let (elapsed, slept) = simulate(&config);
        assert!(elapsed <= config.deadline_ms);
        assert!(slept > 0, "the first delays fit inside the deadline");
        assert!(slept < config.max_retries, "the deadline bites before the attempt cap");
        // Same seed, same truncation point — the schedule is replayable.
        assert_eq!(simulate(&config), (elapsed, slept));
    }

    #[test]
    fn a_seed_pins_the_whole_retry_schedule() {
        let config = BackoffConfig::default();
        let run = |seed: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..6).map(|i| config.delay(i, None, &mut rng)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should jitter differently");
    }
}
