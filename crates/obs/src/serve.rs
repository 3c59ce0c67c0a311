//! A std-only HTTP scrape endpoint for the metrics registry.
//!
//! [`MetricsServer::start`] binds a std [`TcpListener`] and answers
//! every request on a single background thread with the global
//! registry rendered as OpenMetrics text (see [`crate::openmetrics`]).
//! It speaks just enough HTTP/1.1 for Prometheus and `curl`:
//!
//! ```text
//! $ stune tune --workload join --metrics-addr 127.0.0.1:9464 &
//! $ curl -s http://127.0.0.1:9464/metrics
//! # TYPE service_tunings counter
//! service_tunings_total 3
//! ...
//! # EOF
//! ```
//!
//! Scraping is read-only and lock-light (one registry snapshot per
//! request), so a scrape racing a `tune_many` run never blocks the
//! tuner. Dropping the server (or calling
//! [`MetricsServer::shutdown`]) stops the thread gracefully.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::registry;
use crate::openmetrics;

/// A background thread serving the global registry over HTTP.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, or port `0` for an
    /// ephemeral port) and starts serving scrapes.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, bad address).
    pub fn start(addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("obs-metrics-http".to_string())
                .spawn(move || serve_loop(&listener, &stop))?
        };
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // The accept loop blocks in `accept`; a throwaway
            // connection wakes it so it can observe the stop flag.
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An address we can connect to in order to wake the accept loop:
/// wildcard binds (0.0.0.0 / ::) are reachable via loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), bound.port())
    } else {
        bound
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // A misbehaving client must not wedge the only serving thread.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = respond(stream);
    }
}

/// Reads the request head (discarded — every path serves metrics) and
/// writes one OpenMetrics response.
fn respond(mut stream: TcpStream) -> io::Result<()> {
    // Read until the blank line ending the request head, or give up
    // after 8 KiB — scrapers don't send bodies.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 8192 && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(_) => break,
        }
    }
    let body = openmetrics::render(&registry().snapshot());
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        openmetrics::CONTENT_TYPE,
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_openmetrics_and_shuts_down() {
        let mut server = MetricsServer::start("127.0.0.1:0").expect("bind");
        registry().counter("serve.test.hits").inc();

        let response = scrape(server.local_addr());
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("application/openmetrics-text"));
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("serve_test_hits_total"), "{body}");
        assert!(body.ends_with("# EOF\n"));

        let addr = server.local_addr();
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn concurrent_scrapes_all_answered() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || scrape(addr)))
            .collect();
        for h in handles {
            let response = h.join().unwrap();
            assert!(response.contains("# EOF"));
        }
    }
}
