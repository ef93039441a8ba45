//! The wire client and `rrf-serve` process helpers the server e2e
//! suites share. Each test crate uses only some of them, hence the
//! `dead_code` allowance.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rrf_server::{Request, Response};

/// A blocking NDJSON client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    pub fn send(&mut self, request: &Request) {
        let mut line = serde_json::to_string(request).unwrap();
        line.push('\n');
        self.send_raw(&line);
    }

    /// Write `line` as is: no serialization, no newline appended.
    pub fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    /// The next response line, trailing newline stripped: the exact
    /// bytes a client would see.
    pub fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    }

    pub fn recv(&mut self) -> Response {
        serde_json::from_str(&self.recv_raw()).expect("parse response")
    }

    pub fn roundtrip(&mut self, request: &Request) -> Response {
        self.send(request);
        self.recv()
    }

    pub fn roundtrip_raw(&mut self, request: &Request) -> String {
        self.send(request);
        self.recv_raw()
    }
}

/// A spawned `rrf-serve` process and the address it bound.
pub struct Daemon {
    pub child: Child,
    pub addr: SocketAddr,
}

/// Spawn `rrf-serve --addr 127.0.0.1:0 <args>` and parse the bound
/// address from its startup line.
pub fn spawn_serve(args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rrf-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rrf-serve");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read startup line");
    let addr = line
        .trim()
        .strip_prefix("rrf-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .parse()
        .expect("parse bound address");
    Daemon { child, addr }
}

/// Spawn a two-worker `rrf-serve --journal <path>` that fsyncs every
/// record.
pub fn spawn_journaled(journal: &Path) -> Daemon {
    spawn_serve(&[
        "--workers",
        "2",
        "--journal",
        journal.to_str().unwrap(),
        "--journal-fsync-every",
        "1",
    ])
}

pub fn wait_for_exit(child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}
