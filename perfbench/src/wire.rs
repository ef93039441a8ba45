//! One NDJSON connection to a daemon or router, speaking exact lines so
//! the benchmark can time and re-parse precisely what crossed the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rrf_server::{Request, Response};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one line (`line` carries no newline) and read one reply line
    /// (returned without its newline).
    pub fn call_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a reply",
            ));
        }
        let len = reply.trim_end_matches(['\r', '\n']).len();
        reply.truncate(len);
        Ok(reply)
    }

    /// Typed round trip for set-up and stats requests.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        let reply = self.call_line(&line).map_err(|e| e.to_string())?;
        serde_json::from_str(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
    }
}
