//! The `wcoj-server` child process: spawn, wait until it listens, load
//! relations over HTTP, read its peak memory, and stop it.

use crate::http::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Largest CSV body sent in one request (the server refuses bodies over
/// 1 MiB).
pub const MAX_BODY: usize = 1 << 20;

/// A running server; dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin` on an ephemeral loopback port, configured only through
    /// `WCOJ_*` variables (every inherited one is cleared first).
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("WCOJ_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .env("WCOJ_BIND", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                match addr.parse() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable listen line {line:?}"));
                    }
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe;
        // the thread ends at EOF when the process exits.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        })
    }

    /// Peak resident set size in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr_drain.take() {
            let _ = t.join();
        }
    }
}

/// Splits CSV text into bodies of at most [`MAX_BODY`] bytes on line
/// boundaries. Always yields at least one (possibly empty) body.
pub fn csv_bodies(csv: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = csv;
    while rest.len() > MAX_BODY {
        let cut = rest[..MAX_BODY].rfind('\n').map_or(MAX_BODY, |i| i + 1);
        out.push(&rest[..cut]);
        rest = &rest[cut..];
    }
    if !rest.is_empty() || out.is_empty() {
        out.push(rest);
    }
    out
}

/// Loads `csv` as relation `name`: `PUT` of the first body, then `POST
/// …/rows` of the rest. Returns the row total the server acknowledged.
pub fn load(client: &mut Client, name: &str, csv: &str) -> Result<u64, String> {
    let mut total = 0;
    for (i, body) in csv_bodies(csv).into_iter().enumerate() {
        let (method, path) = if i == 0 {
            ("PUT", format!("/relation/{name}"))
        } else {
            ("POST", format!("/relation/{name}/rows"))
        };
        let resp = client
            .request(method, &path, body.as_bytes())
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "{method} {path}: status {} {}",
                resp.status,
                resp.text()
            ));
        }
        total =
            crate::http::json_uint(&resp.text(), "rows").ok_or("load ack without a row count")?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_split_on_line_boundaries() {
        let line = "123456,654321\n";
        let csv = line.repeat(MAX_BODY / line.len() * 2 + 3);
        let bodies = csv_bodies(&csv);
        assert_eq!(bodies.len(), 3);
        assert!(bodies
            .iter()
            .all(|b| b.len() <= MAX_BODY && b.ends_with('\n')));
        assert_eq!(bodies.concat(), csv);
        assert_eq!(csv_bodies(""), vec![""]);
    }
}
