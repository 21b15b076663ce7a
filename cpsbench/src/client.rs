//! The server under test as a child process, and a keep-alive client.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use cpssec_server::load::{read_response, WireResponse};

/// A running `cpssec serve`; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `binary serve` on an ephemeral port with two workers over
    /// `snapshot`, and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a server that exits before listening.
    pub fn spawn(binary: &Path, snapshot: &Path, work_dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--snapshot",
            ])
            .arg(snapshot)
            .env("CPSSEC_FLIGHT_DIR", work_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        match listening_addr(stdout) {
            Ok(addr) => Ok(Server { child, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The process id (for `/proc` reads).
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
    }

    /// Opens a keep-alive connection.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.addr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn listening_addr(stdout: ChildStdout) -> io::Result<String> {
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    line.strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_owned)
        .ok_or_else(|| io::Error::other(format!("server did not start: {line:?}")))
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Transport or framing errors.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<WireResponse> {
        self.stream.write_all(wire)?;
        read_response(&mut self.reader)
    }
}
