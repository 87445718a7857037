//! The `kreach serve` child process.

use kreach_server::client::BlockingClient;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a launch may take to print its listening line.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a drained server may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `kreach serve`.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    started: Instant,
    log_pump: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve <args> --port 0` and waits for its listening line.
    /// Server stdout and stderr go to `log`.
    pub fn launch(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let started = Instant::now();
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file.try_clone().map_err(|e| e.to_string())?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let log_pump = std::thread::spawn(move || {
            let mut log_file = log_file;
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = writeln!(log_file, "{line}");
                if let Some(rest) = line.strip_prefix("kreach-server listening on http://") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let addr = match rx.recv_timeout(LAUNCH_TIMEOUT) {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = log_pump.join();
                return Err(format!(
                    "kreach serve printed no listening line; see {}",
                    log.display()
                ));
            }
        };
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        Ok(Server {
            child,
            addr,
            started,
            log_pump: Some(log_pump),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// When the process was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Drains over the wire (`POST /shutdown`) and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let drained = BlockingClient::connect(self.addr)
            .and_then(|mut c| c.post("/shutdown", b""))
            .map_err(|e| format!("shutdown request failed: {e}"));
        let status = self.wait_exit()?;
        drained?;
        if !status.success() {
            return Err(format!("kreach serve exited with {status}"));
        }
        Ok(())
    }

    /// `kill -9`: the crash the durable workload restarts from.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(pump) = self.log_pump.take() {
            let _ = pump.join();
        }
    }

    fn wait_exit(&mut self) -> Result<std::process::ExitStatus, String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(pump) = self.log_pump.take() {
                        let _ = pump.join();
                    }
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("kreach serve did not exit after a drain".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still running here belongs to a failed run: never leave
        // it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(pump) = self.log_pump.take() {
            let _ = pump.join();
        }
    }
}

/// The exact command line of a launch, for the run record.
pub fn command_line(bin: &Path, args: &[String]) -> String {
    let mut parts = vec![bin.display().to_string(), "serve".to_string()];
    parts.extend(args.iter().cloned());
    parts.extend(["--port".to_string(), "0".to_string()]);
    parts.join(" ")
}
