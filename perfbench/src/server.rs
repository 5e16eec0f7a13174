//! The service under test runs in a child process of its own, so its CPU
//! time and resident memory can be read from `/proc` without counting
//! the load generator. The child is this same executable started with
//! `serve`: it opens one `Registry`, puts `Server` (JSON lines over TCP)
//! and `HttpServer` in front of it, prints both addresses, and shuts down
//! when its standard input closes.

use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_service::{HttpServer, Registry, RegistryConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;

/// Worker threads per frontend, as in the `serve` example.
pub const FRONTEND_WORKERS: usize = 4;

/// Entry point of the child process: `serve [--store DIR]`.
pub fn serve_main(args: &[String]) -> i32 {
    let store = match args {
        [] => None,
        [flag, dir] if flag == "--store" => Some(StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir)
        }),
        _ => {
            eprintln!("usage: serve [--store DIR]");
            return 2;
        }
    };
    let config = RegistryConfig {
        store,
        ..RegistryConfig::default()
    };
    let registry = match Registry::open(config) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("serve: cannot open registry: {e}");
            return 1;
        }
    };
    let tcp = Server::start("127.0.0.1:0", Arc::clone(&registry), FRONTEND_WORKERS)
        .expect("bind the TCP frontend on a loopback port");
    let http = HttpServer::start("127.0.0.1:0", registry, FRONTEND_WORKERS)
        .expect("bind the HTTP frontend on a loopback port");
    println!("ready {} {}", tcp.addr(), http.addr());
    std::io::stdout()
        .flush()
        .expect("stdout is a pipe to the parent");
    // Block until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    tcp.shutdown();
    http.shutdown();
    0
}

/// A running server child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The JSON-lines frontend.
    pub tcp: SocketAddr,
    /// The HTTP frontend.
    pub http: SocketAddr,
}

impl ServerProc {
    /// Starts the child and waits until both frontends listen. With
    /// `store_dir` the registry logs there under `FsyncPolicy::Always`;
    /// without, it keeps sessions in memory.
    pub fn start(store_dir: Option<&Path>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve");
        if let Some(dir) = store_dir {
            cmd.arg("--store").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let parsed = match read {
            Ok(_) => parse_ready(&line),
            Err(e) => Err(e.to_string()),
        };
        let mut proc = ServerProc {
            child,
            stdin,
            tcp: "127.0.0.1:0".parse().expect("literal address"),
            http: "127.0.0.1:0".parse().expect("literal address"),
        };
        let (tcp, http) = parsed.map_err(|e| format!("server did not start: {e}"))?;
        proc.tcp = tcp;
        proc.http = http;
        Ok(proc)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's stdin and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached when `stop` was not: make sure no child outlives us.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn parse_ready(line: &str) -> Result<(SocketAddr, SocketAddr), String> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("ready"), Some(tcp), Some(http)) => Ok((
            tcp.parse().map_err(|e| format!("{e}"))?,
            http.parse().map_err(|e| format!("{e}"))?,
        )),
        _ => Err(format!("unexpected first line {line:?}")),
    }
}
