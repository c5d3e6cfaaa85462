//! The FTP server: control loop + passive data connections.

use crate::error::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct FtpServerConfig {
    /// Directory served (STOR/RETR resolve inside it; subdirectories are
    /// created on demand for STOR).
    pub root: PathBuf,
    /// Require this user/pass pair when set; otherwise any login works.
    pub credentials: Option<(String, String)>,
}

/// A running FTP server.
pub struct FtpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    live: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl FtpServer {
    /// Bind and start serving. One thread per control connection.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: FtpServerConfig) -> Result<FtpServer> {
        std::fs::create_dir_all(&config.root)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let config = Arc::new(config);

        let accept_stop = Arc::clone(&stop);
        let accept_live = Arc::clone(&live);
        let accept_thread = std::thread::spawn(move || {
            let mut serial = 0u64;
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                serial += 1;
                let id = serial;
                if let Ok(clone) = stream.try_clone() {
                    accept_live.lock().insert(id, clone);
                }
                let config = Arc::clone(&config);
                let live = Arc::clone(&accept_live);
                std::thread::spawn(move || {
                    let _ = serve_control(stream, &config);
                    live.lock().remove(&id);
                });
            }
        });

        Ok(FtpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            live,
        })
    }

    /// Bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and force open control connections closed.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for (_, s) in self.live.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

struct Session {
    /// Pending passive-mode listener.
    pasv: Option<TcpListener>,
    user: Option<String>,
    authenticated: bool,
    binary: bool,
}

fn reply(w: &mut impl Write, code: u16, text: &str) -> Result<()> {
    write!(w, "{code} {text}\r\n")?;
    w.flush()?;
    Ok(())
}

/// Resolve a client path inside the root, refusing escapes.
fn resolve(root: &std::path::Path, arg: &str) -> PathBuf {
    let clean = pse_safe_path(arg);
    root.join(clean)
}

fn pse_safe_path(arg: &str) -> PathBuf {
    let mut out = PathBuf::new();
    for seg in arg.split(['/', '\\']) {
        match seg {
            "" | "." | ".." => {}
            s => out.push(s),
        }
    }
    out
}

fn serve_control(stream: TcpStream, config: &FtpServerConfig) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    reply(&mut writer, 220, "pse-ftp ready")?;
    let mut session = Session {
        pasv: None,
        user: None,
        authenticated: config.credentials.is_none(),
        binary: false,
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim_end();
        let (verb, arg) = match trimmed.split_once(' ') {
            Some((v, a)) => (v.to_ascii_uppercase(), a.trim().to_owned()),
            None => (trimmed.to_ascii_uppercase(), String::new()),
        };
        match verb.as_str() {
            "USER" => {
                session.user = Some(arg.clone());
                reply(&mut writer, 331, "password required")?;
            }
            "PASS" => {
                let ok = match &config.credentials {
                    None => true,
                    Some((u, p)) => session.user.as_deref() == Some(u.as_str()) && arg == *p,
                };
                if ok {
                    session.authenticated = true;
                    reply(&mut writer, 230, "logged in")?;
                } else {
                    reply(&mut writer, 530, "login incorrect")?;
                }
            }
            "SYST" => reply(&mut writer, 215, "UNIX Type: L8 (pse-ftp)")?,
            "NOOP" => reply(&mut writer, 200, "ok")?,
            "TYPE" => {
                if arg.eq_ignore_ascii_case("I") {
                    session.binary = true;
                    reply(&mut writer, 200, "type set to I")?;
                } else {
                    reply(&mut writer, 504, "only image (binary) type is supported")?;
                }
            }
            "PASV" => {
                let listener = TcpListener::bind((writer.local_addr()?.ip(), 0))?;
                let addr = listener.local_addr()?;
                let ip = match addr.ip() {
                    std::net::IpAddr::V4(v4) => v4.octets(),
                    _ => [127, 0, 0, 1],
                };
                let port = addr.port();
                let text = format!(
                    "entering passive mode ({},{},{},{},{},{})",
                    ip[0],
                    ip[1],
                    ip[2],
                    ip[3],
                    port >> 8,
                    port & 0xff
                );
                session.pasv = Some(listener);
                reply(&mut writer, 227, &text)?;
            }
            "STOR" if !session.authenticated => reply(&mut writer, 530, "not logged in")?,
            "RETR" if !session.authenticated => reply(&mut writer, 530, "not logged in")?,
            "STOR" => {
                if !session.binary {
                    reply(&mut writer, 503, "set TYPE I first")?;
                    continue;
                }
                let Some(listener) = session.pasv.take() else {
                    reply(&mut writer, 425, "use PASV first")?;
                    continue;
                };
                let path = resolve(&config.root, &arg);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                reply(&mut writer, 150, "opening data connection")?;
                let (mut data, _) = listener.accept()?;
                let mut file = std::fs::File::create(&path)?;
                std::io::copy(&mut data, &mut file)?;
                file.sync_data()?;
                reply(&mut writer, 226, "transfer complete")?;
            }
            "RETR" => {
                if !session.binary {
                    reply(&mut writer, 503, "set TYPE I first")?;
                    continue;
                }
                let Some(listener) = session.pasv.take() else {
                    reply(&mut writer, 425, "use PASV first")?;
                    continue;
                };
                let path = resolve(&config.root, &arg);
                let Ok(mut file) = std::fs::File::open(&path) else {
                    reply(&mut writer, 550, "file not found")?;
                    continue;
                };
                reply(&mut writer, 150, "opening data connection")?;
                let (mut data, _) = listener.accept()?;
                std::io::copy(&mut file, &mut data)?;
                drop(data); // close signals EOF to the client
                reply(&mut writer, 226, "transfer complete")?;
            }
            "SIZE" => {
                let path = resolve(&config.root, &arg);
                match std::fs::metadata(&path) {
                    Ok(m) if m.is_file() => reply(&mut writer, 213, &m.len().to_string())?,
                    _ => reply(&mut writer, 550, "file not found")?,
                }
            }
            "DELE" => {
                let path = resolve(&config.root, &arg);
                if std::fs::remove_file(&path).is_ok() {
                    reply(&mut writer, 250, "deleted")?;
                } else {
                    reply(&mut writer, 550, "file not found")?;
                }
            }
            "QUIT" => {
                reply(&mut writer, 221, "goodbye")?;
                return Ok(());
            }
            _ => reply(&mut writer, 502, "command not implemented")?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_path_resolution() {
        assert_eq!(pse_safe_path("a/b.txt"), PathBuf::from("a/b.txt"));
        assert_eq!(
            pse_safe_path("../../etc/passwd"),
            PathBuf::from("etc/passwd")
        );
        assert_eq!(pse_safe_path("/abs/file"), PathBuf::from("abs/file"));
        assert_eq!(pse_safe_path(".."), PathBuf::new());
    }
}
