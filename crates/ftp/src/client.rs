//! The FTP client used by the Table 2 benchmark.

use crate::error::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;

/// A blocking binary-mode FTP client.
pub struct FtpClient {
    control: TcpStream,
    reader: BufReader<TcpStream>,
}

impl FtpClient {
    /// Connect and consume the greeting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<FtpClient> {
        let control = TcpStream::connect(addr)?;
        control.set_nodelay(true)?;
        let reader = BufReader::new(control.try_clone()?);
        let mut client = FtpClient { control, reader };
        client.expect(220, "greeting")?;
        Ok(client)
    }

    fn send(&mut self, line: &str) -> Result<()> {
        write!(self.control, "{line}\r\n")?;
        self.control.flush()?;
        Ok(())
    }

    fn read_reply(&mut self) -> Result<(u16, String)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(Error::Protocol("connection closed".into()));
        }
        let code: u16 = line
            .get(..3)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| Error::Protocol(format!("bad reply `{line}`")))?;
        Ok((code, line.trim_end().to_owned()))
    }

    fn expect(&mut self, code: u16, context: &'static str) -> Result<String> {
        let (got, line) = self.read_reply()?;
        if got == code {
            Ok(line)
        } else {
            Err(Error::UnexpectedReply {
                code: got,
                line,
                context,
            })
        }
    }

    /// USER/PASS login and TYPE I.
    pub fn login(&mut self, user: &str, pass: &str) -> Result<()> {
        self.send(&format!("USER {user}"))?;
        self.expect(331, "USER")?;
        self.send(&format!("PASS {pass}"))?;
        self.expect(230, "PASS")?;
        self.send("TYPE I")?;
        self.expect(200, "TYPE")?;
        Ok(())
    }

    /// Enter passive mode; returns the data address to connect to.
    fn pasv(&mut self) -> Result<SocketAddr> {
        self.send("PASV")?;
        let line = self.expect(227, "PASV")?;
        let open = line
            .find('(')
            .ok_or_else(|| Error::Protocol(format!("no tuple in `{line}`")))?;
        let close = line
            .rfind(')')
            .ok_or_else(|| Error::Protocol(format!("no tuple in `{line}`")))?;
        let nums: Vec<u16> = line[open + 1..close]
            .split(',')
            .map(|n| n.trim().parse().unwrap_or(0))
            .collect();
        if nums.len() != 6 {
            return Err(Error::Protocol(format!("bad PASV tuple in `{line}`")));
        }
        let ip = IpAddr::V4(Ipv4Addr::new(
            nums[0] as u8,
            nums[1] as u8,
            nums[2] as u8,
            nums[3] as u8,
        ));
        Ok(SocketAddr::new(ip, nums[4] << 8 | nums[5]))
    }

    /// Upload bytes as `remote` (the "mem to file" mode of Table 2).
    pub fn stor_bytes(&mut self, remote: &str, data: &[u8]) -> Result<()> {
        let data_addr = self.pasv()?;
        self.send(&format!("STOR {remote}"))?;
        self.expect(150, "STOR")?;
        let mut data_conn = TcpStream::connect(data_addr)?;
        data_conn.write_all(data)?;
        drop(data_conn);
        self.expect(226, "STOR completion")?;
        Ok(())
    }

    /// Upload a local file (the "local file to local file" mode).
    pub fn stor_file(&mut self, remote: &str, local: &Path) -> Result<()> {
        let data_addr = self.pasv()?;
        self.send(&format!("STOR {remote}"))?;
        self.expect(150, "STOR")?;
        let mut data_conn = TcpStream::connect(data_addr)?;
        let mut file = std::fs::File::open(local)?;
        std::io::copy(&mut file, &mut data_conn)?;
        drop(data_conn);
        self.expect(226, "STOR completion")?;
        Ok(())
    }

    /// Download `remote` fully into memory.
    pub fn retr_bytes(&mut self, remote: &str) -> Result<Vec<u8>> {
        let data_addr = self.pasv()?;
        self.send(&format!("RETR {remote}"))?;
        self.expect(150, "RETR")?;
        let mut data_conn = TcpStream::connect(data_addr)?;
        let mut out = Vec::new();
        data_conn.read_to_end(&mut out)?;
        drop(data_conn);
        self.expect(226, "RETR completion")?;
        Ok(out)
    }

    /// Download `remote` into a local file.
    pub fn retr_file(&mut self, remote: &str, local: &Path) -> Result<u64> {
        let data_addr = self.pasv()?;
        self.send(&format!("RETR {remote}"))?;
        self.expect(150, "RETR")?;
        let mut data_conn = TcpStream::connect(data_addr)?;
        let mut file = std::fs::File::create(local)?;
        let n = std::io::copy(&mut data_conn, &mut file)?;
        self.expect(226, "RETR completion")?;
        Ok(n)
    }

    /// Remote file size.
    pub fn size(&mut self, remote: &str) -> Result<u64> {
        self.send(&format!("SIZE {remote}"))?;
        let line = self.expect(213, "SIZE")?;
        line[4..]
            .trim()
            .parse()
            .map_err(|_| Error::Protocol(format!("bad SIZE reply `{line}`")))
    }

    /// Delete a remote file.
    pub fn dele(&mut self, remote: &str) -> Result<()> {
        self.send(&format!("DELE {remote}"))?;
        self.expect(250, "DELE")?;
        Ok(())
    }

    /// Polite shutdown.
    pub fn quit(&mut self) -> Result<()> {
        self.send("QUIT")?;
        self.expect(221, "QUIT")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FtpServer, FtpServerConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn rig() -> (FtpServer, PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("pse-ftp-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let server = FtpServer::bind(
            "127.0.0.1:0",
            FtpServerConfig {
                root: root.clone(),
                credentials: None,
            },
        )
        .unwrap();
        (server, root)
    }

    #[test]
    fn stor_retr_roundtrip_bytes() {
        let (server, root) = rig();
        let mut c = FtpClient::connect(server.local_addr()).unwrap();
        c.login("anonymous", "guest").unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c.stor_bytes("data/blob.bin", &payload).unwrap();
        assert_eq!(c.size("data/blob.bin").unwrap(), payload.len() as u64);
        let back = c.retr_bytes("data/blob.bin").unwrap();
        assert_eq!(back, payload);
        c.quit().unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn file_to_file_transfer() {
        let (server, root) = rig();
        let local_src = root.join("outside-src.bin");
        let local_dst = root.join("outside-dst.bin");
        std::fs::write(&local_src, vec![7u8; 50_000]).unwrap();
        let mut c = FtpClient::connect(server.local_addr()).unwrap();
        c.login("u", "p").unwrap();
        c.stor_file("stored.bin", &local_src).unwrap();
        let n = c.retr_file("stored.bin", &local_dst).unwrap();
        assert_eq!(n, 50_000);
        assert_eq!(
            std::fs::read(&local_src).unwrap(),
            std::fs::read(&local_dst).unwrap()
        );
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_file_is_550() {
        let (server, root) = rig();
        let mut c = FtpClient::connect(server.local_addr()).unwrap();
        c.login("u", "p").unwrap();
        let err = c.retr_bytes("nope.bin").unwrap_err();
        assert!(matches!(err, Error::UnexpectedReply { code: 550, .. }));
        assert!(c.size("nope.bin").is_err());
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn credentials_enforced() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("pse-ftp-auth-{n}-{}", std::process::id()));
        let server = FtpServer::bind(
            "127.0.0.1:0",
            FtpServerConfig {
                root: root.clone(),
                credentials: Some(("karen".into(), "pw".into())),
            },
        )
        .unwrap();
        let mut bad = FtpClient::connect(server.local_addr()).unwrap();
        assert!(bad.login("karen", "wrong").is_err());
        let mut good = FtpClient::connect(server.local_addr()).unwrap();
        good.login("karen", "pw").unwrap();
        good.stor_bytes("f", b"x").unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dele_removes() {
        let (server, root) = rig();
        let mut c = FtpClient::connect(server.local_addr()).unwrap();
        c.login("u", "p").unwrap();
        c.stor_bytes("f.bin", b"123").unwrap();
        c.dele("f.bin").unwrap();
        assert!(c.size("f.bin").is_err());
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn path_escapes_confined() {
        let (server, root) = rig();
        let mut c = FtpClient::connect(server.local_addr()).unwrap();
        c.login("u", "p").unwrap();
        c.stor_bytes("../../escape.bin", b"x").unwrap();
        assert!(root.join("escape.bin").exists());
        assert!(!root.parent().unwrap().join("escape.bin").exists());
        server.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
