//! `mylead serve` acks an `INGEST` only once it is durable: a server
//! killed with SIGKILL right after the ack — no drain, no checkpoint,
//! no destructor — must not lose the object.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mylead")
}

const DOC: &str = "<LEADresource><resourceID>kill</resourceID><data>\
<idinfo><keywords><theme><themekt>CF</themekt><themekey>rain</themekey></theme></keywords></idinfo>\
<geospatial><eainfo><detailed>\
<enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
<attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000</attrv></attr>\
</detailed></eainfo></geospatial></data></LEADresource>";

/// Kills the server however the test ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `mylead init` a fresh catalog directory named after `tag`, then
/// `mylead serve` it; returns the directory, the catalog path, the
/// server and its address.
fn init_and_serve(tag: &str) -> (PathBuf, PathBuf, Server, String) {
    let dir = std::env::temp_dir().join(format!("mylead-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cat = dir.join("cat.db");
    let cat_s = cat.to_str().unwrap();
    let init = Command::new(bin()).args(["init", "-s", cat_s]).output().unwrap();
    assert!(init.status.success(), "{}", String::from_utf8_lossy(&init.stderr));
    let mut server = Server(
        Command::new(bin())
            .args(["serve", "-s", cat_s, "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // "serving catalog <dir> on <addr> (Ctrl-C to stop; ...)"
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.split(" (").next().and_then(|s| s.rsplit(' ').next()).unwrap();
    (dir, cat, server, addr.to_string())
}

/// Run `mylead query -s <cat> <dsl>`; returns success and all output.
fn query(cat: &Path, dsl: &str) -> (bool, String) {
    let out = Command::new(bin())
        .args(["query", "-s", cat.to_str().unwrap(), dsl])
        .output()
        .unwrap();
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn killed_server_keeps_acked_ingest() {
    let (dir, cat, mut server, addr) = init_and_serve("serve-kill");
    let mut client = service::CatalogClient::connect(addr.as_str()).unwrap();
    let id = client.ingest(DOC).unwrap();
    server.0.kill().unwrap();
    server.0.wait().unwrap();

    let (ok, text) = query(&cat, "grid@ARPS[dx=1000]");
    assert!(ok, "{text}");
    assert!(text.contains(&format!("[{id}]")), "acked object {id} lost after SIGKILL: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_process_cannot_open_a_served_catalog() {
    let (dir, cat, server, addr) = init_and_serve("serve-lock");
    let mut client = service::CatalogClient::connect(addr.as_str()).unwrap();
    let id = client.ingest(DOC).unwrap();

    let wal = cat.join(minidb::wal::WAL_FILE);
    let before = std::fs::read(&wal).unwrap();
    let (ok, text) = query(&cat, "grid@ARPS[dx=1000]");
    assert!(!ok, "query beside a live server succeeded: {text}");
    assert_eq!(std::fs::read(&wal).unwrap(), before, "second process changed the live WAL");
    // The server still owns the directory and still answers.
    assert_eq!(client.query("grid@ARPS[dx=1000]").unwrap(), vec![id]);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
