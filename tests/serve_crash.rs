//! `mylead serve` acks an `INGEST` only once it is durable: a server
//! killed with SIGKILL right after the ack — no drain, no checkpoint,
//! no destructor — must not lose the object.

use std::io::{BufRead, BufReader};
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

#[test]
fn killed_server_keeps_acked_ingest() {
    let dir = std::env::temp_dir().join(format!("mylead-serve-kill-{}", std::process::id()));
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

    let mut client = service::CatalogClient::connect(addr).unwrap();
    let id = client.ingest(DOC).unwrap();
    server.0.kill().unwrap();
    server.0.wait().unwrap();

    let out = Command::new(bin())
        .args(["query", "-s", cat_s, "grid@ARPS[dx=1000]"])
        .output()
        .unwrap();
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{text}");
    assert!(text.contains(&format!("[{id}]")), "acked object {id} lost after SIGKILL: {text}");
    std::fs::remove_dir_all(&dir).ok();
}
