//! The `wcoj-server` binary: configuration from `WCOJ_*` environment
//! variables, then serve until killed.

use wcoj_server::{Server, ServerConfig};

fn main() {
    let cfg = ServerConfig::from_env();
    let threads = cfg.conn_threads;
    match Server::start(cfg) {
        Ok(server) => {
            eprintln!(
                "wcoj-server listening on http://{} ({threads} connection threads)",
                server.addr()
            );
            for warned in wcoj_obs::env::malformed_env_warnings() {
                eprintln!("note: malformed env var {warned} fell back to its default");
            }
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("wcoj-server: bind failed: {e}");
            std::process::exit(1);
        }
    }
}
