//! `vcloudd` — the scenario-service daemon.
//!
//! Binds a loopback TCP socket, announces the bound address on stdout
//! (so scripts using port 0 can discover it), and serves [`vc_net::svc`]
//! frames until a client sends SHUTDOWN. Exit code 0 means every
//! admitted job reached a terminal state before exit.

use std::process::ExitCode;

use vc_service::server::{bind_and_announce, ServerConfig};
use vc_testkit::cli::{Cli, Flag};

const USAGE: &str = "\
vcloudd — vcloud scenario-service daemon

USAGE:
    vcloudd [--addr HOST:PORT] [--workers N] [--queue N]

OPTIONS:
    --addr HOST:PORT   listen address (default 127.0.0.1:0 = ephemeral loopback)
    --workers N        worker threads executing jobs (default 4, at least 1)
    --queue N          queued jobs before SUBMITs are rejected (default 64, at least 1)
    --help             print this help

The daemon prints one line on startup:
    vcloudd listening on <addr> workers=<n> queue=<n>
and runs until a client sends a SHUTDOWN frame; it then drains (finishes
every admitted job), acknowledges, and exits.
";

/// The modes: serving (the default) and `--help`.
const SERVE: &str = "the daemon";
const HELP: &str = "--help";

const FLAGS: &[Flag] = &[
    Flag::value("--addr", &[SERVE]),
    Flag::value("--workers", &[SERVE]),
    Flag::value("--queue", &[SERVE]),
    Flag::switch("--help", &[HELP]).selects(),
    Flag::switch("-h", &[HELP]).selects(),
];
const CLI: Cli =
    Cli { name: "vcloudd", usage: USAGE, default_mode: SERVE, flags: FLAGS, positionals: &[] };

fn main() -> ExitCode {
    let args = CLI.parse_env();
    if args.mode == HELP {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut config = ServerConfig::default();
    config.addr = args.value("--addr").map_or(config.addr, String::from);
    config.pool.workers = args.positive("--workers").unwrap_or(config.pool.workers);
    config.pool.queue_cap = args.positive("--queue").unwrap_or(config.pool.queue_cap);
    let (server, addr) = match bind_and_announce(&config) {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("vcloudd: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "vcloudd listening on {addr} workers={} queue={}",
        config.pool.workers, config.pool.queue_cap
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(served) => {
            println!("vcloudd drained after {served} connections");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vcloudd: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
