//! The command lines of `vcload` and `vcloudd`: a flag the selected mode
//! does not read, a value the daemon cannot run with, or an argument that
//! is not UTF-8 exits 2 with the usage before anything connects or binds.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A loopback address nothing listens on: bound once, then released.
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    listener.local_addr().expect("bound address").to_string()
}

/// Runs `bin` with `args`, killing it if it has not exited within 20 s (a
/// daemon that accepted its flags would serve forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            panic!("{bin} {args:?} was still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

fn assert_usage_error(bin: &str, args: &[&str], why: &str) {
    let out = run(bin, args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {err}");
    assert!(err.contains(why), "{args:?} stderr lacks {why:?}: {err}");
    assert!(err.contains("USAGE:"), "{args:?} must print the usage: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn vcload_rejects_a_flag_its_mode_does_not_read() {
    let addr = dead_addr();
    let out_dir = std::env::temp_dir().join(format!("vc_vcload_cli_{}", std::process::id()));
    let out_dir = out_dir.to_str().unwrap();
    let vcload = env!("CARGO_BIN_EXE_vcload");
    for (args, why) in [
        (
            &["--once", "urban-epidemic", "--clients", "8"][..],
            "--clients cannot be used with --once",
        ),
        (&["--once", "urban-epidemic", "--open", "5"], "--open cannot be used with --once"),
        (&["--out", out_dir], "--out cannot be used with a load run"),
        (&["--metrics", "--shutdown"], "--shutdown cannot be used with --metrics"),
        (&["--shutdown", "--metrics"], "--metrics cannot be used with --shutdown"),
        (&["--list"], "--addr cannot be used with --list"),
        (&["--seed", "1", "--seed", "2"], "--seed given twice"),
        (&["--clients", "many"], "--clients expects usize"),
        (&["--jobs", "0"], "--jobs must be above 0"),
        (&["--open", "NaN"], "--open must be above 0"),
    ] {
        let args = [&["--addr", addr.as_str()][..], args].concat();
        assert_usage_error(vcload, &args, why);
    }
    assert!(!std::path::Path::new(out_dir).exists(), "--out without --once wrote output");

    // The same modes with their own flags get past the parser and fail on
    // the missing daemon instead.
    for args in [&["--metrics"][..], &["--once", "urban-epidemic", "--seed", "3", "--out", out_dir]]
    {
        let out = run(vcload, &[&["--addr", addr.as_str()][..], args].concat());
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn vcloudd_rejects_an_empty_queue_and_stray_flags() {
    let addr = dead_addr();
    let vcloudd = env!("CARGO_BIN_EXE_vcloudd");
    for (args, why) in [
        (&["--queue", "0"][..], "--queue must be above 0"),
        (&["--workers", "0"], "--workers must be above 0"),
        (&["--help"], "--addr cannot be used with --help"),
        (&["--queue"], "--queue needs a value"),
    ] {
        assert_usage_error(vcloudd, &[&["--addr", addr.as_str()][..], args].concat(), why);
    }
}

#[cfg(unix)]
#[test]
fn an_argument_that_is_not_utf8_is_a_usage_error_not_a_panic() {
    use std::os::unix::ffi::OsStrExt;
    let arg = std::ffi::OsStr::from_bytes(b"--addr\xff");
    for bin in [env!("CARGO_BIN_EXE_vcload"), env!("CARGO_BIN_EXE_vcloudd")] {
        let out = Command::new(bin).arg(arg).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(err.contains("is not UTF-8") && err.contains("USAGE:"), "{bin}: {err}");
    }
}
