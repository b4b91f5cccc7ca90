//! An acceptor out of file descriptors must back off, not spin.
//!
//! When `accept` fails with `EMFILE` the pending connection stays in the
//! listen backlog, so a retry at once fails the same way forever. The
//! test makes two client sockets, then lowers this process's
//! `RLIMIT_NOFILE` to its lowest free descriptor, so no new descriptor
//! can be made, and only then connects them. Linux reserves the accepted
//! socket's descriptor before `accept` blocks, so an acceptor already
//! waiting takes at most the first connection; the second stays pending.
//! The test reads the acceptor thread's CPU time from
//! `/proc/self/task/<tid>/stat` while it is starved: it must stay near
//! zero. With the limit restored the same server accepts and answers a
//! ping. Only a handful of sockets are ever opened. The test is alone in
//! its binary because the limit is process-wide.

#![cfg(target_os = "linux")]

use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_serve::{spawn, Client, ClientConfig, ServeConfig, ServiceConfig};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd};
use std::thread;
use std::time::{Duration, Instant};

/// `struct rlimit` on 64-bit Linux (`rlim_t` is an unsigned long).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// `struct sockaddr_in`.
#[repr(C)]
struct SockaddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn sysconf(name: i32) -> i64;
    fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;
const SC_CLK_TCK: i32 = 2;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

fn nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) },
        0,
        "getrlimit"
    );
    lim
}

fn set_nofile(lim: RLimit) {
    // SAFETY: `lim` is a valid `struct rlimit`; lowering or restoring the
    // soft limit below the hard one needs no privilege.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

/// A TCP socket made now and connected later, by [`connect_to`].
fn unconnected_socket() -> TcpStream {
    // SAFETY: socket has no memory preconditions.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "socket");
    // SAFETY: `fd` is a fresh socket descriptor nothing else owns.
    unsafe { TcpStream::from_raw_fd(fd) }
}

/// Connects `sock` to the IPv4 address `to`; needs no new descriptor.
fn connect_to(sock: &TcpStream, to: SocketAddr) {
    let SocketAddr::V4(v4) = to else {
        panic!("IPv4 only")
    };
    let addr = SockaddrIn {
        family: AF_INET as u16,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    // SAFETY: `addr` is a valid `struct sockaddr_in` of `len` bytes.
    assert_eq!(
        unsafe { connect(sock.as_raw_fd(), &addr, len) },
        0,
        "connect"
    );
}

/// The open `stat` file of this process's thread named `comm`. Opened
/// once, up front, and re-read from offset 0: once descriptors run out
/// no new file can be opened. A thread names itself when it starts, so
/// the lookup waits for it.
fn thread_stat(comm: &str) -> File {
    let started = Instant::now();
    loop {
        for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
            let dir = task.expect("task entry").path();
            let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if name.trim_end() == comm {
                return File::open(dir.join("stat")).expect("open stat");
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no thread named {comm}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// User + system CPU time of the thread behind `stat`, in clock ticks.
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("seek stat");
    stat.read_to_string(&mut text).expect("read stat");
    // Fields after the parenthesized comm: state is field 3, utime 14
    // and stime 15.
    let rest = &text[text.rfind(')').expect("comm end") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("tick count");
    field(14) + field(15)
}

fn service() -> ServiceConfig {
    ServiceConfig {
        poses: vec![
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.3,
            },
            ApPose {
                center: pt(10.0, 0.0),
                axis_angle: 2.0,
            },
        ],
        region: SearchRegion::new(pt(0.0, 0.0), pt(10.0, 10.0)),
        bins: 360,
        policy: HealthPolicy::default(),
    }
}

#[test]
fn acceptor_out_of_fds_idles_then_serves_again() {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = spawn(service(), cfg, "127.0.0.1:0").expect("spawn");
    // Linux keeps 15 bytes of a thread name: "at-serve-acceptor".
    let mut acceptor = thread_stat("at-serve-accept");
    // SAFETY: sysconf has no preconditions.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as u64;
    assert!(ticks_per_s > 0);

    // Both client sockets exist before the limit drops to the lowest
    // free descriptor, so from then on no new descriptor can be made.
    let clients = [unconnected_socket(), unconnected_socket()];
    let lowest = File::open("/dev/null").expect("open /dev/null").as_raw_fd() as u64;
    let saved = nofile();
    set_nofile(RLimit {
        cur: lowest,
        max: saved.max,
    });
    for c in &clients {
        connect_to(c, server.addr());
    }
    // Let the acceptor reach its failing accept before measuring.
    thread::sleep(Duration::from_millis(100));
    let (t0, ticks0) = (Instant::now(), cpu_ticks(&mut acceptor));
    thread::sleep(Duration::from_millis(1000));
    let (spent, elapsed) = (cpu_ticks(&mut acceptor) - ticks0, t0.elapsed());
    let accepted_while_starved = server.stats().connections;
    set_nofile(saved);

    assert!(
        accepted_while_starved < 2,
        "the acceptor was never out of descriptors"
    );
    let spent_s = spent as f64 / ticks_per_s as f64;
    assert!(
        spent_s < 0.05 * elapsed.as_secs_f64(),
        "starved acceptor burned {spent_s:.3} s of CPU in {elapsed:?}"
    );

    // Descriptors are back: the backlog drains and a new client is served.
    let mut c = Client::connect(server.addr(), ClientConfig::default()).expect("connect");
    c.ping(11).expect("ping after descriptors are freed");
    drop((c, clients));
    let stats = server.shutdown();
    assert_eq!(stats.connections, 3, "{stats:?}");
}
